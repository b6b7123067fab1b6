import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from diffreg.algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    add,
    delta_term,
    momentum_term,
    mul,
    position_term,
    scale,
)
from diffreg import cli
from diffreg.cli import main
from diffreg.coeffs import Coefficient, GAMMA_E, LN2, ONE, PI, ZETA3
from diffreg.errors import ConvergenceError, ParseError
from diffreg.fourier import fourier_base, fourier_formal, inverse_fourier_base
from diffreg.operators import DiffOperator
from diffreg.parser import parse_momentum, parse_operator, parse_position
from diffreg.printer import format_momentum, format_operator, format_position
from diffreg.regulate import find_representation
from diffreg.surface import surface_expansion

from conftest import coefficients


class TestParser:
    def test_power_term(self):
        f = parse_position("r^-4", 4)
        assert f.radial == (RadialTerm(Coefficient.rational(1), Fraction(-4), 0),)

    def test_seed_expression(self):
        f = parse_position("-1/4 * log(r^2*M^2) / r^2", 4)
        assert f.radial == (
            RadialTerm(Coefficient.rational(Fraction(-1, 4)), Fraction(-2), 1),
        )

    def test_operator_polynomial(self):
        L = parse_operator("box^2 + 3*box")
        assert L == DiffOperator.build({1: Coefficient.rational(3), 2: Coefficient.rational(1)})

    def test_whitespace_insensitive(self):
        a = parse_position("2*pi * r^-2+delta", 4)
        b = parse_position("2 * pi*r ^ -2 + delta", 4)
        assert a == b

    def test_atomic_log_token(self):
        f = parse_position("log(r^2 * M^2)^2", 4)
        assert f.radial[0].logpow == 2
        assert f.radial[0].rpow == 0

    def test_fractional_exponent(self):
        f = parse_position("r^-3/2", 4)
        assert f.radial[0].rpow == Fraction(-3, 2)

    def test_rational_vs_division(self):
        # 3/2 is a number; 3/r^2 is division by a power term
        f = parse_position("3/2 * r^-1", 4)
        assert f.radial[0].coeff == Coefficient.rational(Fraction(3, 2))
        g = parse_position("3/r^2", 4)
        assert g.radial == (RadialTerm(Coefficient.rational(3), Fraction(-2), 0),)

    def test_momentum_side(self):
        F = parse_momentum("-4*pi^2 * log(p^2/M^2) / p^2", 4)
        assert F.terms == (
            MomentumTerm(-4 * PI * PI, Fraction(-2), 1),
        )

    def test_operator_applied_to_function(self):
        f = parse_position("box * r^2", 4)
        assert f.radial == (RadialTerm(Coefficient.rational(8), Fraction(0), 0),)

    def test_mixing_spaces_rejected(self):
        with pytest.raises(ParseError):
            parse_position("r^-2 + p^2", 4)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_position("r^-2 + @", 4)
        assert exc.value.line == 1
        assert exc.value.col == 8

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_position("r^-2 r", 4)

    def test_wrong_kind(self):
        with pytest.raises(ParseError):
            parse_position("box", 4)
        with pytest.raises(ParseError):
            parse_operator("r^-2")

    @pytest.mark.parametrize("text, col", [
        ("1/0*r^-2", 3), ("r^-3/0", 6), ("0/0", 3), ("3/r^2/0", 7),
    ])
    def test_zero_denominator(self, text, col):
        with pytest.raises(ParseError) as exc:
            parse_position(text, 4)
        assert str(exc.value) == f"division by zero (line 1, column {col})"
        assert (exc.value.line, exc.value.col) == (1, col)


_PARSERS = {
    "position": parse_position,
    "momentum": parse_momentum,
    "operator": parse_operator,
}

# Accepted inputs that the printer never writes, parsed in dim 4, with the
# repr of each result as the parser gave it before it built each value once.
PARSE_GOLDEN = [
    ("position", "1440*ln2/r^10",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 1, 0), "
     "Fraction(1440, 1)),)), rpow=-10, logpow=0),), local=(), flags=())"),
    ("position", "3/r^2",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(3, 1)),)), rpow=-2, logpow=0),), local=(), flags=())"),
    ("position", "-(r^-2 - 2*r^-4)",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(2, 1)),)), rpow=-4, logpow=0), RadialTerm(coeff=Coefficient("
     "terms=(((0, 0, 0, 0), Fraction(-1, 1)),)), rpow=-2, logpow=0)), local=(), "
     "flags=())"),
    ("position", "(box + 2)*r^-2",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(2, 1)),)), rpow=-2, logpow=0),), local=(LocalTerm(coeff="
     "Coefficient(terms=(((2, 0, 0, 0), Fraction(-4, 1)),)), boxpow=0),), flags=())"),
    ("position", "box^2*r^2",
     "PositionFunction(dim=4, radial=(), local=(), flags=())"),
    ("position", "3/2*box*delta",
     "PositionFunction(dim=4, radial=(), local=(LocalTerm(coeff=Coefficient(terms=(((0, 0, "
     "0, 0), Fraction(3, 2)),)), boxpow=1),), flags=())"),
    ("operator", "2/(1/2)",
     "DiffOperator(coeffs=((0, Coefficient(terms=(((0, 0, 0, 0), Fraction(4, 1)),))),))"),
    ("position", "r^-2/(2*r^-2)",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(1, 2)),)), rpow=0, logpow=0),), local=(), flags=())"),
    ("momentum", "-4*pi^2*log(p^2/M^2)/p^2",
     "MomentumFunction(dim=4, terms=(MomentumTerm(coeff=Coefficient(terms=(((2, 0, 0, 0), "
     "Fraction(-4, 1)),)), ppow=-2, logpow=1),), local_poly=(), flags=())"),
    ("position", "r^-4\n  - 1/4*log(r^2*M^2)/r^2",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(1, 1)),)), rpow=-4, logpow=0), RadialTerm(coeff=Coefficient("
     "terms=(((0, 0, 0, 0), Fraction(-1, 4)),)), rpow=-2, logpow=1)), local=(), "
     "flags=())"),
    ("position", "-box*(r^-2*log(r^2*M^2))",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(4, 1)),)), rpow=-4, logpow=0),), local=(), "
     "flags=('distributional part undetermined',))"),
    ("position", "r^-6 + box*(r^-2*log(r^2*M^2))",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(1, 1)),)), rpow=-6, logpow=0), RadialTerm(coeff=Coefficient("
     "terms=(((0, 0, 0, 0), Fraction(-4, 1)),)), rpow=-4, logpow=0)), local=(), "
     "flags=('distributional part undetermined',))"),
    ("operator", "(box + 2)*(box - 1/2)",
     "DiffOperator(coeffs=((0, Coefficient(terms=(((0, 0, 0, 0), Fraction(-1, 1)),))), "
     "(1, Coefficient(terms=(((0, 0, 0, 0), Fraction(3, 2)),))), (2, Coefficient(terms="
     "(((0, 0, 0, 0), Fraction(1, 1)),)))))"),
    ("momentum", "p^2*(1 - p^-2)",
     "MomentumFunction(dim=4, terms=(), local_poly=((Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(-1, 1)),)), 0), (Coefficient(terms=(((0, 0, 0, 0), Fraction(-1, 1)),)), 1)), "
     "flags=())"),
]


@pytest.mark.parametrize("kind, text, golden", PARSE_GOLDEN)
def test_parse_golden(kind, text, golden):
    assert repr(_PARSERS[kind](text, 4)) == golden


# Malformed position inputs: message, line and column as the parser gave
# them before it read each term in one pass.  The first four are the tour's
# malformations of a target.  The last two are over the digit cap, which
# that parser lacked: int() raised a ValueError with no line or column.
PARSE_ERRORS = [
    ("r^-4 +", "unexpected token ''", 1, 7),
    ("r^^-4", "expected 'number', found '^'", 1, 3),
    ("(r^-4", "expected ')', found ''", 1, 6),
    ("r^-4*)", "unexpected token ')'", 1, 6),
    ("r^-2 + @", "unexpected character '@'", 1, 8),
    ("r^-2 r", "unexpected trailing input 'r'", 1, 6),
    ("pi^-2", "this power must be a non-negative integer", 1, 6),
    ("r^-2*p^2", "cannot multiply position by momentum", 1, 9),
    ("(r^-2)/(r^-2+r^-4)", "can only divide by a single power term", 1, 19),
    ("r^-2 +\n  2*r^-4 +", "unexpected token ''", 2, 11),
    ("r^-2\n  * box", "cannot multiply position by operator", 2, 8),
    ("r^-2 + p^2", "cannot mix r-space and p-space in one expression", 1, 11),
    ("r^-2 + box", "cannot combine operator value here", 1, 11),
    ("delta*delta", "undefined product of distributions", 1, 12),
    ("(r^-2)/(2*pi)", "can only divide by a plain rational", 1, 14),
    ("r^-2/box", "cannot divide by an operator", 1, 9),
    ("r^-2/(pi*r^2)", "can only divide by a rational power of r", 1, 14),
    ("p^-2", "expected a position-space expression, got momentum", 1, 1),
    pytest.param("1" * 5000 + "*r^-6", "number longer than 1000 digits", 1, 1,
                 id="5000-digit-literal"),
    pytest.param("r^-2 +\n  r^-" + "9" * 1001, "number longer than 1000 digits", 2, 6,
                 id="1001-digit-exponent"),
]


@pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS)
def test_parse_error_golden(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_position(text, 4)
    assert type(exc.value) is ParseError
    assert str(exc.value) == f"{message} (line {line}, column {col})"
    assert (exc.value.line, exc.value.col) == (line, col)


exponent_st = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9).filter(lambda v: v % 2), st.just(2)),
)


@st.composite
def printable_position(draw):
    radial = [
        RadialTerm(draw(coefficients().filter(lambda c: not c.is_zero())),
                   draw(exponent_st), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    local = [
        LocalTerm(
            draw(coefficients().filter(lambda c: not c.is_zero())),
            draw(st.integers(0, 2)),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    return PositionFunction.build(4, radial, local)


@st.composite
def printable_momentum(draw):
    terms = [
        MomentumTerm(draw(coefficients().filter(lambda c: not c.is_zero())),
                     draw(exponent_st), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    poly = [
        (draw(coefficients().filter(lambda c: not c.is_zero())), draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return MomentumFunction.build(4, terms, poly)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(printable_position())
    def test_position(self, f):
        assert parse_position(format_position(f), 4) == f

    @settings(max_examples=60, deadline=None)
    @given(printable_momentum())
    def test_momentum(self, F):
        assert parse_momentum(format_momentum(F), 4) == F

    def test_operator(self):
        L = DiffOperator.build(
            {0: 2 * PI, 1: Coefficient.rational(Fraction(-1, 3)), 3: GAMMA_E + LN2}
        )
        assert parse_operator(format_operator(L)) == L

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(0, 4), coefficients(), max_size=4))
    def test_random_operator(self, coeffs):
        L = DiffOperator.build(coeffs)
        assert parse_operator(format_operator(L)) == L

    def test_fixture_text(self):
        f = position_term(4, Fraction(-1, 4), Fraction(-2), 1)
        assert format_position(f) == "-1/4*log(r^2*M^2)/r^2"

    def test_delta_text(self):
        f = delta_term(4, Fraction(3, 2), boxpow=1)
        assert format_position(f) == "3/2*box*delta"
        assert parse_position("3/2*box*delta", 4) == f


def _print_golden_values():
    q = Coefficient.rational
    f1 = PositionFunction.build(
        4,
        [RadialTerm(ONE, -4, 0), RadialTerm(q(-1), -2, 1),
         RadialTerm(PI - LN2, Fraction(-3, 2), 2), RadialTerm(q(Fraction(3, 2)), Fraction(1, 3), 0)],
        [LocalTerm(ONE, 0), LocalTerm(q(-2) * PI, 2)],
    )
    f2 = PositionFunction.build(
        3,
        [RadialTerm(q(-5), -1, 3), RadialTerm(PI * PI, 1, 1), RadialTerm(-1 * (GAMMA_E + q(2)), 2, 0),
         RadialTerm(q(Fraction(-7, 3)) * ZETA3, Fraction(-5, 2), 1)],
        [LocalTerm(-1 * ONE, 1), LocalTerm(LN2 - ONE, 3)],
    )
    F1 = MomentumFunction.build(
        4,
        [MomentumTerm(ONE, -2, 0), MomentumTerm(-1 * PI, 2, 1), MomentumTerm(ZETA3, Fraction(-1, 2), 0)],
        [(ONE, 0), (ONE, 1), (q(3), 2), (GAMMA_E, 3)],
    )
    F2 = MomentumFunction.build(
        3,
        [MomentumTerm(q(-1), -1, 2), MomentumTerm(q(Fraction(1, 2)), 1, 0), MomentumTerm(PI + ZETA3, 4, 1)],
        [(q(-2), 0), (LN2 - ONE, 1)],
    )
    return [
        (format_position, f1, "1/r^4 - log(r^2*M^2)/r^2 + (-ln2 + pi)*log(r^2*M^2)^2*r^-3/2"
                              " + 3/2*r^1/3 + delta - 2*pi*box^2*delta"),
        (format_position, f2, "-7/3*zeta3*log(r^2*M^2)*r^-5/2 - 5*log(r^2*M^2)^3/r^1"
                              " + pi^2*log(r^2*M^2)*r^1 + (-2 - gammaE)*r^2 - box*delta"
                              " + (-1 + ln2)*box^3*delta"),
        (format_position, PositionFunction.build(4), "0"),
        (format_momentum, F1, "1/p^2 + zeta3*p^-1/2 - pi*log(p^2/M^2)*p^2 + 1 - p^2 + 3*p^4"
                              " - gammaE*p^6"),
        (format_momentum, F2, "-log(p^2/M^2)^2/p^1 + 1/2*p^1 + (zeta3 + pi)*log(p^2/M^2)*p^4"
                              " - 2 + (1 - ln2)*p^2"),
        (format_momentum, MomentumFunction.build(4), "0"),
        (format_operator, DiffOperator.build({0: -1, 1: 1, 3: ONE + PI}), "(1 + pi)*box^3 + box - 1"),
        (format_operator, DiffOperator.build({0: PI, 2: -1 * (GAMMA_E + LN2), 4: Fraction(-1, 3)}),
         "-1/3*box^4 + (-ln2 - gammaE)*box^2 + pi"),
        (format_operator, DiffOperator.build({}), "0"),
    ]


@pytest.mark.parametrize(
    "fmt, value, golden", _print_golden_values(),
    ids=["position", "position_r1", "position_zero", "momentum", "momentum_p1",
         "momentum_zero", "operator", "operator_box0", "operator_zero"],
)
def test_print_golden(fmt, value, golden):
    """The printed bytes of every term shape: unit and multi-monomial
    coefficients, negative integer powers as divisors, fractional powers,
    log, box and delta factors, the polynomial part and the empty sum."""
    assert fmt(value) == golden


_SPACE = st.sampled_from(["", " ", "  ", "\n", " \n  "])
_SYMBOL_TEXT = ("pi", "gammaE", "ln2", "zeta3")


@st.composite
def _monomial_text(draw, mono, q):
    """|q| times the monomial, with each power written as a power or as a
    repeated product."""
    parts = [str(abs(q))]
    for name, e in zip(_SYMBOL_TEXT, mono):
        if e:
            parts += [f"{name}^{e}"] if draw(st.booleans()) else [name] * e
    return (draw(_SPACE) + "*").join(parts)


@st.composite
def written_sums(draw, var):
    """(text, value) of a sum of products in dim 4, written as the printer
    never writes it: multi-monomial coefficients in parentheses, '-' chains,
    divisions by powers of var, r^a/b exponents, newlines and spaces.  The
    value is built from the same pieces with add, mul and scale."""
    log = "log(r^2 * M^2)" if var == "r" else "log( p^2/M^2 )"
    text, value = "", None
    for i in range(draw(st.integers(1, 3))):
        factors, c, e, k = [], Coefficient.rational(1), Fraction(0), 0
        for j in range(draw(st.integers(1, 4))):
            signs = draw(st.integers(0, 3))
            kind = draw(st.sampled_from(["coeff", "pow", "log"] + ["div"] * (j > 0)))
            if kind == "coeff":
                x = draw(coefficients().filter(lambda c: not c.is_zero()))
                body = ""
                for mono, q in x.terms:
                    body += (" - " if q < 0 else " + ") + draw(_monomial_text(mono, q))
                body = body[3:] if body.startswith(" + ") else "-" + body[3:]
                factors.append("-" * signs + f"({draw(_SPACE)}{body}{draw(_SPACE)})")
                c = c * x
            elif kind == "log":
                x = draw(st.integers(0, 3))
                factors.append("-" * signs + f"{log}^{x}")
                k += x
            else:
                x = draw(exponent_st)
                factors.append(("/" if kind == "div" else "") + "-" * signs + f"{var}^{x}")
                e += -x if kind == "div" else x
            c = c * (-1) ** signs
        body = factors[0]
        for f in factors[1:]:
            body += draw(_SPACE) + (f if f.startswith("/") else "*" + draw(_SPACE) + f)
        minus = draw(st.booleans())
        text += (("-" if minus else "") if i == 0 else (" - " if minus else " + ")) + body
        if var == "r":
            term = mul(position_term(4, 1, e), position_term(4, 1, 0, k))
        else:
            term = momentum_term(4, 1, e, k)
        term = scale(-c if minus else c, term)
        value = term if value is None else add(value, term)
    return text, value


class TestWrittenText:
    """The reader against algebra on text the printer never writes."""

    @settings(max_examples=80, deadline=None)
    @given(written_sums("r"))
    def test_position(self, case):
        text, value = case
        assert parse_position(text, 4) == value

    @settings(max_examples=80, deadline=None)
    @given(written_sums("p"))
    def test_momentum(self, case):
        text, value = case
        assert parse_momentum(text, 4) == value


def _normal_exponent(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@st.composite
def split_power_targets(draw):
    """(n, text) of a representable target, r^e times a log polynomial,
    with each power written as r^(h/2)*r^((2e-h)/2), h odd, so the parser
    sums two Fractions to an integral one."""
    n = draw(st.integers(3, 6))
    e = -n - draw(st.integers(0, 3))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        h = draw(st.integers(-9, 9).filter(lambda v: v % 2))
        c = draw(st.sampled_from(["1", "-3/2", "2*pi"]))
        k = draw(st.integers(0, 2))
        terms.append(f"{c}*r^{h}/2*r^{2 * e - h}/2*log(r^2*M^2)^{k}")
    return n, " + ".join(terms)


class TestExponentNormalForm:
    """Every exponent the exact layers produce is an int, or a Fraction with
    denominator > 1: never a float, never an integral Fraction."""

    @settings(max_examples=40, deadline=None)
    @given(split_power_targets(), st.integers(-9, 9).filter(lambda v: v % 2),
           st.integers(1, 3))
    def test_pipeline(self, case, h, m):
        n, text = case
        target = parse_position(text, n)
        rep = find_representation(target)
        F = fourier_formal(rep)
        se = surface_expansion(rep.L, rep.g)
        back = inverse_fourier_base(fourier_base(rep.g))
        assert back == rep.g
        # a half-integer seed carries Fraction exponents into the surface terms
        half = surface_expansion(DiffOperator.box(m), parse_position(f"r^{h}/2", n))
        exps = [t.rpow for f in (target, rep.g, back) for t in f.radial]
        exps += [t.ppow for t in F.terms]
        for s in (se, half):
            exps.append(s.remainder_eps_pow)
            for (eps_pow, _), v in s.entries:
                exps.append(eps_pow)
                exps += [t.ppow for t in v.terms]
        assert any(type(x) is Fraction for x in exps)
        bad = [x for x in exps if not _normal_exponent(x)]
        assert not bad, bad


SCHEMA = json.loads(
    files("diffreg.schemas").joinpath("report_schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in envelope")


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    # strict JSON (RFC 8259): no bare NaN or Infinity
    doc = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(doc, SCHEMA)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return code, doc


_LEAVES = st.one_of(
    st.text(),  # non-ASCII and control characters among them
    st.builds(cli._NonFinite, st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 1e308, -0.0, 1e-5, 0.1]),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)
_NUMBER_TEXT = st.none() | st.floats(allow_nan=False).map(lambda x: format(x, ".17g"))
_ENVELOPES = st.fixed_dictionaries(
    {"command": st.sampled_from(["", *cli._TABLE]),
     "version": st.text(max_size=8),
     "inputs": st.dictionaries(st.sampled_from(["command", "dim", "p", "fn", "eps", "mass"]),
                               _LEAVES, max_size=6),
     "symbolic": st.fixed_dictionaries({"text": st.text(), "terms": _VALUES}),
     "numeric_checks": st.lists(st.fixed_dictionaries(
         {"name": st.text(), "expected": _NUMBER_TEXT, "actual": _NUMBER_TEXT,
          "abs_err": _NUMBER_TEXT, "rel_err": _NUMBER_TEXT, "pass": st.booleans()}), max_size=3),
     "flags": st.lists(st.text(), max_size=2),
     "status": st.sampled_from(["ok", "error"])},
    optional={"error": st.fixed_dictionaries(
        {"code": st.sampled_from(["parse", "domain", "numeric", "usage"]), "message": st.text()},
        optional={"partial": _NUMBER_TEXT, "err_estimate": _NUMBER_TEXT})},
)


@settings(max_examples=300, deadline=None)
@given(_VALUES | _ENVELOPES)
def test_envelope_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


class TestCli:
    def test_apply(self, capsys):
        code, doc = run_json(capsys, "apply", "--op", "box", "--fn", "r^2", "--dim", "4")
        assert code == 0
        assert doc["symbolic"]["text"] == "8"
        assert doc["status"] == "ok"

    def test_regulate(self, capsys):
        code, doc = run_json(capsys, "regulate", "--target", "r^-4", "--dim", "4")
        assert code == 0
        assert doc["symbolic"]["terms"]["operator"] == "box"
        assert doc["symbolic"]["terms"]["seed"] == "-1/4*log(r^2*M^2)/r^2"
        assert doc["numeric_checks"][0]["pass"] is True

    def test_transform_with_oracle(self, capsys):
        code, doc = run_json(
            capsys, "transform", "--fn", "r^-2", "--at", "1", "--dim", "4"
        )
        assert code == 0
        check = doc["numeric_checks"][0]
        assert check["pass"] is True
        assert float(check["actual"]) == pytest.approx(4 * math.pi ** 2, rel=1e-12)

    def test_transform_of_representation(self, capsys):
        code, doc = run_json(
            capsys, "transform", "--rep-target", "r^-4", "--at", "1", "--dim", "4"
        )
        assert code == 0
        want = 2 * math.pi ** 2 * (math.log(2.0) - 0.5772156649015329)
        assert float(doc["numeric_checks"][0]["actual"]) == pytest.approx(want, rel=1e-12)

    def test_apply_high_box_power(self, capsys):
        # box^500 of r^-1 L^2 in dim 4: three terms at r^-1001, whose L^2
        # coefficient is c_500(-1) = prod_{i<500} (-1 - 2i)(1 - 2i); the
        # envelope is pinned whole by its digest
        code, doc = run_json(capsys, "apply", "--op=box^500",
                             "--fn=r^-1*log(r^2*M^2)^2", "--dim", "4")
        assert code == 0
        terms = doc["symbolic"]["terms"]
        assert [(t["rpow"], t["logpow"]) for t in terms] == [("-1001", 0), ("-1001", 1), ("-1001", 2)]
        assert terms[2]["coeff"] == str(math.prod((-1 - 2 * i) * (1 - 2 * i) for i in range(500)))
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == "493fe7782ab58a2bb80932cd098357c70768ba7dd9afec9ac88f97b14077cc45"

    def test_apply_box_power_past_the_printable(self, capsys):
        # box^2000 is computed, and its coefficients have more digits than
        # int-to-str conversion allows: the domain envelope, exit 2, with a
        # message that names the cause
        code, doc = run_json(capsys, "apply", "--op=box^2000",
                             "--fn=r^-1*log(r^2*M^2)^2", "--dim", "4")
        assert code == 2
        assert doc == {
            "command": "apply",
            "error": {"code": "domain", "message": (
                f"a coefficient has more than {sys.get_int_max_str_digits()} digits: "
                "too long to print")},
            "flags": [],
            "inputs": {"command": "apply", "dim": 4, "fn": "r^-1*log(r^2*M^2)^2",
                       "op": "box^2000"},
            "numeric_checks": [],
            "status": "error",
            "symbolic": {"terms": [], "text": ""},
            "version": "0.2.0",
        }

    def test_cs(self, capsys):
        code, doc = run_json(capsys, "cs", "--target", "r^-4", "--p", "1", "--dim", "4")
        assert code == 0
        assert doc["symbolic"]["text"] == "2*pi^2"
        assert doc["numeric_checks"][0]["pass"] is True

    def test_surface(self, capsys):
        code, doc = run_json(
            capsys, "surface", "--target", "r^-4", "--eps", "0.05", "--dim", "4"
        )
        assert code == 0
        assert "-2*pi^2" in doc["symbolic"]["terms"]["leading"]

    def test_verify(self, capsys):
        code, doc = run_json(
            capsys,
            "verify",
            "--target", "r^-4",
            "--p", "1",
            "--eps-grid", "0.2,0.1,0.05",
            "--dim", "4",
        )
        assert code == 0
        assert all(c["pass"] for c in doc["numeric_checks"])

    def test_audit(self, capsys):
        code, doc = run_json(
            capsys, "audit", "--a", "r^-2", "--b", "r^-2", "--p0", "1", "--dim", "4"
        )
        assert code == 0
        assert "residual" in doc["symbolic"]["terms"]
        assert doc["flags"]

    @pytest.mark.parametrize(
        "a, b, dim", [("r^-3/2", "r^-2", "4"), ("r^-1/3", "r^-1", "3")]
    )
    def test_audit_fractional_exponent(self, capsys, a, b, dim):
        code, doc = run_json(
            capsys, "audit", "--a", a, "--b", b, "--p0", "1", "--dim", dim
        )
        assert code == 0
        assert "numeric" in doc["symbolic"]["terms"]["route"]

    def test_audit_fractional_b(self, capsys):
        code, doc = run_json(
            capsys, "audit", "--a", "r^-2", "--b", "r^-3/2", "--p0", "1", "--dim", "4"
        )
        assert code == 0
        # pi^{n/2} 2^{n+a} Gamma((n+a)/2) / Gamma(-a/2) at n = 4, a = -3/2
        want = math.pi ** 2 * 2 ** 2.5 * math.gamma(1.25) / math.gamma(0.75)
        assert want == pytest.approx(41.2963837353358, rel=1e-14)
        got = float(doc["symbolic"]["terms"]["character_value"])
        assert got == pytest.approx(want, rel=1e-8)

    def test_audit_reports_the_oracle_estimate(self, capsys):
        # a fractional --b takes the numeric route and carries the oracle's
        # estimate; an audit on the exact and regulated routes has none
        code, doc = run_json(
            capsys, "audit", "--a", "r^-2", "--b", "r^-3/2", "--p0", "1", "--dim", "4"
        )
        assert code == 0
        assert "numeric" in doc["symbolic"]["terms"]["route"]
        assert float(doc["symbolic"]["terms"]["err_estimate"]) > 0.0
        code, doc = run_json(
            capsys, "audit", "--a", "r^-2", "--b", "r^-2", "--p0", "1", "--dim", "4"
        )
        assert code == 0
        assert doc["symbolic"]["terms"]["err_estimate"] == "0"

    def test_audit_with_no_route_names_the_term(self, capsys):
        # r^-9/2 * r^-1 = r^-11/2: fractional and below the window
        code, doc = run_json(capsys, "audit", "--a", "r^-9/2", "--b", "r^-1", "--p0", "1")
        assert code == 2
        message = doc["error"]["message"]
        assert "r^-11/2 in dim 4" in message
        assert "RadialTerm(" not in message

    def test_oracle(self, capsys):
        code, doc = run_json(capsys, "oracle", "--fn", "r^-2", "--p", "2", "--dim", "4")
        assert code == 0
        assert float(doc["symbolic"]["terms"]["value"]) == pytest.approx(
            math.pi ** 2, rel=1e-6
        )

    def test_oracle_truncated_steep_log_power(self, capsys):
        # fixed-node panels from eps = 1 overran the budget here (exit 3);
        # the reference is mpmath's -1.74508958774490360
        code, doc = run_json(capsys, "oracle", "--fn", "r^-6*log(r^2*M^2)^3", "--p", "0.01",
                             "--eps", "1", "--dim", "2", "--mass", "0.5")
        assert code == 0
        terms = doc["symbolic"]["terms"]
        assert abs(float(terms["value"]) + 1.74508958774490360) <= float(terms["err_estimate"])

    def test_json_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "transform", "--fn", "r^-2", "--at", "1", "--json")
        _, out2 = run_cli(capsys, "transform", "--fn", "r^-2", "--at", "1", "--json")
        assert out1 == out2

    def test_text_mode(self, capsys):
        code, out = run_cli(capsys, "apply", "--op", "box", "--fn", "r^2", "--text")
        assert code == 0
        assert "[apply] 8" in out

    def test_parse_error_exit_code(self, capsys):
        code, doc = run_json(capsys, "apply", "--op", "box", "--fn", "r^-2 + @")
        assert code == 2
        assert doc["status"] == "error"
        assert doc["error"]["code"] == "parse"

    def test_zero_denominator_gives_parse_envelope(self, capsys):
        code, doc = run_json(capsys, "regulate", "--target=1/0*r^-2", "--dim", "4")
        assert code == 2
        assert doc["error"] == {
            "code": "parse", "message": "division by zero (line 1, column 3)",
        }

    def test_long_literal_gives_parse_envelope(self, capsys):
        # the literal is refused at its own position, before int() sees it
        code, doc = run_json(capsys, "regulate", "--target=" + "1" * 5000 + "*r^-6",
                             "--dim", "4")
        assert code == 2
        assert doc["error"] == {
            "code": "parse", "message": "number longer than 1000 digits (line 1, column 1)",
        }

    def test_deep_nesting_gives_parse_envelope(self, capsys):
        # the recursive descent must not overflow the Python stack
        target = "(" * 400 + "r^-4" + ")" * 400
        code, doc = run_json(capsys, "regulate", f"--target={target}", "--dim", "4")
        assert code == 2
        assert doc["error"] == {
            "code": "parse",
            "message": "parentheses nested deeper than 100 (line 1, column 101)",
        }
        # long sign chains are read by a loop, not by recursion
        code, doc = run_json(capsys, "regulate", "--target=" + "-" * 2000 + "r^-4",
                             "--dim", "4")
        assert code == 0

    def test_domain_error_exit_code(self, capsys):
        # r^-2 is already Fourier-safe: regulating it is a domain error
        code, doc = run_json(capsys, "regulate", "--target", "r^-2")
        assert code == 2
        assert doc["error"]["code"] == "domain"

    @pytest.mark.parametrize(
        "argv",
        [
            ["regulate", "--target", "r^-4", "--dim", "0"],
            ["regulate", "--target", "r^-4", "--max-box", "0"],
            ["verify", "--target", "r^-4", "--p", "1", "--eps-grid", "0.2,abc"],
            ["audit", "--a", "r^-2", "--b", "r^-2", "--p0", "0"],
            ["oracle", "--fn", "r^-2", "--p", "nan"],
            ["oracle", "--fn", "r^-2", "--p", "inf"],
            ["transform", "--rep-target", "r^-4", "--at", "nan"],
            ["transform", "--fn", "r^-2", "--at", "1", "--tol", "nan"],
            ["oracle", "--fn", "r^-2", "--p", "1", "--eps=-inf"],
            ["cs", "--target", "r^-4", "--p", "1", "--mass", "inf"],
            ["audit", "--a", "r^-2", "--b", "r^-2", "--p0", "nan"],
            ["surface", "--target", "r^-4", "--eps", "nan"],
            ["surface", "--target", "r^-4", "--eps", "0.1", "--tol-defect", "inf"],
            ["verify", "--target", "r^-4", "--p", "1", "--eps-grid", "0.2,nan"],
            # far outside the documented p range the quadrature is not finite
            ["oracle", "--fn", "r^-2", "--p", "1e10", "--eps", "1e7"],
            # the closed form's (pi / p)^5 overflows a float
            ["oracle", "--fn", "r^-1", "--p", "1e-100", "--dim", "6"],
            # above the oracle's dims 2-10 (dim 12 exited 3 here, its
            # estimate 4.4e-5 over a budget of 1.8e-5)
            ["oracle", "--fn", "r^-10", "--p", "3", "--dim", "12"],
            # a negative tolerance gives a check that can never pass, or none
            ["surface", "--target", "r^-4", "--eps", "0.05", "--tol-defect", "-1"],
            ["transform", "--fn", "r^-2", "--at", "1", "--tol", "-1"],
            # the value's p^6 leaves the floats
            ["transform", "--rep-target", "r^-6", "--at", "1e200"],
            ["cs", "--target", "r^-6", "--p", "1e200"],
        ],
        ids=["dim0", "max_box0", "eps_grid", "p0_zero", "p_nan", "p_inf",
             "at_nan", "tol_nan", "eps_minus_inf", "mass_inf", "p0_nan", "eps_nan",
             "tol_defect_inf", "eps_grid_nan", "p_out_of_range", "p_overflow",
             "dim_above_range", "tol_defect_negative", "tol_negative",
             "at_overflow", "cs_p_overflow"],
    )
    def test_bad_input_gives_domain_envelope(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["status"] == "error"
        assert doc["error"]["code"] == "domain"

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--fn", "r^-2", "--at", "1", "--mass", "1e-200"],
            ["transform", "--rep-target", "r^-4", "--at", "1e200"],
            ["cs", "--target", "r^-4", "--p", "1e300"],
            ["surface", "--target", "r^-4", "--eps", "1e-150", "--mass", "1e-200"],
        ],
        ids=["tiny_mass", "far_at", "far_p", "tiny_eps_mass"],
    )
    def test_far_scales_give_finite_values(self, capsys, argv):
        # the log of p^2/M^2 is taken as 2 (log p - log M), and log(eps M)
        # as log eps + log M, so no square or product leaves the floats
        # first
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["numeric_checks"]
        for check in doc["numeric_checks"]:
            assert math.isfinite(float(check["actual"]))

    def test_far_at_matches_log_shift(self, capsys):
        # F(p) = F(1) - 2 pi^2 ln p^2 / 2 for the transform of r^-4 in 4 dims
        _, near = run_json(capsys, "transform", "--rep-target", "r^-4", "--at", "1")
        _, far = run_json(capsys, "transform", "--rep-target", "r^-4", "--at", "1e200")
        f1 = float(near["numeric_checks"][0]["actual"])
        expected = f1 - 2 * math.pi ** 2 * math.log(1e200)
        assert float(far["numeric_checks"][0]["actual"]) == pytest.approx(expected, rel=1e-12)

    def test_reused_parser_matches_fresh_parser(self, capsys):
        # main reads every command line against one option table; no read
        # may leak into the next, so a second pass gives the same outputs
        runs = [
            ["transform", "--rep-target", "r^-4", "--at", "1", "--json"],
            ["transform", "--fn", "r^-2", "--dim", "3", "--json"],
            ["regulate", "--target", "r^-6", "--max-box", "2", "--json"],
            ["oracle", "--fn", "r^-2", "--p", "nan", "--json"],
            ["regulate", "--json"],  # missing --target: usage error
            ["cs", "--target", "r^-4", "--p", "2", "--text"],
        ]

        def run(argv):
            code = main(argv)
            cap = capsys.readouterr()
            return code, cap.out, cap.err

        fresh = [run(argv) for argv in runs]
        reused = [run(argv) for argv in runs]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2, 0]

    def test_convergence_failure_keeps_partial(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("budget exceeded", partial=0.125, err_estimate=3e-7)

        monkeypatch.setattr(cli, "hankel_numeric", fail)
        code, doc = run_json(capsys, "oracle", "--fn", "r^-2", "--p", "1")
        assert code == 3
        assert doc["error"] == {
            "code": "numeric",
            "message": "budget exceeded",
            "partial": "0.125",
            "err_estimate": "2.9999999999999999e-07",
        }
        code, out = run_cli(capsys, "oracle", "--fn", "r^-2", "--p", "1", "--text")
        assert code == 3
        assert "partial=0.125 err_estimate=2.9999999999999999e-07" in out

    def test_convergence_failure_without_partial(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("damped tail failed to decay")

        monkeypatch.setattr(cli, "truncated_ft_numeric", fail)
        code, doc = run_json(capsys, "surface", "--target", "r^-4", "--eps", "0.1")
        assert code == 3
        assert doc["error"]["partial"] is None
        assert doc["error"]["err_estimate"] is None

    def test_usage_error_exit_code(self, capsys):
        assert main(["regulate"]) == 2

    def test_config_flag_is_usage_error(self, capsys):
        # the oracle's settings are constants: there is no config file
        assert main(["oracle", "--fn", "r^-2", "--p", "1", "--config", "numeric.cfg"]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    VALID = {
        "apply": ["--op", "box", "--fn", "r^2"],
        "regulate": ["--target", "r^-4"],
        "surface": ["--target", "r^-4", "--eps", "0.1"],
        "verify": ["--target", "r^-4", "--p", "1", "--eps-grid", "0.1"],
        "audit": ["--a", "r^-2", "--b", "r^-2", "--p0", "1"],
        "oracle": ["--fn", "r^-2", "--p", "1"],
    }

    @pytest.mark.parametrize(
        "command, option",
        [("surface", "--order"), ("verify", "--order"), ("apply", "--mass"),
         ("regulate", "--mass")]
        + [(c, "--tol") for c in ("apply", "regulate", "surface", "verify", "audit", "oracle")],
    )
    def test_unread_option_is_usage_error(self, capsys, command, option):
        # a subcommand takes only the options it reads: the surface series
        # order follows from the seed and the operator, and only transform
        # and cs check against --tol
        assert main([command, *self.VALID[command], option, "1"]) == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    # (argv, phrase of the message): each names what is wrong
    USAGE = [
        (["regulate", "--target", "r^-4", "--text"],
         "argument --json: not allowed with argument --text"),
        (["transform", "--fn", "r^-2", "--rep-target", "r^-4"],
         "argument --rep-target: not allowed with argument --fn"),
        (["transform", "--at", "1"], "one of the arguments --fn --rep-target is required"),
        (["surface", "--target", "r^-4"], "the following arguments are required: --eps"),
        (["audit", "--a", "r^-2"], "the following arguments are required: --b, --p0"),
        (["regulate", "--target", "r^-4", "--max", "2"], "unrecognized arguments: --max"),
        (["regulate", "--target=r^-4", "--max-box=2", "--di=3"], "unrecognized arguments: --di=3"),
        (["frobnicate", "--fn", "r^-2"], "invalid subcommand 'frobnicate'"),
        ([], "no subcommand (choose from apply, regulate,"),
        (["regulate", "--target", "r^-4", "--dim", "four"], "--dim: invalid integer 'four'"),
        (["regulate", "--target", "r^-4", "--max-box=2.5"], "--max-box: invalid integer '2.5'"),
        (["oracle", "--fn", "r^-2", "--p", "x"], "--p: invalid number 'x'"),
        (["transform", "--fn", "r^-2", "--at=1e"], "--at: invalid number '1e'"),
        (["oracle", "--fn", "r^-2", "--p"], "argument --p: expected one argument"),
        (["oracle", "--fn", "--p", "1"], "argument --fn: expected one argument"),
        (["regulate", "--target", "r^-4", "--text=yes"],
         "argument --text: ignored explicit argument 'yes'"),
    ]

    @pytest.mark.parametrize("argv, message", USAGE)
    def test_usage_error_gives_usage_envelope(self, capsys, argv, message):
        code = main([*argv, "--json"])
        cap = capsys.readouterr()
        doc = json.loads(cap.out)
        jsonschema.validate(doc, SCHEMA)
        assert code == 2 and cap.err == ""
        assert doc["status"] == "error"
        assert doc["error"]["code"] == "usage"
        assert message in doc["error"]["message"]
        assert "_finite_float" not in doc["error"]["message"]

    @pytest.mark.parametrize("argv, message", [case for case in USAGE if "--text" not in case[0]])
    def test_usage_error_text_goes_to_stderr(self, capsys, argv, message):
        code = main(argv)
        cap = capsys.readouterr()
        assert code == 2 and cap.out == ""
        usage, error = cap.err.splitlines()
        assert usage.startswith("usage: diffreg ")
        assert error.startswith("diffreg") and message in error.split(": error: ")[1]

    def test_option_values(self, capsys):
        # --opt value and --opt=value read alike, the last repeat wins, and
        # a value may begin with a single "-"
        spaced = run_json(capsys, "oracle", "--fn", "r^-1", "--fn", "r^-2", "--p", "0.5",
                          "--mass", "1", "--dim", "3", "--p", "2")
        joined = run_json(capsys, "oracle", "--fn=r^-2", "--p=2", "--dim=3")
        assert spaced == joined
        assert spaced[1]["inputs"] == {"command": "oracle", "dim": 3, "fn": "r^-2",
                                       "mass": 1.0, "p": 2.0}
        code, doc = run_json(capsys, "transform", "--fn", "r^-2", "--at", "1", "--tol", "-1")
        assert (code, doc["error"]["code"]) == (2, "domain")
        code, doc = run_json(capsys, "oracle", "--fn", "r^-2", "--p", "1", "--eps", "-inf")
        assert doc["inputs"]["eps"] == "-inf"
        assert (code, doc["error"]["code"]) == (2, "domain")

    @pytest.mark.parametrize("command", [None, *cli._TABLE])
    def test_help(self, capsys, command):
        for flag in ("-h", "--help"):
            argv = [flag] if command is None else [command, "--json", flag]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: diffreg ")
            names = list(cli._TABLE) if command is None else list(cli._TABLE[command][2])
            assert all(name in out for name in names)

    def test_closed_stdout_is_quiet(self, capsys):
        # a reader that closes the pipe before the envelope is written: no
        # traceback, and the command's own exit code
        argv = ["verify", "--target", "r^-4", "--p", "1", "--eps-grid", "0.1,0.05", "--json"]
        code = main(argv)
        capsys.readouterr()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "diffreg.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, "")

    @pytest.mark.parametrize("argv", [["surface", "--eps", "0.1"],
                                      ["verify", "--p", "1", "--eps-grid", "0.2,0.1"]])
    def test_oracle_refuses_before_exact_work(self, capsys, monkeypatch, argv):
        # far outside the oracle's range: the exit-2 envelope comes before
        # the search and the surface table of box^501 are built
        def never(*args, **kwargs):
            raise AssertionError("exact work before the oracle")

        monkeypatch.setattr(cli, "find_representation", never)
        monkeypatch.setattr(cli, "surface_expansion", never)
        code, doc = run_json(capsys, *argv, "--target=r^-1004*log(r^2*M^2)",
                             "--max-box", "600", "--dim", "4")
        assert code == 2
        assert doc["error"]["code"] == "domain"
        assert doc["symbolic"] == {"terms": [], "text": ""}

    def test_resonance_flag_surfaces(self, capsys):
        code, doc = run_json(
            capsys, "apply", "--op", "box", "--fn", "log(r^2*M^2)/r^2", "--dim", "4"
        )
        assert code == 0
        assert any("distributional" in fl for fl in doc["flags"])



# -- the envelope contract over the option table --------------------------

_TYPICAL_FLOATS = st.sampled_from(["1", "3.5", "0.05", "0.2", "2", "1e-3", "1e2"])
_FLOAT_TEXTS = st.one_of(
    _TYPICAL_FLOATS, _TYPICAL_FLOATS,
    st.sampled_from(["-0", "0", "5e-324", "1e308", "-1e308", "1e-300", "-1", "-3.5"]),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "x", "", "1/2", "--p"]),
    st.floats().map(repr),
)
_TERM_TEXTS = st.sampled_from(
    ["r^-4", "r^-2", "r^-1", "r^2", "r^0", "1/r^3", "r^-3/2", "delta", "box delta",
     "log(r^2*M^2)/r^4", "-1/4*log(r^2*M^2)/r^2", "pi*r^-6*log(r^2*M^2)^2",
     "r^-10*log(r^2*M^2)^3", "gammaE*r^-5 + ln2*r^-7", "r^-4*log(r^2*M^2)^4",
     "r^-60", "zeta3/r^8", "2*delta + r^-2", "r^-5 - 3*r^-6*log(r^2*M^2)"])
_BROKEN_TEXTS = st.sampled_from(
    ["", "r^", "r^-4)", "((r", "1/0", "r^-4 +", "log(r^2)", "r^x", "r^-4*delta", "@",
     "p^-2", "box", "r^-4 r^-2", "1" * 400, "(" * 300 + "r" + ")" * 300])
# box powers stay at most 2000: the coefficients of box^m r^s grow to about
# 2m log10(2m) digits, and box_derivatives builds them one factor at a time
_OP_TEXTS = st.sampled_from(
    ["box", "box^2", "box^3 + 2*box", "1", "0", "pi*box^4 - 1", "box^500", "box^2000",
     "box^-1", "box^", "r^-2", ""])
_DIM_TEXTS = st.one_of(
    st.sampled_from(["2", "3", "4", "6"]), st.integers(0, 12).map(str),
    st.sampled_from(["four", "", "1e5", "-0", "4.0"]),
)


def _option_text(name, kind):
    if name == "--op":
        return _OP_TEXTS
    if name == "--eps-grid":
        return st.lists(_FLOAT_TEXTS, max_size=3).map(",".join)
    if name == "--max-box":
        return st.integers(-1, 10**5).map(str) | _DIM_TEXTS
    if kind is int:
        return _DIM_TEXTS
    if kind is str:
        return _TERM_TEXTS | _TERM_TEXTS | _BROKEN_TEXTS
    return _FLOAT_TEXTS


@st.composite
def command_lines(draw):
    """An argv read from cli._TABLE: each option of a subcommand, required
    or not, given or left out, with extreme number texts, dims 0-12,
    --max-box up to 1e5 and well-formed or broken term texts; sometimes an
    unknown option, a missing value or --text beside --json."""
    command = draw(st.sampled_from(sorted(cli._TABLE)))
    argv = [command]
    for name, (kind, default) in cli._TABLE[command][2].items():
        given_p = 0.95 if default is cli._REQUIRED else 0.4
        if draw(st.floats(0, 1)) < given_p:
            value = draw(_option_text(name, kind))
            argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    if draw(st.floats(0, 1)) < 0.1:
        argv.append(draw(st.sampled_from(["--text", "--bogus", "--dim", "--p=1", "-x"])))
    return argv


class TestEnvelopeContract:
    """Every command line gives exactly one schema-valid envelope and an
    exit code 0-3, and raises nothing."""

    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    def test_every_command_line_gives_one_envelope(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--json"])
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(doc, SCHEMA)
        assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert err.getvalue() == ""
        assert code in (0, 1, 2, 3)
        # exit 1 is a failed numeric check, whose envelope reads "error"
        assert (doc["status"] == "ok") == (code == 0)
        assert (code == 1) == (doc["status"] == "error" and "error" not in doc)
        assert ("error" in doc) == (code in (2, 3))

    @pytest.mark.parametrize(
        "argv, error",
        [
            # a coefficient past the floats reached the oracle unguarded
            (["oracle", "--fn", "1" * 400, "--p", "1", "--dim", "3"], "domain"),
            (["surface", "--target", "1" * 400, "--eps", "2"], "domain"),
            # an empty --rep-target was read as no --rep-target
            (["transform", "--rep-target", "", "--max-box", "5"], "parse"),
        ],
        ids=["oracle_huge_coefficient", "surface_huge_coefficient", "empty_rep_target"],
    )
    def test_found_command_lines(self, capsys, argv, error):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and doc["error"]["code"] == error

# run in a fresh interpreter started with -S, so that no module imported by
# site hides one the package imports: reports which of numpy, scipy,
# dataclasses, inspect, typing, argparse and gettext are loaded after the
# imports and after each subcommand, with its exit code and envelope
_LOAD_PROBE = """
import contextlib, io, json, sys
import diffreg, diffreg.cli

def loaded():
    return [m for m in ("numpy", "scipy", "dataclasses", "inspect", "typing", "argparse",
                        "gettext") if m in sys.modules]

out = {"import": loaded(), "runs": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = diffreg.cli.main([*argv, "--json"])
    out["runs"].append([code, json.loads(buf.getvalue()), loaded()])
print(json.dumps(out))
"""


class TestRuntimeImports:
    RUNS = [
        ["apply", "--op", "box", "--fn", "r^2"],
        ["regulate", "--target", "r^-4"],
        ["cs", "--target", "r^-4", "--p", "1"],
        ["transform", "--rep-target", "r^-4", "--at", "1"],
        ["transform", "--fn", "r^-2"],
        ["audit", "--a", "r^-2", "--b", "r^-2", "--p0", "1"],
        ["oracle", "--fn", "r^-2", "--p", "2"],
        ["surface", "--target", "r^-4", "--eps", "0.05"],
        ["verify", "--target", "r^-4", "--p", "1", "--eps-grid", "0.2,0.1,0.05"],
        ["transform", "--fn", "r^-2", "--at", "1"],
        ["audit", "--a", "r^-2", "--b", "r^-3/2", "--p0", "1", "--dim", "4"],
    ]

    @pytest.fixture(scope="class")
    def probe(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _LOAD_PROBE, json.dumps(self.RUNS)],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout)

    def loaded(self, probe, names):
        """The modules of names loaded after the imports, then after each run."""
        steps = [probe["import"]] + [mods for _, _, mods in probe["runs"]]
        return [[m for m in mods if m in names] for mods in steps]

    def test_no_subcommand_loads_numpy_or_scipy(self, probe, capsys):
        # the oracle runs on the standard library, so no subcommand loads
        # numpy or scipy: neither the exact ones nor those that run
        # quadrature, nor an audit whose terms take the numeric route
        assert self.loaded(probe, ("numpy", "scipy")) == [[]] * (len(self.RUNS) + 1)
        assert [code for code, _, _ in probe["runs"]] == [0] * len(self.RUNS)
        routes = [doc["symbolic"]["terms"]["route"] for _, doc, _ in probe["runs"]
                  if doc["command"] == "audit"]
        assert "numeric" not in routes[0] and "numeric" in routes[1]
        # a fresh process gives the same envelope as a warm one
        doc = probe["runs"][self.RUNS.index(["oracle", "--fn", "r^-2", "--p", "2"])][1]
        assert doc == run_json(capsys, "oracle", "--fn", "r^-2", "--p", "2")[1]

    def test_no_subcommand_loads_dataclasses_inspect_or_typing(self, probe):
        # the values are __slots__ records and the annotations use builtin
        # generics, so neither the import nor any subcommand loads these
        assert self.loaded(probe, ("dataclasses", "inspect", "typing")) == (
            [[]] * (len(self.RUNS) + 1))

    def test_no_subcommand_loads_argparse_or_gettext(self, probe):
        # the option table is read by cli's own reader
        assert self.loaded(probe, ("argparse", "gettext")) == [[]] * (len(self.RUNS) + 1)


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    """The README's tours run as written, so no removed option or name can
    linger there."""

    def blocks(self, lang):
        return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)

    def test_python_tour(self, capsys):
        (tour,) = self.blocks("python")
        ns = {}
        exec(compile(tour, str(README), "exec"), ns)
        assert ns["lead"].log_pow == 1

    def test_option_table(self):
        # the README's option table is the CLI's: every option of each
        # subcommand but --dim, its default, and transform's --fn or
        # --rep-target
        text = README.read_text()
        block = text.split("| subcommand | options (default) |\n| --- | --- |\n")[1]
        readme = {}
        for row in block.split("\n\n")[0].splitlines():
            command, cell = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
            readme[command] = {}
            for item in cell.split(", "):
                default = re.search(r"\((.+)\)$", item)
                name = " or ".join(re.findall(r"`(--[\w-]+)`", item))
                readme[command][name] = float(default.group(1)) if default else None
        table = {}
        for command, (_, _, options) in cli._TABLE.items():
            pair = cli._ONE_OF.get(command, ())
            table[command] = {}
            for name, (_, default) in options.items():
                if name != "--dim":
                    name = " or ".join(pair) if name in pair else name
                    table[command][name] = None if default is cli._REQUIRED else default
        assert readme == table
        dim = re.search(r"All take `--dim`\s+\(default (\d+)\)", text).group(1)
        assert all(options["--dim"] == (int, int(dim)) for _, _, options in cli._TABLE.values())

    def tour(self):
        """The argv of each command of the README's CLI tour."""
        lines = [line for block in self.blocks("sh") for line in block.splitlines()
                 if line.startswith("diffreg ")]
        return [shlex.split(line, comments=True)[1:] for line in lines]

    def test_cli_tour(self, capsys):
        assert len(self.tour()) == 7
        for argv in self.tour():
            code, doc = run_json(capsys, *argv)
            assert (code, doc["status"]) == (0, "ok"), argv

    def test_cli_tour_reads_no_coefficient_terms(self, capsys, monkeypatch):
        # Coefficient.terms is the documented record field, a view of the
        # ints that its __getattr__ builds on first read; the tour's
        # arithmetic, hashes and printing read only the ints.  Every read is
        # counted, and a fill is a read of an empty slot, so a slot that an
        # earlier test filled cannot hide one
        reads = []
        slot = Coefficient.terms

        def read(c):
            reads.append(c)
            return slot.__get__(c, Coefficient)

        monkeypatch.setattr(Coefficient, "terms", property(read))
        assert (3 * PI).terms == (((1, 0, 0, 0), 3),) and len(reads) == 1
        reads.clear()
        for argv in self.tour():
            assert run_json(capsys, *argv)[0] == 0, argv
            assert reads == [], argv
