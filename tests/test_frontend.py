import hashlib
import json
import math
import os
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
from diffreg.cli import build_parser, main
from diffreg.coeffs import Coefficient, GAMMA_E, LN2, PI
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
    return code, doc


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
        assert digest == "0041eea017c2979df55c1eeb2a17d011a01be6df5034522a7df915c48170e82b"

    def test_apply_box_power_past_the_printable(self, capsys):
        # box^2000 is computed, and its coefficients have more digits than
        # int-to-str conversion allows: the domain envelope, exit 2
        code, doc = run_json(capsys, "apply", "--op=box^2000",
                             "--fn=r^-1*log(r^2*M^2)^2", "--dim", "4")
        assert code == 2
        assert doc == {
            "command": "apply",
            "error": {"code": "domain", "message": (
                "Exceeds the limit (4300 digits) for integer string conversion; "
                "use sys.set_int_max_str_digits() to increase the limit")},
            "flags": [],
            "inputs": {"command": "apply", "dim": 4, "fn": "r^-1*log(r^2*M^2)^2",
                       "mass": 1.0, "op": "box^2000", "tol": 1e-05},
            "numeric_checks": [],
            "status": "error",
            "symbolic": {"terms": [], "text": ""},
            "version": "0.1.0",
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
            ["oracle", "--fn", "r^-2", "--p", "1", "--tol", "nan"],
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
        ],
        ids=["dim0", "max_box0", "eps_grid", "p0_zero", "p_nan", "p_inf",
             "at_nan", "tol_nan", "eps_minus_inf", "mass_inf", "p0_nan", "eps_nan",
             "tol_defect_inf", "eps_grid_nan", "p_out_of_range", "p_overflow",
             "dim_above_range", "tol_defect_negative", "tol_negative"],
    )
    def test_bad_input_gives_domain_envelope(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["status"] == "error"
        assert doc["error"]["code"] == "domain"

    def test_reused_parser_matches_fresh_parser(self, capsys):
        # main reuses one parser per process; no parse may leak into the next
        runs = [
            ["transform", "--rep-target", "r^-4", "--at", "1", "--json"],
            ["transform", "--fn", "r^-2", "--dim", "3", "--json"],
            ["regulate", "--target", "r^-6", "--max-box", "2", "--json"],
            ["oracle", "--fn", "r^-2", "--p", "nan", "--json"],
            ["regulate", "--json"],  # missing --target: argparse usage error
            ["cs", "--target", "r^-4", "--p", "2", "--text"],
        ]

        def run(argv):
            code = main(argv)
            cap = capsys.readouterr()
            return code, cap.out, cap.err

        reused = [run(argv) for argv in runs]
        fresh = []
        for argv in runs:
            build_parser.cache_clear()
            fresh.append(run(argv))
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

    def test_resonance_flag_surfaces(self, capsys):
        code, doc = run_json(
            capsys, "apply", "--op", "box", "--fn", "log(r^2*M^2)/r^2", "--dim", "4"
        )
        assert code == 0
        assert any("distributional" in fl for fl in doc["flags"])


# run in a fresh interpreter: reports which of numpy, scipy and
# scipy.integrate are loaded after the imports, after exact-only subcommands
# and after the oracle
_LOAD_PROBE = """
import contextlib, io, json, sys
import diffreg, diffreg.cli

def loaded():
    return [m for m in ("numpy", "scipy", "scipy.integrate") if m in sys.modules]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = diffreg.cli.main([*argv, "--json"])
    return code, buf.getvalue()

out = {"import": loaded(), "exact": []}
for argv in json.loads(sys.argv[1]):
    code, env = run(*argv)
    out["exact"].append([argv[0], code, json.loads(env)["symbolic"]["text"]])
out["after_exact"] = loaded()
out["oracle"] = run("oracle", "--fn", "r^-2", "--p", "2")
out["after_oracle"] = loaded()
print(json.dumps(out))
"""


class TestDeferredLoad:
    EXACT_RUNS = [
        ["apply", "--op", "box", "--fn", "r^2"],
        ["regulate", "--target", "r^-4"],
        ["cs", "--target", "r^-4", "--p", "1"],
        ["transform", "--rep-target", "r^-4", "--at", "1"],
        ["transform", "--fn", "r^-2"],
        ["audit", "--a", "r^-2", "--b", "r^-2", "--p0", "1"],
    ]

    def test_exact_subcommands_leave_numpy_and_scipy_unloaded(self, capsys):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _LOAD_PROBE, json.dumps(self.EXACT_RUNS)],
            env=env, capture_output=True, text=True, check=True,
        )
        out = json.loads(proc.stdout)
        assert out["import"] == []
        assert [code for _, code, _ in out["exact"]] == [0] * len(self.EXACT_RUNS)
        # the audit took the exact and regulated routes, no quadrature
        assert "numeric" not in out["exact"][-1][2]
        assert out["after_exact"] == []
        # the oracle needs numpy and scipy.special, no adaptive quadrature
        assert out["after_oracle"] == ["numpy", "scipy"]
        assert "scipy.integrate" not in out["after_oracle"]
        # loading on the first call gives the same envelope as a warm process
        code, text = out["oracle"]
        assert code == 0
        assert text == run_cli(capsys, "oracle", "--fn", "r^-2", "--p", "2", "--json")[1]
