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
    delta_term,
    position_term,
)
from diffreg import cli
from diffreg.cli import build_parser, main
from diffreg.coeffs import Coefficient, GAMMA_E, LN2, PI
from diffreg.errors import ConvergenceError, ParseError
from diffreg.operators import DiffOperator
from diffreg.parser import parse_momentum, parse_operator, parse_position
from diffreg.printer import format_momentum, format_operator, format_position

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
     "Fraction(1440, 1)),)), rpow=Fraction(-10, 1), logpow=0),), local=(), flags=())"),
    ("position", "3/r^2",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(3, 1)),)), rpow=Fraction(-2, 1), logpow=0),), local=(), flags=())"),
    ("position", "-(r^-2 - 2*r^-4)",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(2, 1)),)), rpow=Fraction(-4, 1), logpow=0), RadialTerm(coeff=Coefficient("
     "terms=(((0, 0, 0, 0), Fraction(-1, 1)),)), rpow=Fraction(-2, 1), logpow=0)), local=(), "
     "flags=())"),
    ("position", "(box + 2)*r^-2",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(2, 1)),)), rpow=Fraction(-2, 1), logpow=0),), local=(LocalTerm(coeff="
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
     "Fraction(1, 2)),)), rpow=Fraction(0, 1), logpow=0),), local=(), flags=())"),
    ("momentum", "-4*pi^2*log(p^2/M^2)/p^2",
     "MomentumFunction(dim=4, terms=(MomentumTerm(coeff=Coefficient(terms=(((2, 0, 0, 0), "
     "Fraction(-4, 1)),)), ppow=Fraction(-2, 1), logpow=1),), local_poly=(), flags=())"),
    ("position", "r^-4\n  - 1/4*log(r^2*M^2)/r^2",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(1, 1)),)), rpow=Fraction(-4, 1), logpow=0), RadialTerm(coeff=Coefficient("
     "terms=(((0, 0, 0, 0), Fraction(-1, 4)),)), rpow=Fraction(-2, 1), logpow=1)), local=(), "
     "flags=())"),
    ("position", "-box*(r^-2*log(r^2*M^2))",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(4, 1)),)), rpow=Fraction(-4, 1), logpow=0),), local=(), "
     "flags=('distributional part undetermined',))"),
    ("position", "r^-6 + box*(r^-2*log(r^2*M^2))",
     "PositionFunction(dim=4, radial=(RadialTerm(coeff=Coefficient(terms=(((0, 0, 0, 0), "
     "Fraction(1, 1)),)), rpow=Fraction(-6, 1), logpow=0), RadialTerm(coeff=Coefficient("
     "terms=(((0, 0, 0, 0), Fraction(-4, 1)),)), rpow=Fraction(-4, 1), logpow=0)), local=(), "
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
# them before it built each value once.  The first four are the tour's
# malformations of a target.
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

    def test_fixture_text(self):
        f = position_term(4, Fraction(-1, 4), Fraction(-2), 1)
        assert format_position(f) == "-1/4*log(r^2*M^2)/r^2"

    def test_delta_text(self):
        f = delta_term(4, Fraction(3, 2), boxpow=1)
        assert format_position(f) == "3/2*box*delta"
        assert parse_position("3/2*box*delta", 4) == f


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
        ],
        ids=["dim0", "max_box0", "eps_grid", "p0_zero", "p_nan", "p_inf",
             "at_nan", "tol_nan", "eps_minus_inf", "mass_inf", "p0_nan", "eps_nan",
             "tol_defect_inf", "eps_grid_nan", "p_out_of_range", "p_overflow"],
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
