import json
import math
from fractions import Fraction
from importlib.resources import files

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
from diffreg.cli import CONFIG_ENV_VAR, load_config, main
from diffreg.coeffs import Coefficient, GAMMA_E, LN2, PI
from diffreg.errors import ParseError
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

    def test_oracle(self, capsys):
        code, doc = run_json(capsys, "oracle", "--fn", "r^-2", "--p", "2", "--dim", "4")
        assert code == 0
        assert float(doc["symbolic"]["terms"]["value"]) == pytest.approx(
            math.pi ** 2, rel=1e-6
        )

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

    def test_domain_error_exit_code(self, capsys):
        # r^-2 is already Fourier-safe: regulating it is a domain error
        code, doc = run_json(capsys, "regulate", "--target", "r^-2")
        assert code == 2
        assert doc["error"]["code"] == "domain"

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["regulate", "--target", "r^-4", "--dim", "0"], None),
            (["regulate", "--target", "r^-4", "--max-box", "0"], None),
            (["verify", "--target", "r^-4", "--p", "1", "--eps-grid", "0.2,abc"], None),
            (["audit", "--a", "r^-2", "--b", "r^-2", "--p0", "0"], None),
            (["oracle", "--fn", "r^-2", "--p", "nan"], None),
            (["oracle", "--fn", "r^-2", "--p", "inf"], None),
            (["oracle", "--fn", "r^-2", "--p", "1"], "rel_tol = tight\n"),
            (["transform", "--rep-target", "r^-4", "--at", "nan"], None),
            (["oracle", "--fn", "r^-2", "--p", "1", "--tol", "nan"], None),
            (["oracle", "--fn", "r^-2", "--p", "1", "--eps=-inf"], None),
            (["cs", "--target", "r^-4", "--p", "1", "--mass", "inf"], None),
            (["audit", "--a", "r^-2", "--b", "r^-2", "--p0", "nan"], None),
            (["surface", "--target", "r^-4", "--eps", "nan"], None),
            (["surface", "--target", "r^-4", "--eps", "0.1", "--tol-defect", "inf"], None),
            (["verify", "--target", "r^-4", "--p", "1", "--eps-grid", "0.2,nan"], None),
        ],
        ids=["dim0", "max_box0", "eps_grid", "p0_zero", "p_nan", "p_inf", "config_value",
             "at_nan", "tol_nan", "eps_minus_inf", "mass_inf", "p0_nan", "eps_nan",
             "tol_defect_inf", "eps_grid_nan"],
    )
    def test_bad_input_gives_domain_envelope(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "numeric.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["status"] == "error"
        assert doc["error"]["code"] == "domain"

    def test_usage_error_exit_code(self, capsys):
        assert main(["regulate"]) == 2

    def test_resonance_flag_surfaces(self, capsys):
        code, doc = run_json(
            capsys, "apply", "--op", "box", "--fn", "log(r^2*M^2)/r^2", "--dim", "4"
        )
        assert code == 0
        assert any("distributional" in fl for fl in doc["flags"])


class TestConfig:
    def test_default(self):
        cfg = load_config(None)
        assert cfg.rel_tol == 1e-8

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "numeric.cfg"
        path.write_text(
            "rel_tol = 1e-6\n"
            "tail_cross_check = yes  # check the series tail\n"
            "dampings = 0.02,0.01,0.005\n"
        )
        cfg = load_config(str(path))
        assert cfg.rel_tol == 1e-6
        assert cfg.tail_cross_check is True
        assert cfg.dampings == (0.02, 0.01, 0.005)

    def test_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "numeric.cfg"
        path.write_text("max_depth = 17\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert load_config().max_depth == 17

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "numeric.cfg"
        path.write_text("wibble = 3\n")
        from diffreg.errors import DiffRegError

        with pytest.raises(DiffRegError):
            load_config(str(path))

    def test_removed_tail_method_key(self, capsys, tmp_path):
        # the tail regulator follows the input type; the old key is unknown
        path = tmp_path / "numeric.cfg"
        path.write_text("tail_method = asymptotic-series\n")
        code, doc = run_json(
            capsys, "oracle", "--fn", "r^-2", "--p", "1", "--config", str(path)
        )
        assert code == 2
        assert doc["error"]["code"] == "domain"
        assert "unknown config key" in doc["error"]["message"]

    def test_cli_uses_config(self, capsys, tmp_path):
        path = tmp_path / "numeric.cfg"
        path.write_text("tail_cross_check = yes\n")
        code, out = run_cli(
            capsys, "oracle", "--fn", "r^-2", "--p", "1", "--config", str(path), "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert float(doc["symbolic"]["terms"]["value"]) == pytest.approx(
            4 * math.pi ** 2, rel=1e-9
        )
