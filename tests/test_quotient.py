import math
from fractions import Fraction

import pytest

from diffreg.algebra import (
    PositionFunction,
    add,
    eval_momentum,
    position_term,
    scale,
)
from diffreg.errors import DiffRegError, EvaluationError
from diffreg.fourier import fourier_base
from diffreg.quotient import (
    AuditReport,
    Character,
    IdealElement,
    character_eval,
    diagram_audit,
    transform_value,
)


class TestCharacter:
    def test_value_on_r_minus_2(self):
        for p0 in (0.5, 1.0, 3.14):
            ch = Character(p0, 4)
            got = character_eval(position_term(4, 1, Fraction(-2)), ch)
            assert got == pytest.approx(4.0 * math.pi ** 2 / p0 ** 2, rel=1e-14)

    def test_linearity(self):
        ch = Character(1.0, 4)
        f = position_term(4, 1, Fraction(-2))
        g = position_term(4, 1, Fraction(-1), 1)
        lhs = character_eval(add(scale(3, f), scale(Fraction(-1, 2), g)), ch)
        rhs = 3.0 * character_eval(f, ch) - 0.5 * character_eval(g, ch)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_unsafe(self):
        ch = Character(1.0, 4)
        with pytest.raises(EvaluationError):
            character_eval(position_term(4, 1, Fraction(-4)), ch)

    def test_integer_exponent_is_the_exact_value(self):
        ch = Character(1.3, 4)
        b = add(position_term(4, 2, Fraction(-2), 1), position_term(4, -1, Fraction(-3)))
        assert character_eval(b, ch) == eval_momentum(fourier_base(b), 1.3, 1.0)

    @pytest.mark.parametrize("n, a", [(4, Fraction(-3, 2)), (3, Fraction(-1, 3))])
    def test_fractional_exponent_takes_numeric_route(self, n, a):
        got = character_eval(position_term(n, 1, a), Character(1.0, n))
        x = float(a)
        want = math.pi ** (n / 2) * 2 ** (n + x) * math.gamma((n + x) / 2) / math.gamma(-x / 2)
        assert got == pytest.approx(want, rel=1e-8)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            Character(0.0, 4)

    @pytest.mark.parametrize("p0", [math.nan, math.inf])
    def test_rejects_non_finite_momentum(self, p0):
        # nan would make character_eval return nan, inf a silent 0.0
        with pytest.raises(ValueError):
            Character(p0, 4)

    @pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mass(self, M):
        with pytest.raises(ValueError):
            Character(1.0, 4, M)


class TestIdealElement:
    def test_validates_b_safe(self):
        with pytest.raises(DiffRegError):
            IdealElement(
                position_term(4, 1, Fraction(-1)), position_term(4, 1, Fraction(-4))
            )

    def test_validates_dims(self):
        with pytest.raises(DiffRegError):
            IdealElement(
                position_term(3, 1, Fraction(-1)), position_term(4, 1, Fraction(-2))
            )


class TestTransformValue:
    def test_exact_route(self):
        val, err, route = transform_value(position_term(4, 1, Fraction(-2)), 2.0)
        assert (err, route) == (0.0, "exact")
        assert val == pytest.approx(math.pi ** 2, rel=1e-14)

    def test_regulated_route(self):
        val, err, route = transform_value(position_term(4, 1, Fraction(-4)), 1.0)
        assert (err, route) == (0.0, "regulated")
        # -pi^2 log(p^2/M^2) + 2 pi^2 (ln2 - gammaE) at p = M = 1
        want = 2.0 * math.pi ** 2 * (math.log(2.0) - 0.5772156649015329)
        assert val == pytest.approx(want, rel=1e-12)

    def test_mixed_route(self):
        f = add(position_term(4, 1, Fraction(-2)), position_term(4, 1, Fraction(-4)))
        val, _, route = transform_value(f, 1.0)
        assert route == "exact+regulated"
        v1, _, _ = transform_value(position_term(4, 1, Fraction(-2)), 1.0)
        v2, _, _ = transform_value(position_term(4, 1, Fraction(-4)), 1.0)
        assert val == pytest.approx(v1 + v2, rel=1e-12)

    @pytest.mark.parametrize(
        "n, a, p",
        [(4, Fraction(-7, 2), 1.0), (3, Fraction(-4, 3), 1.0), (5, Fraction(-5, 2), 2.0)],
    )
    def test_fractional_exponent_takes_numeric_route(self, n, a, p):
        # in the window, but 2a' = -a is not an integer, so the exact
        # master formula would need polygamma values outside the symbol set
        val, err, route = transform_value(position_term(n, 1, a), p)
        assert route == "numeric"
        x = float(a)
        want = (
            math.pi ** (n / 2) * 2 ** (n + x) * math.gamma((n + x) / 2)
            / math.gamma(-x / 2) * p ** (-x - n)
        )
        assert val == pytest.approx(want, rel=1e-8)
        # the oracle's estimate is passed on, and holds
        assert 0.0 < err and abs(val - want) <= err

    def test_zero(self):
        assert transform_value(PositionFunction.build(4), 1.0) == (0.0, 0.0, "zero")


class TestAudit:
    def test_zero_a_residual_exact(self):
        ch = Character(1.0, 4)
        elem = IdealElement(
            PositionFunction.build(4), position_term(4, 1, Fraction(-2))
        )
        report = diagram_audit(elem, ch)
        assert report.residual == 0.0
        assert report.route_ab == "zero"

    def test_bilinear_in_a(self):
        ch = Character(1.0, 4)
        a = position_term(4, 1, Fraction(-1))
        b = position_term(4, 1, Fraction(-2))
        base = diagram_audit(IdealElement(a, b), ch)
        scaled = diagram_audit(IdealElement(scale(3, a), b), ch)
        assert scaled.residual == pytest.approx(3.0 * base.residual, rel=1e-9)

    def test_r2_r2_report(self):
        # the headline element: a = b = r^-2, product r^-4 goes through the
        # regulated route; the residual is reported, not asserted zero
        ch = Character(1.0, 4)
        elem = IdealElement(
            position_term(4, 1, Fraction(-2)), position_term(4, 1, Fraction(-2))
        )
        report = diagram_audit(elem, ch)
        assert isinstance(report, AuditReport)
        assert report.route_ab == "regulated"
        assert report.err_estimate == 0.0
        assert report.character_value == pytest.approx(4.0 * math.pi ** 2, rel=1e-14)
        assert math.isfinite(report.residual)
        assert report.residual == abs(
            report.value_ab - report.character_value * report.value_a
        )

    def test_numeric_estimate_bounds_the_residual_error(self):
        # a = r^-2, b = r^-3/2 in dim 4: F[ab] and eps(b) are numeric, F[a]
        # exact; each closed form is pi^{n/2} 2^{n+s} Gamma((n+s)/2) /
        # Gamma(-s/2) p^{-s-n} for r^s
        def exact(s, p):
            return (math.pi ** 2 * 2 ** (4 + s) * math.gamma((4 + s) / 2)
                    / math.gamma(-s / 2) * p ** (-s - 4))

        p0 = 1.3
        elem = IdealElement(position_term(4, 1, Fraction(-2)),
                            position_term(4, 1, Fraction(-3, 2)))
        report = diagram_audit(elem, Character(p0, 4))
        assert report.route_ab == "numeric"
        true = abs(exact(-3.5, p0) - exact(-1.5, p0) * exact(-2, p0))
        assert 0.0 < report.err_estimate < 1e-6 * report.residual
        assert abs(report.residual - true) <= report.err_estimate
