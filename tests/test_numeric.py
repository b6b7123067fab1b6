import math
from fractions import Fraction

import pytest
from scipy.integrate import quad
from scipy.special import jv

from diffreg.algebra import add, delta_term, eval_momentum, position_term
from diffreg.errors import EvaluationError, NonIntegrableError
from diffreg.fourier import fourier_base
from diffreg.numeric import (
    QuadratureConfig,
    finite_diff_lnM,
    gaussian_profile,
    hankel_numeric,
    truncated_ft_numeric,
)


class TestGaussian:
    def test_zero_momentum(self):
        val, err = hankel_numeric(gaussian_profile, 0.0, 4)
        assert val == pytest.approx(math.pi ** 2, rel=1e-10)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_closed_form(self, p):
        val, _ = hankel_numeric(gaussian_profile, p, 4)
        assert val == pytest.approx(math.pi ** 2 * math.exp(-p * p / 4.0), rel=1e-9)

    def test_against_per_axis_quadrature(self):
        # the 4d transform factorizes into four identical 1d integrals;
        # cross-check one axis by direct quadrature
        p = 1.2
        axis, _ = quad(
            lambda x: math.exp(-x * x) * math.cos(p * x), -8.0, 8.0
        )
        want = axis * quad(lambda x: math.exp(-x * x), -8.0, 8.0)[0] ** 3
        val, _ = hankel_numeric(gaussian_profile, p, 4)
        assert val == pytest.approx(want, rel=1e-9)


class TestMasterFormulaWindow:
    @pytest.mark.parametrize("aprime", [0.6, 1.0, 1.4])
    def test_power_law(self, aprime):
        # closed form pi^{n/2} 2^{n-2a'} Gamma(n/2-a')/Gamma(a') p^{2a'-n},
        # valid for any a' in the window, rational or not
        n, p = 4, 1.3
        f = position_term(n, 1, Fraction(-2 * aprime).limit_denominator(10), 0)
        a = -float(f.radial[0].rpow) / 2.0
        want = (
            math.pi ** (n / 2.0)
            * 2.0 ** (n - 2 * a)
            * math.gamma(n / 2.0 - a)
            / math.gamma(a)
            * p ** (2 * a - n)
        )
        val, _ = hankel_numeric(f, p, n)
        assert val == pytest.approx(want, rel=1e-7)


class TestTruncated:
    def test_monotone_in_eps_for_divergent_target(self):
        target = position_term(4, 1, Fraction(-4))
        vals = [
            truncated_ft_numeric(target, 0.1, 4, 1.0, eps)[0]
            for eps in (0.2, 0.1, 0.05, 0.02)
        ]
        assert vals == sorted(vals)

    def test_small_eps_consistency(self):
        # for an integrable function the truncation bias has the exact
        # leading term -Omega eps^2 / 2 (from int_0^eps r^-2 r^3 dr)
        f = position_term(4, 1, Fraction(-2))
        full, _ = hankel_numeric(f, 1.0, 4)
        eps = 1e-3
        trunc, _ = truncated_ft_numeric(f, 1.0, 4, 1.0, eps)
        bias = trunc - full
        model = -2.0 * math.pi ** 2 * eps ** 2 / 2.0
        assert bias == pytest.approx(model, rel=1e-3)

    def test_rejects_bad_eps(self):
        f = position_term(4, 1, Fraction(-4))
        with pytest.raises(EvaluationError):
            truncated_ft_numeric(f, 1.0, 4, 1.0, 0.0)

    def test_eps_beyond_tail_radius(self):
        # at p = 100 the tail starts at R = 2 unless eps lies beyond it; the
        # shell between two such radii must still be counted
        f = position_term(4, 1, Fraction(-4))
        p = 100.0

        def shell_integrand(r):
            return r ** -4 * 2.0 * jv(1.0, p * r) / (p * r) * r ** 3

        shell, _ = quad(shell_integrand, 2.5, 3.0, limit=200)
        near, _ = truncated_ft_numeric(f, p, 4, 1.0, 2.5)
        far, _ = truncated_ft_numeric(f, p, 4, 1.0, 3.0)
        assert near - far == pytest.approx(2.0 * math.pi ** 2 * shell, rel=1e-8)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        f = position_term(4, 1, Fraction(-4))
        with pytest.raises(EvaluationError):
            truncated_ft_numeric(f, 1.0, 4, 1.0, eps)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("eps", [0.2, 0.02])
    def test_truncated_plus_ball_is_full_transform(self, n, eps):
        # the fixed-node panels above eps plus the ball integral, done here
        # by plain adaptive quadrature, give the full transform
        f = add(
            position_term(n, 1, Fraction(-2)),
            position_term(n, Fraction(-1, 4), Fraction(-2), 1),
        )
        p, omega = 1.3, 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        nu = n / 2.0 - 1.0

        def ball_integrand(r):
            z = p * r
            kern = math.gamma(n / 2.0) * (2.0 / z) ** nu * jv(nu, z)
            return (r ** -2 - 0.25 * r ** -2 * math.log(r * r)) * kern * r ** (n - 1)

        ball, _ = quad(ball_integrand, 0.0, eps, epsabs=1e-14, epsrel=1e-12, limit=200)
        trunc, _ = truncated_ft_numeric(f, p, n, 1.0, eps)
        full, _ = hankel_numeric(f, p, n)
        assert trunc + omega * ball == pytest.approx(full, rel=1e-9)


class TestAccuracyGrid:
    # every power r^a in the Fourier window -n < a < 0, log powers 0-2,
    # across the documented momentum range
    @pytest.mark.parametrize("p", [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2])
    @pytest.mark.parametrize(
        "n, a, k",
        [(n, a, k) for n in (2, 3, 4, 6) for a in range(1 - n, 0) for k in (0, 1, 2)],
    )
    def test_matches_exact_within_estimate(self, n, a, k, p):
        f = position_term(n, 1, Fraction(a), k)
        val, err = hankel_numeric(f, p, n)
        want = eval_momentum(fourier_base(f), p, 1.0)
        assert abs(val - want) <= 1e-8 * abs(want)
        assert abs(val - want) <= err


class TestContract:
    def test_deterministic(self):
        f = position_term(4, 1, Fraction(-2), 1)
        a = hankel_numeric(f, 0.7, 4)
        b = hankel_numeric(f, 0.7, 4)
        assert a == b  # bit-identical, values and estimates

    def test_error_estimate_honest(self):
        f = position_term(4, 1, Fraction(-2), 1)
        F = fourier_base(f)
        for p in (0.5, 1.0, 2.0):
            val, err = hankel_numeric(f, p, 4)
            true_err = abs(val - eval_momentum(F, p, 1.0))
            assert true_err <= max(err * 50.0, 1e-9 * abs(val))

    @pytest.mark.parametrize("p", [1e-3, 1e-2, 1.0, 1e2])
    def test_tail_cross_check_matches_exact(self, p):
        # the damping ladder must agree with the asymptotic series across
        # the documented momentum range, and the result with the exact value
        f = add(
            position_term(4, 1, Fraction(-2)),
            position_term(4, Fraction(-1, 4), Fraction(-2), 1),
        )
        val, _ = hankel_numeric(f, p, 4, cfg=QuadratureConfig(tail_cross_check=True))
        assert val == pytest.approx(eval_momentum(fourier_base(f), p, 1.0), rel=1e-6)

    @pytest.mark.parametrize("n", [2, 4])
    def test_tail_starting_where_log_vanishes(self, n):
        # the tail starts at R = tail_radius_factor / p; with M = 1 / R the
        # profile log(r^2 M^2) / r vanishes there, and so does the first
        # term of the tail series, which must not end the series
        f = position_term(n, 1, Fraction(-1), 1)
        p = 100.0
        M = p / QuadratureConfig().tail_radius_factor
        val, err = hankel_numeric(f, p, n, M)
        true_err = abs(val - eval_momentum(fourier_base(f), p, M))
        assert true_err <= min(err, 1e-8 * abs(val))

    def test_cross_check_mode(self):
        f = position_term(4, 1, Fraction(-2))
        cfg = QuadratureConfig(tail_cross_check=True)
        val, _ = hankel_numeric(f, 1.0, 4, cfg=cfg)
        assert val == pytest.approx(4.0 * math.pi ** 2, rel=1e-6)

    def test_rejects_divergent_input(self):
        with pytest.raises(NonIntegrableError):
            hankel_numeric(position_term(4, 1, Fraction(-4)), 1.0, 4)

    def test_rejects_delta_input(self):
        with pytest.raises(EvaluationError):
            hankel_numeric(delta_term(4, 1), 1.0, 4)

    def test_rejects_negative_momentum(self):
        with pytest.raises(EvaluationError):
            hankel_numeric(gaussian_profile, -1.0, 4)

    @pytest.mark.parametrize("p, M", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite_input(self, p, M):
        with pytest.raises(EvaluationError):
            hankel_numeric(position_term(4, 1, Fraction(-2)), p, 4, M)

    def test_zero_momentum_needs_decay(self):
        with pytest.raises(EvaluationError):
            hankel_numeric(position_term(4, 1, Fraction(-2)), 0.0, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(dampings=(0.01, 0.02))


class TestFiniteDifference:
    def test_second_order_convergence(self):
        # F with a log^3: M dF/dM known in closed form
        f = position_term(4, 1, Fraction(-2), 3)
        F = fourier_base(f)
        p, M = 1.1, 1.0

        def value(pp, MM):
            return eval_momentum(F, pp, MM)

        def exact():
            from diffreg.fourier import cs_derivative

            return 2.0 * eval_momentum(cs_derivative(F), p, M)

        e1 = abs(finite_diff_lnM(value, p, M, h=2e-2) - exact())
        e2 = abs(finite_diff_lnM(value, p, M, h=1e-2) - exact())
        ratio = e1 / e2
        assert 3.0 < ratio < 5.0  # central differences: O(h^2)

    def test_rejects_bad_step(self):
        with pytest.raises(EvaluationError):
            finite_diff_lnM(lambda p, M: 0.0, 1.0, 1.0, h=0.0)
