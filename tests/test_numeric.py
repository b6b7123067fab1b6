import math
from fractions import Fraction

import mpmath as mp
import pytest
from scipy.integrate import quad
from scipy.special import jv

from diffreg.algebra import add, delta_term, eval_momentum, position_term
from diffreg.errors import ConvergenceError, EvaluationError, NonIntegrableError
from diffreg.fourier import fourier_base
from diffreg.numeric import (
    QuadratureConfig,
    _load,
    _panel_points,
    _quad_panels,
    _tail,
    _tail_damping,
    _vector_integrand,
    angular_kernel,
    finite_diff_lnM,
    hankel_numeric,
    truncated_ft_numeric,
)


def _gaussian_radial(p, n=4):
    """Omega_{n-1} int_0^inf exp(-r^2) A_n(pr) r^(n-1) dr by adaptive
    quadrature over the oracle's kernel angular_kernel."""
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    val, _ = quad(lambda r: math.exp(-r * r) * angular_kernel(n, p * r) * r ** (n - 1),
                  0.0, 12.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return omega * val


class TestGaussian:
    # the radial reduction the oracle rests on, checked on exp(-r^2), whose
    # transform is known in closed form; the oracle itself takes power-log
    # functions only, so the quadrature here is test-side, over the
    # oracle's kernel
    def test_zero_momentum(self):
        assert _gaussian_radial(0.0) == pytest.approx(math.pi ** 2, rel=1e-10)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_closed_form(self, p):
        assert _gaussian_radial(p) == pytest.approx(
            math.pi ** 2 * math.exp(-p * p / 4.0), rel=1e-9)

    def test_against_per_axis_quadrature(self):
        # the 4d transform factorizes into four identical 1d integrals;
        # cross-check one axis by direct quadrature
        p = 1.2
        axis, _ = quad(
            lambda x: math.exp(-x * x) * math.cos(p * x), -8.0, 8.0
        )
        want = axis * quad(lambda x: math.exp(-x * x), -8.0, 8.0)[0] ** 3
        assert _gaussian_radial(p) == pytest.approx(want, rel=1e-9)


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
        # at p = 100 the contour starts at pi / p unless eps lies beyond
        # it; the shell between two such radii must still be counted
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


class TestOriginPanel:
    # the first panel, for r^s log^k(r^2 M^2) with s just above -n: from
    # r = 0 it is all of [0, pi/p], in closed form; from a truncation radius
    # it is the first panel of the geometric grid, with fixed nodes
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("e", [Fraction(1, 10), Fraction(1, 2), Fraction(1)],
                             ids=["s=-n+1/10", "s=-n+1/2", "s=-n+1"])
    def test_matches_mpmath_within_estimate(self, n, e):
        # with r = b t^(1/e) the panel is b^e / e int L^k A_n(p r) dt over
        # [(a/b)^e, 1], smooth but for log t at t = 0; the kernel is mpmath's
        # Bessel function, cached over k and M at each node
        _load()  # the panels are called directly, not through an entry point
        with mp.workdps(20):
            em = mp.mpf(e.numerator) / e.denominator
            for p in (1e-3, 1.0, 1e2, 1e6):
                for lo in (0.0, 1e-7):
                    a, b = _panel_points(lo, math.pi / p)[:2]
                    kern = {}

                    def node(t):
                        if t not in kern:
                            r = b * t ** (1 / em)
                            z = p * r
                            nu = mp.mpf(n) / 2 - 1
                            kern[t] = r, mp.gamma(nu + 1) * (2 / z) ** nu * mp.besselj(nu, z)
                        return kern[t]

                    for k in range(4):
                        for M in (0.5, 1.0, 2.0):
                            f = position_term(n, 1, e - n, k)
                            val, err = _quad_panels(f, p, n, M, [a, b])

                            def g(t):
                                r, A = node(t)
                                return mp.log(r * r * M * M) ** k * A

                            span = [(mp.mpf(a) / b) ** em, 1]
                            ref = mp.quad(g, span) * mp.mpf(b) ** em / em
                            assert abs(float(ref - val)) <= err, (p, lo, k, M)
                            if lo:  # GL24 against GL12
                                assert err <= 1e-10 * abs(val), (p, lo, k, M)
                            else:
                                # the closed form over [0, pi/p], where the
                                # integrand changes sign (at r M = 1, and at
                                # the first zero of J_0 in dim 2): its
                                # roundoff is measured against int |g|
                                size = mp.quad(lambda t: abs(g(t)), span)
                                size *= mp.mpf(b) ** em / em
                                assert err <= 1e-12 * float(size), (p, lo, k, M)

    @pytest.mark.parametrize("p, near, far", [(1e10, 1e-7, 1.2e-7), (1e9, 1e-7, 4e-7)])
    def test_truncation_radius_below_grid(self, p, near, far):
        # p near reaches 100 and more, where a Taylor series of A_n would
        # cancel; both radii lie beyond pi / p, so there is no panel at all
        # and the contour starts at the truncation radius.  The shell
        # between the two radii links the two transforms: its integrand
        # r^-2 A_4(pr) r^3 = 2 J_1(pr) / p integrates to
        # (2 / p^2) (J_0(p near) - J_0(p far))
        f = position_term(4, 1, Fraction(-2))
        with mp.workdps(30):
            shell = float(2 / mp.mpf(p) ** 2 * (mp.besselj(0, p * mp.mpf(near))
                                                - mp.besselj(0, p * mp.mpf(far))))
        v_near, e_near = truncated_ft_numeric(f, p, 4, 1.0, near)
        v_far, e_far = truncated_ft_numeric(f, p, 4, 1.0, far)
        assert math.isfinite(v_near) and math.isfinite(v_far)
        assert abs(v_near - v_far - 2.0 * math.pi ** 2 * shell) <= e_near + e_far


class TestSineTransform:
    # in dim 3 the transform is 4 pi / p int_0^inf f(r) r sin(pr) dr: no
    # Bessel function and no contour; mpmath integrates the first period
    # after r = t^2, which smooths the power at r = 0, split where the log
    # vanishes (r M = 1), and sums the oscillation beyond it on the real axis
    @pytest.mark.parametrize("a, k, p, M", [
        (Fraction(-2), 0, 0.7, 1.0),
        (Fraction(-2), 2, 3.0, 0.5),
        (Fraction(-3, 2), 1, 1e-2, 2.0),
        (Fraction(-5, 2), 3, 20.0, 1.0),
    ])
    def test_matches_real_axis_quadrature(self, a, k, p, M):
        f = position_term(3, 1, a, k)
        val, err = hankel_numeric(f, p, 3, M)
        with mp.workdps(20):
            s = mp.mpf(a.numerator) / a.denominator + 1

            def g(r):
                return r ** s * mp.log(r * r * M * M) ** k * mp.sin(p * r)

            head = sorted({0, 1 / M, 2 * mp.pi / p})
            ref = mp.quad(lambda t: 2 * t * g(t * t), [mp.sqrt(r) for r in head])
            ref += mp.quadosc(g, [head[-1], mp.inf], omega=p)
            ref *= 4 * mp.pi / p
        assert abs(float(ref) - val) <= err


@pytest.fixture(scope="module")
def laguerre_100():
    with mp.workdps(20):
        return mp.gauss_quadrature(100, "laguerre")


class TestContour:
    # the tail from b on the contour r = b + iu/p, against 100 Gauss-Laguerre
    # nodes from mpmath at 20 digits, with H1_nu(z) = 2/(pi i) e^{-i nu pi/2}
    # K_nu(-iz) from mpmath; b = pi/p as in hankel_numeric, and b = 1e3/p,
    # a truncation radius beyond it
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_mpmath_within_estimate(self, n, laguerre_100):
        _load()  # the tail is called directly, not through an entry point
        nodes, weights = laguerre_100
        with mp.workdps(20):
            nu = mp.mpf(n) / 2 - 1
            front = mp.gamma(nu + 1) * 2 / (mp.pi * 1j) * mp.exp(-1j * nu * mp.pi / 2)
            for pb in (math.pi, 1e3):
                zs = [mp.mpf(pb) + 1j * u for u in nodes]
                # weight e^u (dz/du) times the kernel (2/z)^nu H1_nu(z)
                kern = [w * mp.exp(u) * 1j * front * (2 / z) ** nu * mp.besselk(nu, -1j * z)
                        for u, w, z in zip(nodes, weights, zs)]
                for p in (1e-3, 1e2):
                    for a, k in ((1 - n, 3), (-1, 0), (-1, 3)):
                        for M in (0.5, 2.0):
                            f = position_term(n, 1, Fraction(a), k)
                            val, err = _tail(f, p, n, M, pb / p)
                            terms = [K / p * (z / p) ** (a + n - 1)
                                     * mp.log((z / p) ** 2 * M * M) ** k
                                     for z, K in zip(zs, kern)]
                            ref = mp.fsum(terms).real
                            size = float(mp.fsum(abs(t) for t in terms))
                            assert abs(float(ref) - val) <= err, (pb, p, a, k, M)
                            # 60 nodes against 40: the estimate is the
                            # error of the 40-node rule, up to 1e-9 of the
                            # size next to the singularity at u = i pb
                            assert err <= 1e-9 * size, (pb, p, a, k, M)


class TestScan:
    # every integer window exponent r^a of dims 2-6, log powers 0-3,
    # M = 0.5, 1, 2 and 21 log-spaced p over the documented range [1e-3,
    # 1e2]: the true error must lie within the estimate, and the estimate
    # within the oracle's budget (100 (rel_tol |value| + abs_tol)).  The
    # range includes three cases where the origin panel and the contour
    # cancel to near zero (dim 5 r^-1 log^3 at p = 3, dim 2 r^-1 log^2 at
    # M = 2 and dim 4 r^-2 log^2 at M = 0.5, both at p = 10^-0.25)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_true_error_within_estimate_within_budget(self, n):
        cfg = QuadratureConfig()
        ps = [10.0 ** (-3 + 5 * i / 20) for i in range(21)] + [3.0]
        for a in range(1 - n, 0):
            for k in range(4):
                f = position_term(n, 1, Fraction(a), k)
                F = fourier_base(f)
                for M in (0.5, 1.0, 2.0):
                    for p in ps:
                        val, err = hankel_numeric(f, p, n, M)
                        true_err = abs(val - eval_momentum(F, p, M))
                        assert true_err <= err, (a, k, M, p)
                        assert err <= 100.0 * (cfg.rel_tol * abs(val) + cfg.abs_tol), (a, k, M, p)


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
        # the damping ladder on the real axis must agree with the contour
        # across the documented momentum range, and the result with the
        # exact value
        f = add(
            position_term(4, 1, Fraction(-2)),
            position_term(4, Fraction(-1, 4), Fraction(-2), 1),
        )
        val, _ = hankel_numeric(f, p, 4, cfg=QuadratureConfig(tail_cross_check=True))
        assert val == pytest.approx(eval_momentum(fourier_base(f), p, 1.0), rel=1e-6)

    @pytest.mark.parametrize("n", [2, 4])
    def test_tail_starting_where_log_vanishes(self, n):
        # the closed-form panel and the contour meet at b = pi / p; with
        # M = 1 / b the profile log(r^2 M^2) / r vanishes there, and so do
        # the closed form's leading log terms, which must not end its series
        f = position_term(n, 1, Fraction(-1), 1)
        p = 100.0
        M = p / math.pi
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
            hankel_numeric(position_term(4, 1, Fraction(-2)), -1.0, 4)

    def test_rejects_callable_profile(self):
        # a callable cannot be continued onto the contour
        with pytest.raises(EvaluationError):
            hankel_numeric(lambda r: math.exp(-r * r), 1.0, 4)

    @pytest.mark.parametrize("p, M", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite_input(self, p, M):
        with pytest.raises(EvaluationError):
            hankel_numeric(position_term(4, 1, Fraction(-2)), p, 4, M)

    @pytest.mark.parametrize("M", [0.0, -1.0])
    def test_rejects_non_positive_mass(self, M):
        # the origin panel takes log(r^2 M^2) in closed form: M <= 0 must
        # not reach it
        for eps in (None, 1e-7, 0.1):
            with pytest.raises(EvaluationError):
                if eps is None:
                    hankel_numeric(position_term(4, 1, Fraction(-2), 1), 1.0, 4, M)
                else:
                    truncated_ft_numeric(position_term(4, 1, Fraction(-4)), 1.0, 4, M, eps)

    def test_zero_momentum_needs_decay(self):
        with pytest.raises(EvaluationError):
            hankel_numeric(position_term(4, 1, Fraction(-2)), 0.0, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(dampings=(0.01, 0.02))
        # the zero-damping extrapolation needs two distinct dampings
        for dampings in [(), (0.02,), (0.02, 0.02), (0.02, 0.01, 0.01)]:
            with pytest.raises(ValueError, match="at least two entries"):
                QuadratureConfig(dampings=dampings)

    def test_two_dampings_extrapolate(self):
        # two dampings extrapolate linearly to zero damping; the estimate
        # (the step from the smaller damping) must cover the distance to
        # the contour tail from the same radius
        _load()  # the tails are called directly, not through an entry point
        f = position_term(4, 1, Fraction(-2), 1)
        p, b = 1.0, math.pi
        cfg = QuadratureConfig(dampings=(0.02, 0.01))
        val, err = _tail_damping(_vector_integrand(f, p, 4, 1.0), p, b, cfg)
        want, want_err = _tail(f, p, 4, 1.0, b)
        assert math.isfinite(err)
        assert abs(val - want) <= err + want_err


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
        for h in (0.0, math.nan, math.inf):
            with pytest.raises(EvaluationError):
                finite_diff_lnM(lambda p, M: 0.0, 1.0, 1.0, h=h)
