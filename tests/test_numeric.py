import cmath
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hankel1e, jv, roots_genlaguerre

from diffreg.algebra import PositionFunction, add, delta_term, eval_momentum, position_term
from diffreg.errors import ConvergenceError, EvaluationError, NonIntegrableError
from diffreg.fourier import fourier_base
from diffreg import numeric
from diffreg.coeffs import Coefficient, sphere_area
from diffreg.numeric import (
    _hankel_scaled,
    _laguerre_rule,
    _panel_points,
    _quad_panels,
    angular_kernel,
    finite_diff_lnM,
    hankel_numeric,
    truncated_ft_numeric,
)


SRC = str(Path(numeric.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"

# run in a fresh interpreter with numpy and scipy blocked from import: the
# exit code of each CLI run given as JSON
_BLOCKED_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
import diffreg.cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(diffreg.cli.main(argv))
print(json.dumps(codes))
"""


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


class TestKernel:
    # the oracle's own Gauss-Laguerre rules and Hankel kernel against numpy
    # and scipy, which the tests alone use
    @pytest.mark.parametrize("n", [24, 40, 60, 80])
    def test_laguerre_rule_against_numpy(self, n):
        nodes, weights = _laguerre_rule(n)
        ref_nodes, ref_weights = np.polynomial.laguerre.laggauss(n)
        assert nodes == pytest.approx(ref_nodes, rel=5e-14)
        # numpy's weights are off by up to 1e-12 at the smallest nodes; the
        # rule integrates x^m e^-x to m! for m < 2n
        assert weights == pytest.approx(ref_weights, rel=5e-12)
        for m in range(12):
            moment = math.fsum(w * x ** m for x, w in zip(nodes, weights))
            assert moment == pytest.approx(math.factorial(m), rel=1e-14)

    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    def test_generalized_rule_against_scipy(self, alpha):
        nodes, weights = _laguerre_rule(24, alpha)
        ref_nodes, ref_weights = roots_genlaguerre(24, alpha)
        assert nodes == pytest.approx(ref_nodes, rel=5e-14)
        assert weights == pytest.approx(ref_weights, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_hankel_against_scipy(self, n):
        # every nu of dims 1-10 on all 100 contour nodes, from the start pi,
        # starts just past it and far past it
        nu = 0.5 * n - 1.0
        nodes = _laguerre_rule(numeric._LAG_N)[0] + _laguerre_rule(40)[0]
        for pb in (math.pi, 3.2, 31.4, 1e3):
            z = pb + 1j * np.array(nodes)
            got = [_hankel_scaled(nu, zk) for zk in z]
            assert got == pytest.approx(list(hankel1e(nu, z)), rel=2e-15), pb

    @pytest.mark.parametrize("n", range(1, 11))
    def test_angular_kernel_against_bessel(self, n):
        # the Taylor series up to z = pi and the Hankel kernel beyond it;
        # |A_n| <= 1, and the reference itself is off by up to 4e-15 at small
        # z, where (2/z)^nu is large
        nu = 0.5 * n - 1.0
        for z in [0.01 * i for i in range(1, 315)] + [math.pi + 0.1 * i for i in range(400)]:
            want = math.gamma(0.5 * n) * (2.0 / z) ** nu * jv(nu, z)
            assert abs(angular_kernel(n, z) - want) <= 1e-14, z
        assert angular_kernel(n, 0.0) == 1.0


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

    @pytest.mark.parametrize("n", [2, 6])
    @pytest.mark.parametrize("p", [1e-3, 0.1, 0.316])
    def test_steep_log_power_from_unit_radius(self, n, p):
        # r^-(n+4) log^3(r^2 M^2) from eps = 1 is steep on [eps, pi/p],
        # which fixed-node panels did not resolve within the budget; the
        # reference integrates the real axis up to pi / p and sums the
        # oscillation beyond it
        f = position_term(n, 1, Fraction(-n - 4), 3)
        M = 0.5
        with mp.workdps(20):
            nu = mp.mpf(n) / 2 - 1

            def g(r):
                z = p * r
                return r ** -5 * mp.log(r * r * M * M) ** 3 * (2 / z) ** nu * mp.besselj(nu, z)

            b = mp.pi / p
            ref = mp.quad(g, [1, 2, b]) + mp.quadosc(g, [b, mp.inf], omega=p)
            ref *= 2 * mp.pi ** (mp.mpf(n) / 2)  # Omega_{n-1} Gamma(n/2)
        val, err = truncated_ft_numeric(f, p, n, M, 1.0)
        assert abs(float(ref) - val) <= err
        assert err <= 1e-6 * abs(val) + 1e-10

    @pytest.mark.parametrize("eps", [1e-40, 1e-50, 1e-200, 1e-300, 1e-308])
    @pytest.mark.parametrize("n, a, k", [(4, Fraction(-1), 0), (4, Fraction(-1), 1),
                                         (4, Fraction(-1), 3), (10, Fraction(-1), 0),
                                         (10, Fraction(-1), 1), (10, Fraction(-1), 3),
                                         (2, Fraction(-1, 2), 0)])
    def test_tiny_radius_is_the_full_transform(self, n, a, k, eps):
        # the ball r < eps holds next to nothing of an integrable term, and
        # eps^(a+n) underflows to 0 from 1e-200 (1e-308 is subnormal): the
        # truncated transform is the full one, never out of range
        f = position_term(n, 1, a, k)
        for p in (1e-3, 1.0, 1e2):
            for M in (0.5, 2.0):
                full, full_err = hankel_numeric(f, p, n, M)
                trunc, trunc_err = truncated_ft_numeric(f, p, n, M, eps)
                assert abs(trunc - full) <= full_err + trunc_err, (p, M)


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


def _panel_piece(terms, p, n, Mval, pts):
    """The real-axis piece [lo, b], b = pi/p, of the terms (c, s, k): the
    antiderivative at b from its end series at pi, as _start_moments reads
    it, less its value at lo from _quad_panels."""
    lo, b = pts
    ell = 2.0 * (math.log(b) + math.log(Mval))
    value = err = 0.0
    for c, s, k in terms:
        power = c * numeric._scale(math.pi, p, s + n)
        for coef, bound in numeric._end_series(n, s, k, math.pi):
            value += power * coef
            err += abs(power) * bound
            power *= ell
    if lo:
        lo_val, lo_err = _quad_panels(terms, p, n, Mval, pts)
        value, err = value + lo_val, err + lo_err
    return value, err


def _contour_piece(a, k, p, n, Mval, b):
    """The contour from b of the unit term r^a L^k, from its _tail_moment
    entries as _tail sums them (_contour_moments), but without the panel's
    end at b that a tail from the start pi adds."""
    pb = math.pi if b == math.pi / p else p * b
    ell = 2.0 * (math.log(b) + math.log(Mval))
    w = numeric._scale(pb, p, a + n)
    value = diff = floor = 0.0
    for v, q_diff, q_floor in numeric._contour_moments(n, pb, a, k):
        value += w * v
        diff += w * q_diff
        floor += abs(w) * q_floor
        w *= ell
    return value, abs(diff) + floor


class TestOriginPanel:
    # the real-axis piece [lo, b], b = pi/p, of r^s log^k(r^2 M^2), in
    # closed form: from r = 0 for s just above -n, and from truncation
    # radii for s down to -n-4 (at s = -n, -n-2 and -n-4 one term of the
    # Taylor series integrates to a power of the log)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "e", [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(0), Fraction(-2),
              Fraction(-4)],
        ids=["s=-n+1/10", "s=-n+1/2", "s=-n+1", "s=-n", "s=-n-2", "s=-n-4"])
    def test_matches_mpmath_within_estimate(self, n, e):
        # from r = 0, r = b t^(1/e) makes the piece b^e / e int L^k A_n dt
        # over [0, 1], smooth but for log t at t = 0; from lo > 0, r = e^t
        # makes it int r^e L^k A_n dt.  The kernel is mpmath's Bessel
        # function, cached over k and M at each node
        with mp.workdps(20):
            em = mp.mpf(e.numerator) / e.denominator
            nu = mp.mpf(n) / 2 - 1
            # the antiderivative's terms reach k! (2/m)^(k+1) times the
            # integrand, m the smallest nonzero |s+n+2j|
            m = min(abs(e + 2 * j) for j in range(3) if e + 2 * j)
            for p in (1e-3, 1.0, 1e2, 1e6):
                b = _panel_points(0.0, p)[1]
                # 0.999 b: the two ends cancel to 1e-3 of themselves
                los = [lo for lo in (1e-7, 1e-3, 0.2, 1.0) if lo < b] + [0.999 * b]
                for lo in ([0.0] if e > 0 else []) + los:
                    a = _panel_points(lo, p)[0]
                    kern = {}

                    def node(t):
                        if t not in kern:
                            r = mp.exp(t) if a else b * t ** (1 / em)
                            jac = r ** em if a else b ** em / em
                            z = p * r
                            A = mp.gamma(nu + 1) * (2 / z) ** nu * mp.besselj(nu, z)
                            kern[t] = 2 * mp.log(r), jac * A
                        return kern[t]

                    span = [mp.log(a), mp.log(b)] if a else [0, 1]
                    # the integrand changes sign (at r M = 1, and at the
                    # first zero of J_0 in dim 2), so the estimate is
                    # measured against int |g|: over the piece from r = 0,
                    # and amplified by the antiderivative's growth over
                    # [min(lo, b/2), b] from a truncation radius
                    span_abs = [min(span[0], mp.log(b / 2)), span[1]] if a else span
                    for k in range(4):
                        tol = 1e-11 * math.factorial(k) * max(1, 2 / m) ** (k + 1) if a else 1e-12
                        for M in (0.5, 1.0, 2.0):
                            # the unit term r^(e-n) L^k as (coefficient, exponent, log power)
                            val, err = _panel_piece([(1.0, e - n, k)], p, n, M, [a, b])
                            logm = 2 * mp.log(M)

                            def g(t):
                                logr, A = node(t)
                                return (logr + logm) ** k * A

                            ref = mp.quad(g, span)
                            size = mp.quad(lambda t: abs(g(t)), span_abs, maxdegree=4)
                            assert abs(float(ref - val)) <= err, (p, lo, k, M)
                            assert err <= tol * float(size), (p, lo, k, M)

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
                            val, err = _contour_piece(Fraction(a), k, p, n, M, pb / p)
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

    def test_one_integrand_call_per_table_entry(self, monkeypatch):
        # the tracer's numeric.tail.evals wraps _vector_integrand and counts
        # its calls on the contour nodes (a tuple counts 1): one call on the
        # 60 + 40 nodes per moment table entry (dim, start, exponent, log
        # power), and never again once the entry is built
        sizes, keys = [], []
        original = numeric._vector_integrand

        def counting(f, p, n, Mval, kernel):
            vec = original(f, p, n, Mval, kernel)
            (t,) = f.radial
            keys.append((n, p, t.rpow, t.logpow))

            def counted(z):
                sizes.append(len(z))
                return vec(z)

            return counted

        monkeypatch.setattr(numeric, "_vector_integrand", counting)
        for table in (numeric._contour_table, numeric._tail_moment, numeric._start_moments):
            table.cache_clear()
        f = add(position_term(4, 1, Fraction(-2), 1), position_term(4, 3, Fraction(-3, 2), 2))
        # the start pi (untruncated, and eps below pi/p), then p eps = 6
        calls = [lambda: hankel_numeric(f, 0.7, 4),
                 lambda: truncated_ft_numeric(f, 0.7, 4, 1.0, 0.3),
                 lambda: truncated_ft_numeric(f, 2.0, 4, 1.0, 3.0)]
        first = [call() for call in calls]
        # r^-2 with log powers 0-1 and r^-3/2 with 0-2, at two starts
        assert sizes == [100] * 10
        assert sorted(keys) == sorted((4, pb, a, j) for pb in (math.pi, 6.0)
                                      for a, k in ((-2, 1), (Fraction(-3, 2), 2))
                                      for j in range(k + 1))
        assert [call() for call in calls] == first
        assert len(sizes) == 10
        # the entries are shared between transforms, so they are read-only
        for entry in (numeric._tail_moment(4, math.pi, -2, 1), numeric._start_moments(4, -2, 1)):
            with pytest.raises(TypeError):
                entry[0] = 0.0

    def test_one_kernel_evaluation_per_table_entry(self, monkeypatch):
        # the Hankel kernel on the contour depends on the dim and the start
        # p b alone, and the start is pi exactly for every tail from b =
        # pi/p: untruncated, or truncated at eps <= pi/p.  A table build
        # evaluates the kernel once on each of the 100 nodes
        calls = []
        original = numeric._hankel_scaled

        def counting(nu, z):
            calls.append(nu)
            return original(nu, z)

        monkeypatch.setattr(numeric, "_hankel_scaled", counting)
        for table in (numeric._contour_table, numeric._tail_moment):
            table.cache_clear()
        builds = numeric._contour_table.cache_info
        ps = [10.0 ** (-3 + 5 * i / 20) for i in range(21)]
        for n in range(2, 11):
            f = position_term(n, 1, Fraction(-1), 1)
            before = len(calls), builds().misses
            for p in ps:
                hankel_numeric(f, p, n)
                truncated_ft_numeric(f, p, n, 1.0, 0.5 * math.pi / p)
                truncated_ft_numeric(f, p, n, 1.0, math.pi / p)
            assert (len(calls) - before[0], builds().misses - before[1]) == (100, 1), n
            # a truncation radius beyond pi/p starts the contour elsewhere:
            # one more entry, filled once
            for _ in range(2):
                truncated_ft_numeric(f, 1.0, n, 1.0, 4.0)
            assert (len(calls) - before[0], builds().misses - before[1]) == (200, 2), n
            assert set(calls[before[0]:]) == {0.5 * n - 1.0}
        # the tables are shared between tails, so they are read-only
        for column in numeric._contour_table(4, math.pi):
            with pytest.raises(TypeError):
                column[0] = 0.0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_start_whose_phase_is_lost_is_out_of_range(self, n):
        # a start with eps pb > 1/2 has no phase e^{i pb} left: the table
        # refuses it, and the transform reports it out of range; a start of
        # 1e12 still builds
        assert len(numeric._contour_table(n, 1e12)[1]) == 100
        with pytest.raises(OverflowError):
            numeric._contour_table(n, 0.51 / sys.float_info.epsilon)
        f = position_term(n, 1, Fraction(-1), 1)
        with pytest.raises(EvaluationError, match="outside the oracle's range"):
            truncated_ft_numeric(f, 1e10, n, 1.0, 1e7)

    # the tail with its kernel computed on the spot, as a reference: f(z/p)
    # (2/z)^nu hankel1e(nu, z) (z/p)^(n-1) on the same nodes, from the start
    # p b as computed rather than pi; the tabled value lies well within its
    # own estimate of it, in every window r^a log^k of dims 2-10
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_direct_integrand_within_estimate(self, n):
        nu = 0.5 * n - 1.0
        nodes, weights = map(np.array, _laguerre_rule(numeric._LAG_N))
        for pb in (math.pi, 1e3):
            for p in (10.0 ** (-3 + 5 * i / 20) for i in range(21)):
                b = pb / p
                z = p * b + 1j * nodes
                r = z / p
                kernel = (2.0 / z) ** nu * hankel1e(nu, z) * r ** (n - 1)
                kernel *= 1j / p * cmath.exp(1j * p * b) * math.gamma(0.5 * n)
                for a in range(1 - n, 0):
                    for k in range(4):
                        for M in (0.5, 1.0, 2.0):
                            h = r ** a * (2.0 * np.log(r * M)) ** k * kernel
                            ref = float((h @ weights).real)
                            val, err = _contour_piece(Fraction(a), k, p, n, M, b)
                            assert abs(val - ref) <= 0.1 * err, (pb, p, a, k, M)


def _series_panel(f, p, n, Mval, pts):
    """The real-axis piece [lo, b] by the Taylor series of A_n summed term
    by term at both ends, stopping once a whole j-block is below roundoff:
    the closed form before its tables, kept as a reference."""
    lo, b = pts
    ends = [(1.0, b, 2.0 * math.log(b * Mval))]
    if lo:
        ends.append((-1.0, lo, 2.0 * math.log(lo * Mval)))
    terms = [(sign * t.coeff.evalf() * x ** float(t.rpow + n), float(t.rpow + n),
              t.logpow, (x / b) ** 2, L)
             for sign, x, L in ends for t in f.radial]
    parts = []
    size = 0.0
    w = 1.0  # alpha_j (p b)^(2j)
    for j in range(32):
        if j:
            w *= -(p * b) ** 2 / (2 * j * (n + 2 * j - 2))
        block = []
        for c, e, k, x2, L in terms:
            e2 = e + 2 * j
            cw = c * w * x2 ** j
            if e2 == 0.0:
                block.append(cw * L ** (k + 1) / (2 * k + 2))
            else:
                block.extend(cw / e2 * (-2.0 / e2) ** i * math.perm(k, i)
                             * L ** (k - i) for i in range(k + 1))
        parts.extend(block)
        last = math.fsum(abs(v) for v in block)
        size += last
        if last <= numeric._ROUNDOFF * size:
            break
    return math.fsum(parts), last + numeric._ROUNDOFF * size


def _node_tail(f, p, n, Mval, b):
    """The contour tail with f evaluated on every node, r = z/p, against
    the kernel table: the tail before its moment tables, kept as a
    reference.  It takes the same Python scalar operations as the tables,
    so that the two differ by the moment expansion alone."""
    pb = math.pi if b == math.pi / p else p * b
    z, kernel = numeric._contour_table(n, pb)
    h = []
    for zk, kk in zip(z, kernel):
        r = zk / p
        lg = 2.0 * cmath.log(r * Mval)
        fr = sum(t.coeff.evalf() * r ** float(t.rpow) * lg ** t.logpow for t in f.radial)
        h.append(fr * kk * p ** (1 - n) / p)
    w60, w40 = numeric._laguerre_rule(numeric._LAG_N)[1], numeric._laguerre_rule(40)[1]
    fine = sum(w * x for w, x in zip(w60, h))
    coarse = sum(w * x for w, x in zip(w40, h[numeric._LAG_N:]))
    floor = ((numeric._ROUNDOFF + sys.float_info.epsilon * pb)
             * sum(w * abs(x) for w, x in zip(w60, h)))
    return fine.real, abs(fine - coarse) + floor


def _reference_transform(f, p, n, M, lo):
    """(status, value, estimate) of the transform from the two references,
    with the oracle's range and budget rules."""
    b = max(lo, math.pi / p)
    main_val = main_err = 0.0
    try:
        if lo < b:
            main_val, main_err = _series_panel(f, p, n, M, [lo, b])
        tail_val, tail_err = _node_tail(f, p, n, M, b)
        omega = sphere_area(n).evalf()
        value, err = omega * (main_val + tail_val), omega * (main_err + tail_err)
    except OverflowError:
        value = err = math.inf
    if not (math.isfinite(value) and math.isfinite(err)):
        return "range", None, None
    if err > 1e-6 * abs(value) + 1e-10:
        return "budget", value, err
    return "ok", value, err


class TestTables:
    # the moment tables against the references above, which sum the
    # series term by term and evaluate f on every contour node: every
    # integer window exponent of dims 2-10 and r^(1/3-n), untruncated and
    # from truncation radii 0.03, 0.3 and 1, and from those radii also r^-n
    # and r^-(n+2), whose series meet e2 = 0; log powers 0-3, M = 0.5, 1, 2
    # and 21 log-spaced p over the documented range, where eps = 0.3 and 1
    # start the contour past pi at the largest p.  The exit status, the
    # value within a tenth of the estimate and the estimate within 10 times
    # the reference's must all hold
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_series_and_node_references(self, n):
        ps = [10.0 ** (-3 + 5 * i / 20) for i in range(21)]
        window = [Fraction(a) for a in range(1 - n, 0)] + [Fraction(1, 3) - n]
        cases = [(a, lo) for a in window for lo in (0.0, 0.03, 0.3, 1.0)]
        cases += [(Fraction(a), lo) for a in (-n, -n - 2) for lo in (0.03, 0.3, 1.0)]
        for a, lo in cases:
            for k in range(4):
                f = position_term(n, 1, a, k)
                for M in (0.5, 1.0, 2.0):
                    for p in ps:
                        status, ref, ref_err = _reference_transform(f, p, n, M, lo)
                        try:
                            if lo:
                                val, err = truncated_ft_numeric(f, p, n, M, lo)
                            else:
                                val, err = hankel_numeric(f, p, n, M)
                        except ConvergenceError:
                            assert status == "budget", (a, lo, k, M, p)
                            continue
                        case = (a, lo, k, M, p, status)
                        assert status == "ok", case
                        assert abs(val - ref) <= 0.1 * err, case
                        assert err <= 10.0 * ref_err, case

    def test_one_float_per_coefficient_per_transform(self, monkeypatch):
        # the transform reads each coefficient as a float once, and both
        # ends of the real-axis panel and the tail share it
        f = add(position_term(4, 1, Fraction(-2), 1),
                position_term(4, Fraction(-3, 7), Fraction(-3, 2), 2))
        calls = [lambda: hankel_numeric(f, 0.7, 4),
                 lambda: truncated_ft_numeric(f, 0.7, 4, 2.0, 0.3)]
        warm = [call() for call in calls]
        count = []
        original = Coefficient.evalf

        def counting(self):
            count.append(self)
            return original(self)

        monkeypatch.setattr(Coefficient, "evalf", counting)
        for call, value in zip(calls, warm):
            count.clear()
            assert call() == value
            assert len(count) == len(f.radial)

    def test_truncation_radius_leaves_the_shared_table(self):
        # the end series at a truncation radius below pi/p is summed per
        # call: no radius enters or evicts an entry of any table in the
        # module, the start-pi table among them
        f = add(position_term(4, 1, Fraction(-2), 1),
                position_term(4, Fraction(-3, 7), Fraction(-6), 3))
        p = 0.7
        truncated_ft_numeric(f, p, 4, 1.0, 1.0)
        tables = [v for v in vars(numeric).values() if hasattr(v, "cache_info")]
        assert numeric._start_moments in tables
        before = [t.cache_info() for t in tables]
        first = [numeric._start_moments(4, t.rpow, t.logpow) for t in f.radial]
        for i in range(50):
            truncated_ft_numeric(f, p, 4, 1.0, (i + 1) / 51 * math.pi / p)
        after = [t.cache_info() for t in tables]
        assert [(i.currsize, i.misses) for i in after] == [(i.currsize, i.misses) for i in before]
        # the entries read at pi are the same objects: none was evicted and
        # built again
        assert all(numeric._start_moments(4, t.rpow, t.logpow) is entry
                   for t, entry in zip(f.radial, first))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
    def test_start_entry_is_the_panel_and_the_contour(self, n):
        # each entry of the start-pi table is built from the panel's end at
        # pi (_end_series) and the contour from pi (_tail_moment): for
        # l^d, d = 0..k, the panel's coefficient plus C(k, d) Re Q60 of the
        # log power k - d, C(k, d) (Q60 - Q40), and the panel's bound plus
        # C(k, d) floor; the top power k + 1 is the panel's alone
        for a in [Fraction(a) for a in range(-n - 2, 1)] + [Fraction(1, 3) - n]:
            for k in range(4):
                entry = numeric._start_moments(n, a, k)
                panel = numeric._end_series(n, a, k, math.pi)
                assert len(entry) == len(panel) == k + 2
                for d, ((coef, bound), got) in enumerate(zip(panel, entry)):
                    if d == k + 1:
                        assert got == (coef, 0j, bound)
                        continue
                    q60, q_diff, q_floor = numeric._tail_moment(n, math.pi, a, k - d)
                    c = math.comb(k, d)
                    assert got == (coef + c * q60.real, c * q_diff, bound + c * q_floor)
                # shared between transforms, so read-only down to its rows
                with pytest.raises(TypeError):
                    entry[0][0] = 0.0

    @pytest.mark.parametrize("n, a, k", [(2, -1, 3), (4, -2, 1), (4, -6, 2), (7, Fraction(-13, 2), 0)])
    def test_truncation_radius_at_the_start(self, n, a, k):
        # at eps = pi/p exactly there is no real-axis piece, so the start-pi
        # table, which holds the panel's end at b, is not read: the
        # transform is the contour from pi alone, as in the node reference,
        # and its estimate carries no panel bounds (with them, dim 2
        # r^-1 log^3 at p = 0.01 would read 1.5e-7 against 4.7e-9)
        f = position_term(n, 1, Fraction(a), k)
        for p in (1e-2, 0.7, 3.0, 50.0):
            for M in (0.5, 2.0):
                status, ref, ref_err = _reference_transform(f, p, n, M, math.pi / p)
                val, err = truncated_ft_numeric(f, p, n, M, math.pi / p)
                assert status == "ok", (p, M)
                assert abs(val - ref) <= 0.1 * err, (p, M)
                assert err <= 10.0 * ref_err, (p, M)

    def test_per_transform_work_needs_no_numpy(self):
        # the oracle runs on the standard library: in a fresh interpreter
        # where numpy and scipy cannot be imported, the README's CLI tour
        # and the oracle in dims 1-10 (from the start pi and from p eps = 6,
        # past it) give the exit codes they gave with numpy and scipy
        tour = [shlex.split(line, comments=True)[1:] for line in README.read_text().splitlines()
                if line.startswith("diffreg ")]
        runs = tour + [argv for n in range(1, 11) for argv in (
            ["oracle", "--fn", "r^-1/2*log(r^2*M^2)", "--dim", str(n), "--p", "2"],
            ["oracle", "--fn", "r^-1", "--dim", str(n), "--p", "2", "--eps", "3"])]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _BLOCKED_PROBE, json.dumps(runs)],
                              env=env, capture_output=True, text=True, check=True)
        assert len(tour) == 7
        assert json.loads(proc.stdout) == [0] * len(runs)

    def test_zero_function(self):
        # no term, no table: both pieces are empty sums
        zero = PositionFunction.build(4)
        assert hankel_numeric(zero, 1.0, 4) == (0.0, 0.0)
        assert truncated_ft_numeric(zero, 1.0, 4, 1.0, 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [1e300, 1e-300])
    @pytest.mark.parametrize("n, a, k", [(4, -2, 1), (2, -1, 3)])
    def test_truncated_extreme_momentum_is_domain_error(self, n, a, k, p):
        # a scale b^(a+n) that under- or overflows, or a contour table that
        # is not finite, is an out-of-range error: never a silent (0, 0)
        f = position_term(n, 1, Fraction(a), k)
        where = re.escape(f"p={p!r}, M=1.0, truncation radius 0.1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=where):
                truncated_ft_numeric(f, p, n, 1.0, 0.1)


class TestScan:
    # every integer window exponent r^a of dims 2-6, log powers 0-3,
    # M = 0.5, 1, 2 and 21 log-spaced p over the documented range [1e-3,
    # 1e2]: the true error must lie within the estimate, and the estimate
    # within the oracle's budget (1e-6 |value| + 1e-10).  The
    # range includes three cases where the origin panel and the contour
    # cancel to near zero (dim 5 r^-1 log^3 at p = 3, dim 2 r^-1 log^2 at
    # M = 2 and dim 4 r^-2 log^2 at M = 0.5, both at p = 10^-0.25)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_true_error_within_estimate_within_budget(self, n):
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
                        assert err <= 1e-6 * abs(val) + 1e-10, (a, k, M, p)

    # the rest of the oracle's dims at M = 1 and the 21 log-spaced p
    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_high_dims_true_error_within_estimate_within_budget(self, n):
        for a in range(1 - n, 0):
            for k in range(4):
                f = position_term(n, 1, Fraction(a), k)
                F = fourier_base(f)
                for p in (10.0 ** (-3 + 5 * i / 20) for i in range(21)):
                    val, err = hankel_numeric(f, p, n)
                    assert abs(val - eval_momentum(F, p, 1.0)) <= err, (a, k, p)
                    assert err <= 1e-6 * abs(val) + 1e-10, (a, k, p)


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
        # the exact transform checks the contour tail across the documented
        # momentum range: the true error lies within the estimate, for a
        # mixed power-log input and for r^-2, whose transform is 4 pi^2 / p^2
        mixed = add(
            position_term(4, 1, Fraction(-2)),
            position_term(4, Fraction(-1, 4), Fraction(-2), 1),
        )
        for f, want in ((mixed, eval_momentum(fourier_base(mixed), p, 1.0)),
                        (position_term(4, 1, Fraction(-2)), 4.0 * math.pi ** 2 / p ** 2)):
            val, err = hankel_numeric(f, p, 4)
            assert abs(val - want) <= err

    def test_cross_check_mode(self):
        # r^-2 in dim 4 against its closed transform 4 pi^2 / p^2 at p = 1,
        # through the one contour tail that remains
        f = position_term(4, 1, Fraction(-2))
        val, _ = hankel_numeric(f, 1.0, 4)
        assert val == pytest.approx(4.0 * math.pi ** 2, rel=1e-6)

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

    def test_dim_above_range_is_domain_error(self, monkeypatch):
        # dims above 10 are refused before any quadrature
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(numeric, "_quad_panels", no_quadrature)
        monkeypatch.setattr(numeric, "_tail", no_quadrature)
        f = position_term(11, 1, Fraction(-8))
        for call in (lambda: hankel_numeric(f, 3.0, 11),
                     lambda: truncated_ft_numeric(f, 3.0, 11, 1.0, 0.1)):
            with pytest.raises(EvaluationError, match="dims up to 10, not dim 11"):
                call()

    @pytest.mark.parametrize("factor", [0.999, 1.001], ids=["below", "above"])
    @pytest.mark.parametrize("tail_val", [0.0, 1.0], ids=["absolute", "relative"])
    def test_budget_bound(self, monkeypatch, tail_val, factor):
        # the oracle fails exactly when its estimate exceeds 1e-6 |value| +
        # 1e-10: with the panels at zero the value and the estimate are the
        # contour's, times the sphere area
        omega = sphere_area(4).evalf()
        bound = 1e-6 * abs(omega * tail_val) + 1e-10
        f = position_term(4, 1, Fraction(-2))
        monkeypatch.setattr(numeric, "_quad_panels", lambda *args: (0.0, 0.0))
        monkeypatch.setattr(numeric, "_tail", lambda *args: (tail_val, factor * bound / omega))
        if factor < 1:
            val, err = hankel_numeric(f, 1.0, 4)
            assert (val, err) == (omega * tail_val, pytest.approx(factor * bound))
        else:
            with pytest.raises(ConvergenceError, match="exceeds tolerance budget"):
                hankel_numeric(f, 1.0, 4)

    @pytest.mark.parametrize("p, n, a", [(1e-300, 2, -1), (1e300, 2, -1), (1e-100, 6, -1),
                                         (1e300, 4, -2)],
                             ids=["1e-300", "1e+300", "1e-100-dim6", "1e+300-dim4"])
    def test_out_of_range_momentum_is_domain_error(self, p, n, a):
        # far outside the documented range the contour nodes over- or
        # underflow, or the closed form's powers of pi / p overflow; the
        # oracle names the input, without a nan budget or a warning
        f = position_term(n, 1, Fraction(a), 3)
        where = re.escape(f"p={p!r}, M=1.0, truncation radius 0.0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=where):
                hankel_numeric(f, p, n)


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
