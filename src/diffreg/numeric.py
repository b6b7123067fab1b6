"""Independent numerical oracle for the symbolic layer.

Radial reduction: int e^{ip.x} f(r) d^n x = Omega_{n-1} int_0^inf f(r)
A_n(p r) r^(n-1) dr with A_n(z) = Gamma(n/2) (2/z)^(n/2-1) J_{n/2-1}(z),
for a power-log function f, a sum of c r^a log^k(r^2 M^2).  The range
splits at b = max(lo, pi/p), where lo is 0 or the truncation radius:

- [lo, b] is one panel on the real axis, integrated in closed form over the
  Taylor series of A_n, which converges fast because p b <= pi; there is no
  such piece when lo >= pi/p;
- [b, inf) is rotated onto the contour r = b + iu/p (numerical steepest
  descent).  f is analytic for Re r > 0 and J_nu = Re H1_nu, so the tail is
  the real part of a contour integral whose integrand decays like e^{-u}
  and does not oscillate; fixed Gauss-Laguerre nodes integrate it.  Where
  the integrand grows, the rotated integral is the Abel-summed value.

The opt-in tail_cross_check integrates [b, inf) on the real axis with
exponential damping, extrapolated to zero damping, as an independent check
of the contour.  All of it is deterministic.  numpy and scipy.special load
on the first quadrature call, so importing diffreg does not pay for them.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable, List, Sequence, Tuple

from .algebra import PositionFunction, radial_derivative
from .coeffs import sphere_area
from .errors import ConvergenceError, EvaluationError, NonIntegrableError


# damping rates of the cross-check in units of p (its regulator is
# e^{-d p (r-b)}, so the decay per oscillation is the same at every p);
# geometric ladder, five levels so the Richardson table reaches quartic
# order (three levels leave the extrapolant short of the 1e-6
# cross-regulator agreement)
DAMPINGS = (0.02, 0.01, 0.005, 0.0025, 0.00125)


# numpy, scipy.special, the Gauss-Laguerre tables of the contour and the
# Gauss-Legendre ones of the cross-check, bound by _load on the first
# quadrature or Bessel call; special doubles as the loaded flag
np = special = None
_GL_NODES = _GL_WEIGHTS = None
_LAG_WEIGHTS = _LAG40_WEIGHTS = _CONTOUR_NODES = None
_LAG_N = 60  # contour nodes; the estimate compares them with 40


def _load() -> None:
    global np, special
    global _GL_NODES, _GL_WEIGHTS
    global _LAG_WEIGHTS, _LAG40_WEIGHTS, _CONTOUR_NODES
    import numpy as np

    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
    lag_nodes, _LAG_WEIGHTS = _laguerre_rule(_LAG_N)
    lag40_nodes, _LAG40_WEIGHTS = _laguerre_rule(40)
    _CONTOUR_NODES = np.concatenate([lag_nodes, lag40_nodes])
    from scipy import special  # last: the flag is set once all is bound


def _laguerre_rule(n: int):
    """Gauss-Laguerre nodes from numpy, with the weights 1 / sum_{k<n}
    L_k(x)^2 (the Christoffel function) by the three-term recurrence: within
    2e-14 of themselves, where numpy's own weights are off by up to 1e-12
    at the smallest nodes."""
    x = np.polynomial.laguerre.laggauss(n)[0]
    prev, cur = np.zeros_like(x), np.ones_like(x)
    total = cur * cur
    for k in range(n - 1):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        total += cur * cur
    return x, 1.0 / total


def angular_kernel(n: int, z: float) -> float:
    """Spherical average of the plane wave over a radius with p r = z."""
    if special is None:
        _load()
    if z == 0.0:
        return 1.0
    nu = 0.5 * n - 1.0
    return math.gamma(0.5 * n) * (2.0 / z) ** nu * special.jv(nu, z)


# -- main entry points -------------------------------------------------


def hankel_numeric(
    f: PositionFunction,
    p: float,
    n: int,
    Mval: float = 1.0,
    *,
    tail_cross_check: bool = False,
) -> Tuple[float, float]:
    """Radial Fourier transform at momentum p; returns (value, errEstimate).
    tail_cross_check also integrates the tail with the damping ladder and
    raises ConvergenceError when the two tails disagree."""
    if not isinstance(f, PositionFunction):
        raise EvaluationError("the oracle transforms power-log functions only")
    if f.local:
        raise EvaluationError("numeric transform of delta terms is exact, "
                              "not quadrature; strip the local part")
    for t in f.radial:
        if t.rpow <= -n:
            raise NonIntegrableError(
                f"term r^{t.rpow} is not integrable at the origin in "
                f"dim {n}; use truncated_ft_numeric"
            )
    return _radial_transform(f, p, n, Mval, 0.0, tail_cross_check)


def truncated_ft_numeric(
    f: PositionFunction,
    p: float,
    n: int,
    Mval: float,
    epsilon: float,
    *,
    tail_cross_check: bool = False,
) -> Tuple[float, float]:
    """Transform restricted to the region r > epsilon; tail_cross_check as
    for hankel_numeric."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise EvaluationError("epsilon must be finite and positive")
    if not isinstance(f, PositionFunction) or f.local:
        raise EvaluationError("truncated transform needs a radial-only function")
    return _radial_transform(f, p, n, Mval, epsilon, tail_cross_check)


def gauss_flux_numeric(
    f: PositionFunction, radius: float, n: int, Mval: float = 1.0
) -> float:
    """Flux of grad f through the radius sphere:
    Omega_{n-1} radius^(n-1) f'(radius)."""
    if not (radius > 0 and math.isfinite(radius)):
        raise EvaluationError("radius must be finite and positive")
    return sphere_area(n).evalf() * radius ** (n - 1) * radial_derivative(f, radius, Mval)


def finite_diff_lnM(
    fn: Callable[[float, float], float], p: float, Mval: float, h: float = 1e-4
) -> float:
    """Central difference in ln M: returns M dF/dM of fn(p, M)."""
    if not (h > 0 and math.isfinite(h)):
        raise EvaluationError("step must be finite and positive")
    up = fn(p, Mval * math.exp(h))
    dn = fn(p, Mval * math.exp(-h))
    return (up - dn) / (2.0 * h)


# -- internals ---------------------------------------------------------


def _radial_transform(f, p, n, Mval, lo, tail_cross_check) -> Tuple[float, float]:
    if not (math.isfinite(p) and math.isfinite(Mval)):
        raise EvaluationError("p and M must be finite")
    if not (p > 0 and Mval > 0):
        raise EvaluationError("p and M must be positive")
    if special is None:
        _load()
    omega = sphere_area(n).evalf()

    # the real axis up to b, the contour from b; far outside the documented
    # p range the closed form's powers of b overflow, or the contour nodes
    # do, which the value and the estimate then show as inf or nan
    pts = _panel_points(lo, p)
    b = pts[-1]
    main_val = main_err = 0.0
    try:
        if lo < b:
            main_val, main_err = _quad_panels(f, p, n, Mval, pts)
        with np.errstate(all="ignore"):
            tail_val, tail_err = _tail(f, p, n, Mval, b)
        value = omega * (main_val + tail_val)
        err = omega * (main_err + tail_err)
    except OverflowError:
        value = err = math.inf
    if not (math.isfinite(value) and math.isfinite(err)):
        raise EvaluationError(
            f"no finite transform at p={p!r}, M={Mval!r}, truncation radius "
            f"{lo!r}: outside the oracle's range"
        )
    if tail_cross_check:
        other_val, _ = _tail_damping(_vector_integrand(f, p, n, Mval), p, b)
        if abs(other_val - tail_val) > 1e-6 * (abs(main_val + tail_val) + 1e-12):
            raise ConvergenceError(
                f"tail regulators disagree: {tail_val!r} vs {other_val!r}",
                partial=value,
            )

    # a hundred times the accuracy aimed at, 1e-8 |value| + 1e-12: only a
    # gross failure of the estimate is treated as non-convergence
    budget = 1e-6 * abs(value) + 1e-10
    if err > budget:
        raise ConvergenceError(
            f"error estimate {err:.3e} exceeds tolerance budget {budget:.3e}",
            partial=value,
            err_estimate=err,
        )
    return value, err


def _panel_points(lo: float, p: float) -> List[float]:
    """The real-axis piece [lo, b], b = max(lo, pi/p), where the contour
    takes over; it is empty when lo >= pi/p."""
    return [lo, max(lo, math.pi / p)]


# QUADPACK's roundoff floor: no panel estimate is below 50 eps int |g|
_ROUNDOFF = 50.0 * sys.float_info.epsilon


def _quad_panels(f: PositionFunction, p, n, Mval, pts: Sequence[float]) -> Tuple[float, float]:
    """int_lo^b f A_n(pr) r^(n-1) dr over pts = [lo, b], b <= pi/p, in
    closed form.  With A_n(z) = sum_j alpha_j z^(2j), alpha_j = -alpha_{j-1}
    / (2j (n+2j-2)), a term c r^s L^k, L = log(r^2 M^2), leaves int r^sig
    L^k dr, sig = s+n-1+2j, whose antiderivative r^(sig+1)/(sig+1) sum_i
    (-2/(sig+1))^i k!/(k-i)! L^(k-i), or L^(k+1)/(2(k+1)) at sig = -1, is
    taken at both ends; at r = 0 it vanishes, since sig > -1 where f is
    integrable.  An end x carries x^(s+n) alpha_j (p b)^(2j) (x/b)^(2j),
    which does not overflow for small x.  As p b <= pi the sum stops once
    a j-block is below roundoff; the estimate is that block plus the
    roundoff floor on the sum of the moduli, which covers the cancellation
    between the ends."""
    lo, b = pts
    # (sign, radius x, log(x^2 M^2)): x^2 overflows for p below 1e-154
    ends = [(1.0, b, 2.0 * math.log(b * Mval))]
    if lo:
        ends.append((-1.0, lo, 2.0 * math.log(lo * Mval)))
    # s + n summed exactly: float(s) + n would lose digits where it nears 0
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
            e2 = e + 2 * j  # sig + 1
            cw = c * w * x2 ** j
            if e2 == 0.0:
                block.append(cw * L ** (k + 1) / (2 * k + 2))
            else:
                block.extend(cw / e2 * (-2.0 / e2) ** i * math.perm(k, i)
                             * L ** (k - i) for i in range(k + 1))
        parts.extend(block)
        last = math.fsum(abs(v) for v in block)
        size += last
        if last <= _ROUNDOFF * size:
            break
    return math.fsum(parts), last + _ROUNDOFF * size


def _tail(f: PositionFunction, p, n, Mval, b) -> Tuple[float, float]:
    """int_b^inf f A_n(pr) r^(n-1) dr on the contour r = b + iu/p.  With
    J_nu = Re H1_nu it is the real part of (i/p) int_0^inf h(u) du, h = f
    Gamma(n/2) (2/z)^nu H1_nu(z) r^(n-1) at z = p r; the scaled hankel1e =
    H1 e^{-iz} takes the factor e^{ipb} e^{-u} out exactly, which leaves a
    smooth, non-oscillating integrand for Gauss-Laguerre nodes.  The
    estimate is |Q60 - Q40| plus a floor on sum w |h|: the roundoff floor,
    and the rounding of the phase p b, which moves the lower end by up to
    eps b."""
    nu = 0.5 * n - 1.0
    z = p * b + 1j * _CONTOUR_NODES
    r = z / p
    h = _profile(f, Mval)(r) * (2.0 / z) ** nu * special.hankel1e(nu, z) * r ** (n - 1)
    h *= 1j / p * cmath.exp(1j * p * b) * math.gamma(0.5 * n)
    fine = h[:_LAG_N] @ _LAG_WEIGHTS
    coarse = h[_LAG_N:] @ _LAG40_WEIGHTS
    floor = (_ROUNDOFF + sys.float_info.epsilon * p * b) * (np.abs(h[:_LAG_N]) @ _LAG_WEIGHTS)
    return float(fine.real), float(abs(fine - coarse) + floor)


def _profile(f: PositionFunction, Mval: float):
    """f on an array of radii, real or on the contour (Re r > 0, principal
    branches)."""
    data = [(t.coeff.evalf(), float(t.rpow), t.logpow) for t in f.radial]

    def profile(r):
        lg = 2.0 * np.log(r * Mval)  # log(r^2 M^2) for Re r > 0; r^2 may overflow
        fr = np.zeros_like(r)
        for c, a, k in data:
            fr += c * r ** a * lg ** k
        return fr

    return profile


def _vector_integrand(f: PositionFunction, p: float, n: int, Mval: float):
    """f A_n(pr) r^(n-1) on an array of real radii r > 0, the integrand of
    the damped cross-check tail."""
    nu = 0.5 * n - 1.0
    gfac = math.gamma(0.5 * n)
    profile = _profile(f, Mval)

    def vec(r):
        z = p * r
        return profile(r) * (gfac * (2.0 / z) ** nu * special.jv(nu, z)) * r ** (n - 1)

    return vec


def _tail_damping(vintegrand, p, b) -> Tuple[float, float]:
    """Integrate the tail on the real axis with an exponential regulator
    e^{-d p (r-b)} for each damping d, then extrapolate polynomially to
    d = 0.  Fixed-order Gauss-Legendre per half-period: the damped
    integrand is smooth there, and fixed nodes keep the result
    bit-deterministic."""
    half = math.pi / p
    scale = half * 0.5
    samples = []
    abs_mass = 0.0
    chunk = 256
    for d in DAMPINGS:
        vals: List[float] = []
        k0 = 0
        while True:
            ks = np.arange(k0, k0 + chunk, dtype=float)
            a = b + ks * half
            r = a[:, None] + (_GL_NODES[None, :] + 1.0) * scale
            g = vintegrand(r.ravel()).reshape(r.shape)
            g *= np.exp(-d * p * (r - b))
            panel = scale * (g @ _GL_WEIGHTS)
            vals.extend(panel.tolist())
            abs_mass += float(np.sum(np.abs(panel)))
            k0 += chunk
            if float(np.max(np.abs(panel))) < 1e-15:
                break
            if k0 > 400000:
                raise ConvergenceError("damped tail failed to decay")
        samples.append((d, math.fsum(vals)))
    value = _neville_at_zero(samples)
    # dropping the largest damping lowers the extrapolation order by one;
    # the difference bounds the leading extrapolation error
    probe = _neville_at_zero(samples[1:])
    err = abs(value - probe) + 1e-15 * abs_mass
    return value, err


def _neville_at_zero(samples: Sequence[Tuple[float, float]]) -> float:
    xs = [s[0] for s in samples]
    ys = [s[1] for s in samples]
    m = len(xs)
    for level in range(1, m):
        for i in range(m - level):
            # ys[i] holds the value at x=0 of the interpolant through
            # nodes i..i+level-1; combine with the neighbour one down
            ys[i] = (xs[i + level] * ys[i] - xs[i] * ys[i + 1]) / (
                xs[i + level] - xs[i]
            )
    return ys[0]
