"""Independent numerical oracle for the symbolic layer.

Radial reduction: int e^{ip.x} f(r) d^n x = Omega_{n-1} int_0^inf f(r)
A_n(p r) r^(n-1) dr with A_n(z) = Gamma(n/2) (2/z)^(n/2-1) J_{n/2-1}(z).
The finite range is cut into panels at geometric breakpoints near the lower
end and at oscillation half-periods.  Every panel gets fixed Gauss-Legendre
nodes, all panels in one array evaluation, except a PositionFunction's panel
reaching down to the origin, where it is singular: that one is integrated in
closed form over the Taylor series of A_n.  The conditionally convergent
tail beyond R = tail_radius_factor / p is summed by an asymptotic
integration-by-parts series built on the large-argument Hankel expansion
whenever f is a PositionFunction.  A callable profile has no series, so its tail is
integrated with exponential damping and extrapolated to zero damping; the
same damping ladder is the independent cross-check of the series
(tail_cross_check).  Both paths are deterministic.  numpy and scipy.special
load on the first quadrature call, so importing diffreg does not pay for them.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .algebra import PositionFunction, radial_derivative
from .coeffs import sphere_area
from .errors import ConvergenceError, EvaluationError, NonIntegrableError

Profile = Union[PositionFunction, Callable[[float], float]]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    tail_radius_factor: float = 200.0  # R = factor / p
    # damping rates in units of p (the tail regulator is e^{-d p (r-R)}, so
    # the decay per oscillation is the same at every p); geometric ladder,
    # five levels so the Richardson table reaches quartic order (three
    # levels leave the extrapolant short of the 1e-6 cross-regulator
    # agreement)
    dampings: Tuple[float, ...] = (0.02, 0.01, 0.005, 0.0025, 0.00125)
    tail_cross_check: bool = False
    tail_cross_tol: float = 1e-6

    def __post_init__(self):
        values = (self.rel_tol, self.abs_tol, self.tail_radius_factor,
                  self.tail_cross_tol, *self.dampings)
        # "not x > 0" rather than "x <= 0", so that nan is rejected too
        if not all(x > 0 and math.isfinite(x) for x in values):
            raise ValueError(
                "tolerances, tail radius factor and dampings must be finite "
                "and positive"
            )
        d = self.dampings
        if len(d) < 2 or any(a <= b for a, b in zip(d, d[1:])):
            raise ValueError(
                "damping list needs at least two entries, strictly decreasing"
            )


DEFAULT_CONFIG = QuadratureConfig()


def gaussian_profile(r: float) -> float:
    """Built-in smooth test profile exp(-r^2)."""
    return math.exp(-r * r)


# numpy, scipy.special and the Gauss-Legendre tables, bound by _load on the
# first quadrature or Bessel call; special doubles as the loaded flag
np = special = None
_GL_NODES = _GL_WEIGHTS = _GL12_NODES = _GL12_WEIGHTS = _PANEL_NODES = None


def _load() -> None:
    global np, special
    global _GL_NODES, _GL_WEIGHTS, _GL12_NODES, _GL12_WEIGHTS, _PANEL_NODES
    import numpy as np

    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
    _GL12_NODES, _GL12_WEIGHTS = np.polynomial.legendre.leggauss(12)
    _PANEL_NODES = np.concatenate([_GL_NODES, _GL12_NODES])
    from scipy import special  # last: the flag is set once all is bound


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
    f: Profile,
    p: float,
    n: int,
    Mval: float = 1.0,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Tuple[float, float]:
    """Radial Fourier transform at momentum p; returns (value, errEstimate)."""
    if isinstance(f, PositionFunction):
        if f.local:
            raise EvaluationError("numeric transform of delta terms is exact, "
                                  "not quadrature; strip the local part")
        for t in f.radial:
            if t.rpow <= -n:
                raise NonIntegrableError(
                    f"term r^{t.rpow} is not integrable at the origin in "
                    f"dim {n}; use truncated_ft_numeric"
                )
    return _radial_transform(f, p, n, Mval, 0.0, cfg)


def truncated_ft_numeric(
    f: PositionFunction,
    p: float,
    n: int,
    Mval: float,
    epsilon: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> Tuple[float, float]:
    """Transform restricted to the region r > epsilon."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise EvaluationError("epsilon must be finite and positive")
    if not isinstance(f, PositionFunction) or f.local:
        raise EvaluationError("truncated transform needs a radial-only function")
    return _radial_transform(f, p, n, Mval, epsilon, cfg)


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


def _radial_transform(f, p, n, Mval, lo, cfg) -> Tuple[float, float]:
    if not (math.isfinite(p) and math.isfinite(Mval)):
        raise EvaluationError("p and M must be finite")
    if p < 0 or Mval <= 0:
        raise EvaluationError("p must be non-negative and M positive")
    if special is None:
        _load()
    omega = sphere_area(n).evalf()

    if p == 0.0:
        if isinstance(f, PositionFunction):
            raise EvaluationError(
                "p = 0 is only supported for decaying callable profiles"
            )
        val, err = _quad_panels(f, p, n, Mval, _panel_points(lo, 50.0, math.inf))
        return omega * val, omega * err

    # a truncation radius beyond tail_radius_factor / p leaves only the tail
    R = max(cfg.tail_radius_factor / p, lo)
    half = math.pi / p
    main_val, main_err = _quad_panels(f, p, n, Mval, _panel_points(lo, R, half))

    tail_val, tail_err = _tail(f, p, n, Mval, R, cfg)
    if cfg.tail_cross_check and isinstance(f, PositionFunction):
        other_val, _ = _tail_damping(_vector_integrand(f, p, n, Mval), p, R, cfg)
        scale_ref = abs(main_val + tail_val) + cfg.abs_tol
        if abs(other_val - tail_val) > cfg.tail_cross_tol * scale_ref:
            raise ConvergenceError(
                f"tail regulators disagree: {tail_val!r} vs {other_val!r}",
                partial=omega * (main_val + tail_val),
            )

    value = omega * (main_val + tail_val)
    err = omega * (main_err + tail_err)
    budget = cfg.rel_tol * abs(value) + cfg.abs_tol
    # the tail extrapolation estimate is conservative; only a gross failure
    # of the budget is treated as non-convergence
    if err > 100.0 * budget and err > 1e-6 * abs(value):
        raise ConvergenceError(
            f"error estimate {err:.3e} exceeds tolerance budget {budget:.3e}",
            partial=value,
            err_estimate=err,
        )
    return value, err


_GRID_START = 1e-6  # the geometric breakpoints start here when lo = 0


def _panel_points(lo: float, hi: float, half: float) -> List[float]:
    """Deterministic breakpoints: geometric refinement near the lower end
    (steep power-law behaviour) plus oscillation half-periods."""
    pts = [lo]
    x = (lo or _GRID_START) * 4.0
    while x < min(half, hi):
        pts.append(x)
        x *= 4.0
    # the first half-period past the last point; half = inf (p = 0) adds none
    k = max(1, int(pts[-1] // half))
    while k * half < hi:
        if k * half > pts[-1]:
            pts.append(k * half)
        k += 1
    if pts[-1] < hi:
        pts.append(hi)
    return pts


# QUADPACK's roundoff floor: no panel estimate is below 50 eps int |g|
_ROUNDOFF = 50.0 * sys.float_info.epsilon


def _quad_panels(f: Profile, p, n, Mval, pts: Sequence[float]) -> Tuple[float, float]:
    """Integral of f A_n(pr) r^(n-1) over the panels between pts: fixed
    24-point Gauss-Legendre nodes, all in one array evaluation, with the
    estimate |GL24 - GL12| plus the roundoff floor per panel.  Only a
    PositionFunction's first panel, if it starts at r = 0 (where the
    profile is singular), is integrated in closed form."""
    vals, errs = [], []
    if isinstance(f, PositionFunction) and pts[0] == 0.0:
        v, e = _origin_panel(f, p, n, Mval, pts[1])
        vals, errs, pts = [v], [e], pts[1:]
    if len(pts) > 1:
        edges = np.asarray(pts, dtype=float)
        a = edges[:-1]
        scale = 0.5 * (edges[1:] - a)
        r = a[:, None] + (_PANEL_NODES[None, :] + 1.0) * scale[:, None]
        g = _array_integrand(f, p, n, Mval)(r.ravel()).reshape(r.shape)
        g24, g12 = g[:, : len(_GL_NODES)], g[:, len(_GL_NODES):]
        fine = scale * (g24 @ _GL_WEIGHTS)
        coarse = scale * (g12 @ _GL12_WEIGHTS)
        floor = _ROUNDOFF * scale * (np.abs(g24) @ _GL_WEIGHTS)
        vals.extend(fine.tolist())
        errs.extend((np.abs(fine - coarse) + floor).tolist())
    return math.fsum(vals), math.fsum(errs)


def _origin_panel(f: PositionFunction, p, n, Mval, b) -> Tuple[float, float]:
    """int_0^b f A_n(pr) r^(n-1) dr in closed form.  With A_n(z) =
    sum_j alpha_j z^(2j), alpha_j = -alpha_{j-1} / (2j (n+2j-2)), each term
    c r^s L^k, L = log(r^2 M^2), integrates by parts: int_0^b r^sig L^k dr =
    b^(sig+1)/(sig+1) sum_i (-2/(sig+1))^i k!/(k-i)! L(b)^(k-i), where
    sig = s+n-1+2j > -1 because f is integrable at the origin.  The panel
    ends at the first half-period or before, so p b <= pi and the sum stops
    once a j-block is below roundoff; the estimate is that block plus the
    roundoff floor on the sum of the moduli."""
    L = math.log(b * b * Mval * Mval)
    # s + n summed exactly: float(s) + n would lose digits where it nears 0
    terms = [(t.coeff.evalf() * b ** float(t.rpow + n), float(t.rpow + n), t.logpow)
             for t in f.radial]
    parts = []
    size = 0.0
    w = 1.0  # alpha_j (p b)^(2j)
    for j in range(32):
        if j:
            w *= -(p * b) ** 2 / (2 * j * (n + 2 * j - 2))
        block = []
        for c, e, k in terms:
            e2 = e + 2 * j  # sig + 1
            block.extend(c * w / e2 * (-2.0 / e2) ** i * math.perm(k, i)
                         * L ** (k - i) for i in range(k + 1))
        parts.extend(block)
        last = math.fsum(abs(v) for v in block)
        size += last
        if last <= _ROUNDOFF * size:
            break
    return math.fsum(parts), last + _ROUNDOFF * size


def _tail(f, p, n, Mval, R, cfg) -> Tuple[float, float]:
    if isinstance(f, PositionFunction):
        return _tail_asymptotic(f, p, n, Mval, R, cfg)
    return _tail_damping(_vector_integrand(f, p, n, Mval), p, R, cfg)


def _vector_integrand(f: Profile, p: float, n: int, Mval: float):
    """Array integrand of the damped tail.  A separate function from the
    main panels' _array_integrand, so the benchmark tracer counts tail
    evaluations apart."""
    return _array_integrand(f, p, n, Mval)


def _array_integrand(f: Profile, p: float, n: int, Mval: float):
    """f A_n(pr) r^(n-1) on an array of radii (r > 0 only); the kernel is 1
    at p = 0."""
    nu = 0.5 * n - 1.0
    gfac = math.gamma(0.5 * n)
    if isinstance(f, PositionFunction):
        data = [(t.coeff.evalf(), float(t.rpow), t.logpow) for t in f.radial]

        def profile(r):
            lg = np.log(r * r * (Mval * Mval))
            fr = np.zeros_like(r)
            for c, a, k in data:
                fr += c * r ** a * lg ** k
            return fr
    else:
        profile = np.vectorize(f, otypes=[float])

    def vec(r):
        z = p * r
        kern = gfac * (2.0 / z) ** nu * special.jv(nu, z) if p else 1.0
        return profile(r) * kern * r ** (n - 1)

    return vec


def _tail_damping(vintegrand, p, R, cfg) -> Tuple[float, float]:
    """Integrate the tail with an exponential regulator e^{-d p (r-R)} for
    each damping d, then extrapolate polynomially to d = 0.  Fixed-order
    Gauss-Legendre per half-period: the damped integrand is smooth there,
    and fixed nodes keep the result bit-deterministic."""
    half = math.pi / p
    scale = half * 0.5
    samples = []
    abs_mass = 0.0
    chunk = 256
    for d in cfg.dampings:
        vals: List[float] = []
        k0 = 0
        while True:
            ks = np.arange(k0, k0 + chunk, dtype=float)
            a = R + ks * half
            r = a[:, None] + (_GL_NODES[None, :] + 1.0) * scale
            g = vintegrand(r.ravel()).reshape(r.shape)
            g *= np.exp(-d * p * (r - R))
            panel = scale * (g @ _GL_WEIGHTS)
            vals.extend(panel.tolist())
            abs_mass += float(np.sum(np.abs(panel)))
            k0 += chunk
            if float(np.max(np.abs(panel))) < cfg.abs_tol * 1e-3:
                break
            if k0 > 400000:
                raise ConvergenceError("damped tail failed to decay")
        samples.append((d, math.fsum(vals)))
    value = _neville_at_zero(samples)
    if len(samples) > 2:
        # dropping the largest damping lowers the extrapolation order by
        # one; the difference bounds the leading extrapolation error
        probe = _neville_at_zero(samples[1:])
    else:
        probe = samples[-1][1]
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


def _hankel_asymptotic_coeffs(nu: float, mmax: int) -> List[float]:
    """a_m(nu) of the large-argument expansion
    H1_nu(z) ~ sqrt(2/(pi z)) e^{i(z - nu pi/2 - pi/4)} sum_m i^m a_m z^-m."""
    out = [1.0]
    for m in range(1, mmax + 1):
        out.append(out[-1] * (4.0 * nu * nu - (2 * m - 1) ** 2) / (m * 8.0))
    return out


def _tail_asymptotic(f: PositionFunction, p, n, Mval, R, cfg) -> Tuple[float, float]:
    """Tail of int_R^inf f A_n(pr) r^(n-1) dr by repeated integration by
    parts of Re[e^{ipr} G(r)] with G a finite sum of complex power-log
    terms from the Hankel expansion."""
    nu = 0.5 * n - 1.0
    mmax = 8
    am = _hankel_asymptotic_coeffs(nu, mmax)
    phase = cmath.exp(-1j * (nu * math.pi / 2.0 + math.pi / 4.0))
    front = math.gamma(0.5 * n) * (2.0 / p) ** nu * math.sqrt(2.0 / (math.pi * p))
    lnM2 = math.log(Mval * Mval)

    # G(r) = sum of gamma * r^rho * ln(r)^t, keyed by (rho, t) so that
    # like terms merge instead of multiplying under repeated derivatives
    terms: Dict[Tuple[float, int], complex] = defaultdict(complex)
    trunc = 0.0
    for t in f.radial:
        a = float(t.rpow)
        cv = t.coeff.evalf()
        for tt in range(t.logpow + 1):
            # log(r^2 M^2)^k expanded in ln r
            binom = math.comb(t.logpow, tt)
            cfac = cv * binom * lnM2 ** (t.logpow - tt) * 2.0 ** tt
            for m in range(mmax + 1):
                gam = (
                    cfac
                    * front
                    * phase
                    * (1j ** m)
                    * am[m]
                    * p ** (-m)
                )
                rho = a + (n - 1) - nu - 0.5 - m
                terms[rho, tt] += gam
            trunc += abs(cfac * front * am[mmax] * p ** (-mmax) * R ** (a + (n - 1) - nu - 0.5 - mmax)) * (
                1.0 + abs(math.log(R)) ** tt
            )

    def eval_terms(ts, r):
        # the value and the sum of the moduli; the moduli measure the size
        # of a term where the value cancels (log(r^2 M^2) vanishes at
        # r M = 1), so the series does not stop on a vanishing term
        lr = math.log(r)
        parts = [g * r ** rho * lr ** tt for (rho, tt), g in ts.items()]
        return sum(parts), sum(abs(x) for x in parts)

    def derive(ts):
        out: Dict[Tuple[float, int], complex] = defaultdict(complex)
        for (rho, tt), g in ts.items():
            out[rho - 1.0, tt] += g * rho
            if tt:
                out[rho - 1.0, tt - 1] += g * tt
        return out

    total = 0.0 + 0.0j
    eipr = cmath.exp(1j * p * R)
    cur = terms
    fac = 1.0 + 0.0j
    last = 0.0
    for j in range(12):
        fac *= -1.0 / (1j * p)
        value, size = eval_terms(cur, R)
        total += fac * value * eipr
        last = abs(fac) * size
        if last < cfg.abs_tol * 1e-3:
            break
        cur = derive(cur)
    return total.real, last + trunc
