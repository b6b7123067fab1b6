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

Both pieces are moment tables.  With l = log(x^2 M^2) at an end x, a term
c r^a L^k contributes c x^(a+n) times a polynomial in l whose coefficients
depend on the dim, the exponent a, k and p x alone, not on M or c: the
panel's end series at p x (_end_series), and the node sums of the unit
terms on the contour (_tail_moment, over the Hankel kernel of
_contour_table).  From b = pi/p one bounded lru_cache table per unit term,
_start_moments, holds the panel's end at b and the contour, so a transform
does scalar work only; a truncation radius below pi/p takes off its end
series at p eps, summed uncached, and one beyond pi/p starts the contour
elsewhere, new _tail_moment entries.

All of it is deterministic pure Python, its Gauss-Laguerre rules and Hankel
kernel included, and serves dims up to 10.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable, Sequence
from functools import lru_cache

from .algebra import PositionFunction, radial_derivative
from .coeffs import sphere_area
from .errors import ConvergenceError, DimensionMismatchError, EvaluationError, NonIntegrableError
from .surface import angular_series


_LAG_N = 60  # contour nodes; the estimate compares them with 40


@lru_cache(maxsize=8, typed=True)
def _laguerre_rule(n: int, alpha: float = 0.0) -> tuple[tuple[float, ...], ...]:
    """Gauss-Laguerre nodes and weights for the weight x^alpha e^-x, from the
    three-term recurrence of the orthonormal Laguerre polynomials q_k: each
    node by Newton's method on q_n from the Stroud-Secrest guess, and the
    weights 1 / sum_{k<n} q_k(x)^2 (the Christoffel function)."""

    def values(x):  # q_0(x) .. q_n(x)
        out = [0.0, 1.0 / math.sqrt(math.gamma(alpha + 1))]
        for k in range(n):
            out.append(((2 * k + 1 + alpha - x) * out[-1] - math.sqrt(k * (k + alpha))
                        * out[-2]) / math.sqrt((k + 1) * (k + 1 + alpha)))
        return out[1:]

    nodes, weights = [], []
    for i in range(n):
        if i == 0:
            x = (1 + alpha) * (3 + 0.92 * alpha) / (1 + 2.4 * n + 1.8 * alpha)
        elif i == 1:
            x += (15 + 6.25 * alpha) / (1 + 0.9 * alpha + 2.5 * n)
        else:
            x += ((1 + 2.55 * (i - 1)) / (1.9 * (i - 1)) + 1.26 * (i - 1) * alpha
                  / (1 + 3.5 * (i - 1))) * (x - nodes[-2]) / (1 + 0.3 * alpha)
        for _ in range(100):
            q = values(x)
            step = x * q[n] / (n * q[n] - math.sqrt(n * (n + alpha)) * q[n - 1])
            x -= step
            if abs(step) <= 4 * _EPS * x:
                break
        nodes.append(x)
        weights.append(1.0 / math.fsum(v * v for v in values(x)[:n]))
    return tuple(nodes), tuple(weights)


def _hankel_scaled(nu: float, z: complex) -> complex:
    """H1_nu(z) e^{-iz} for Re z > 0 and nu = n/2 - 1, by the recurrence
    H_{v+1} = (2v/z) H_v - H_{v-1}, stable upward for H1: from the closed
    forms (1, -i) sqrt(2/(pi z)) at v = -1/2, 1/2, or from v = 0, 1 by the
    integral sqrt(2/(pi z)) e^{-i(v pi/2 + pi/4)} / Gamma(v+1/2) int_0^inf
    e^-u u^(v-1/2) s^(2v-1) du, s = sqrt(1 + iu/(2z)) (DLMF 10.9), on the
    24-node rule with alpha = -1/2: v = 1 takes u^(1/2) as u u^(-1/2), so
    one s per node serves both."""
    front = cmath.sqrt(2.0 / (math.pi * z))
    if nu != int(nu):
        lo, hi, v = front, -1j * front, -0.5
    else:
        i0 = i1 = 0.0
        for u, w in zip(*_laguerre_rule(24, -0.5)):
            s = cmath.sqrt(1.0 + 0.5j * u / z)
            i0 += w / s
            i1 += w * u * s
        front *= cmath.exp(-0.25j * math.pi) / math.sqrt(math.pi)
        lo, hi, v = front * i0, -2j * front * i1, 0.0
    while v < nu:
        lo, hi, v = hi, 2.0 * (v + 1.0) / z * hi - lo, v + 1.0
    return lo


def angular_kernel(n: int, z: float) -> float:
    """Spherical average of the plane wave over a radius with p r = z,
    A_n(z) = Gamma(n/2) (2/z)^nu J_nu(z), nu = n/2 - 1: its Taylor series
    (surface.angular_series) up to z = pi, and Gamma(n/2) (2/z)^nu
    Re(H1_nu(z)) beyond."""
    if z <= math.pi:
        return math.fsum(float(c) * z ** (2 * i) for i, c in enumerate(angular_series(n, 20)))
    nu = 0.5 * n - 1.0
    return (math.gamma(0.5 * n) * (2.0 / z) ** nu
            * (_hankel_scaled(nu, z) * cmath.exp(1j * z)).real)


# -- main entry points -------------------------------------------------


def hankel_numeric(
    f: PositionFunction, p: float, n: int, Mval: float = 1.0
) -> tuple[float, float]:
    """Radial Fourier transform at momentum p; returns (value, errEstimate)."""
    if not isinstance(f, PositionFunction):
        raise EvaluationError("the oracle transforms power-log functions only")
    if f.local:
        raise EvaluationError("numeric transform of delta terms is exact, "
                              "not quadrature; strip the local part")
    return _radial_transform(f, p, n, Mval, 0.0)


def truncated_ft_numeric(
    f: PositionFunction, p: float, n: int, Mval: float, epsilon: float
) -> tuple[float, float]:
    """Transform restricted to the region r > epsilon."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise EvaluationError("epsilon must be finite and positive")
    if not isinstance(f, PositionFunction) or f.local:
        raise EvaluationError("truncated transform needs a radial-only function")
    return _radial_transform(f, p, n, Mval, epsilon)


def gauss_flux_numeric(
    f: PositionFunction, radius: float, n: int, Mval: float = 1.0
) -> float:
    """Flux of grad f through the radius sphere:
    Omega_{n-1} radius^(n-1) f'(radius)."""
    if n != f.dim:
        raise DimensionMismatchError(f"dim {n} != dim {f.dim} of the function")
    if not (radius > 0 and math.isfinite(radius)):
        raise EvaluationError("radius must be finite and positive")
    return _omega(n) * radius ** (n - 1) * radial_derivative(f, radius, Mval)


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


# the highest dim served: every window exponent r^a log^k, k <= 3, M = 1,
# at 21 log-spaced p in [1e-3, 1e2] is within its estimate in dims 2-10,
# while dim 11 fails 11 of 840 such cases and dim 12 190 of 924
_MAX_DIM = 10


def _radial_transform(f, p, n, Mval, lo) -> tuple[float, float]:
    if n != f.dim:
        raise DimensionMismatchError(f"dim {n} != dim {f.dim} of the function")
    if not lo:  # from r = 0, each term must be integrable
        for t in f.radial:
            if t.rpow <= -n:
                raise NonIntegrableError(f"term r^{t.rpow} is not integrable at the "
                                         f"origin in dim {n}; use truncated_ft_numeric")
    if n > _MAX_DIM:
        raise EvaluationError(f"the oracle serves dims up to {_MAX_DIM}, not dim {n}")
    if not (math.isfinite(p) and math.isfinite(Mval)):
        raise EvaluationError("p and M must be finite")
    if not (p > 0 and Mval > 0):
        raise EvaluationError("p and M must be positive")
    omega = _omega(n)

    # the real axis up to b, the contour from b.  Far outside the documented
    # p range a scale b^(a+n) leaves the normal floats, the profile
    # overflows at b, or the contour starts where its phase is lost; a
    # coefficient past the floats is out of range too (OverflowError)
    pts = _panel_points(lo, p)
    b = pts[-1]
    main_val = main_err = 0.0
    try:
        # (float coefficient, exact exponent, log power) of each term, read once
        terms = [(t.coeff.evalf(), t.rpow, t.logpow) for t in f.radial]
        # the tail holds a panel from r = 0: a truncation radius takes off [0, lo]
        if 0 < lo < b:
            main_val, main_err = _quad_panels(terms, p, n, Mval, pts)
        tail_val, tail_err = _tail(terms, p, n, Mval, pts)
        value = omega * (main_val + tail_val)
        err = omega * (main_err + tail_err)
    except OverflowError:
        value = err = math.inf
    if not (math.isfinite(value) and math.isfinite(err)):
        raise EvaluationError(
            f"no finite transform at p={p!r}, M={Mval!r}, truncation radius "
            f"{lo!r}: outside the oracle's range"
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


@lru_cache(maxsize=16, typed=True)
def _omega(n: int) -> float:
    """The sphere area Omega_{n-1} as a float, one per dim."""
    return sphere_area(n).evalf()


def _panel_points(lo: float, p: float) -> list[float]:
    """The real-axis piece [lo, b], b = max(lo, pi/p), where the contour
    takes over; it is empty when lo >= pi/p."""
    return [lo, max(lo, math.pi / p)]


_EPS = sys.float_info.epsilon
# QUADPACK's roundoff floor: no panel estimate is below 50 eps int |g|
_ROUNDOFF = 50.0 * _EPS
_NORMAL = sys.float_info.min


def _scale(pb: float, p: float, e) -> float:
    """b^e = (pb/p)^e for a contour start pb and the exact exponent e = a + n
    of a term: the factor that takes its pieces from the unit start to b.
    It is pb^e p^-e, since the input p is exact where b = pi/p is rounded,
    and a power multiplies that rounding e-fold.  A factor or product that
    overflows, or underflows below the normal floats, raises OverflowError,
    which the transform reports as out of range: it never becomes a silent
    0."""
    e = float(e)
    head, tail = pb ** e, p ** -e
    s = head * tail
    if not (_NORMAL <= min(head, tail, s) and max(head, tail, s) < math.inf):
        raise OverflowError
    return s


def _quad_panels(terms, p, n, Mval, pts: Sequence[float]) -> tuple[float, float]:
    """Minus the antiderivative at the truncation radius lo < pi/p of pts =
    [lo, b]: the real-axis piece [lo, b] less the antiderivative at b that
    _tail holds.  Each term (c, s, k) read by _radial_transform gives c
    lo^(s+n) times the end series at p lo, summed per call so that no
    radius enters a shared table; lo^(s+n) may underflow to 0, a negligible
    end.  The estimate sums |c lo^(s+n) l^d| bound_d."""
    lo = pts[0]
    ell = 2.0 * (math.log(lo) + math.log(Mval))
    value = err = 0.0
    for c, s, k in terms:
        # s + n summed exactly: float(s) + n would lose digits where it nears 0
        power = -c * lo ** float(s + n)
        for coef, bound in _end_series(n, s, k, p * lo):
            value += power * coef
            err += abs(power) * bound
            power *= ell
    return value, err


def _end_series(n: int, rpow, k: int, z: float) -> tuple[tuple[float, float], ...]:
    """The antiderivative of r^rpow L^k A_n(pr) r^(n-1), L = log(r^2 M^2),
    at an end x with p x = z, as x^(rpow+n) sum_d coefficient l^d, l =
    log(x^2 M^2), d = 0..k+1: pairs (coefficient, bound).  A_n(z) = sum_j
    alpha_j z^(2j), alpha_j = -alpha_{j-1} / (2j (n+2j-2)), leaves int
    r^sig L^k dr, sig = rpow+n-1+2j, with antiderivative r^(sig+1)/(sig+1)
    sum_i (-2/(sig+1))^i k!/(k-i)! L^(k-i), or L^(k+1)/(2(k+1)) at sig =
    -1, 0 at r = 0 where the term is integrable.  The series in j runs until
    the last term of every power of l is below eps of its moduli; a bound is
    that last term plus the roundoff floor on the moduli."""
    coef = [0.0] * (k + 2)
    size = [0.0] * (k + 2)
    last = [0.0] * (k + 2)
    # sig + 1 = e2 = rpow+n+2j = top/den exactly, in integers: the series
    # runs per call at a truncation radius, where Fraction arithmetic costs
    # more than the sum, and int / int rounds as float(Fraction) does
    top, den = (rpow + n).as_integer_ratio()
    w = 1.0  # alpha_j z^(2j)
    for j in range(32):
        if j:
            w *= -z ** 2 / (2 * j * (n + 2 * j - 2))
            top += 2 * den
        if top == 0:
            coef[k + 1] = w / (2 * k + 2)
            size[k + 1] = abs(coef[k + 1])
            continue
        e2 = top / den
        for i in range(k + 1):
            v = w * math.perm(k, i) * (-2.0) ** i / e2 ** (i + 1)
            last[k - i] = abs(v)
            coef[k - i] += v
            size[k - i] += last[k - i]
        if top > 0 and all(last[d] <= _EPS * size[d] for d in range(k + 1)):
            break
    return tuple((c, r + _ROUNDOFF * m) for c, m, r in zip(coef, size, last))


def _tail(terms, p, n, Mval, pts: Sequence[float]) -> tuple[float, float]:
    """int_b^inf f A_n(pr) r^(n-1) dr on the contour r = b + iu/p, pts =
    [lo, b], plus the antiderivative at b where a panel [lo, b] ends there.
    With J_nu = Re H1_nu the contour integral is the real part of
    int_0^inf h(u) e^{-u} du, h = (i/p) e^{ipb} f Gamma(n/2) (2/z)^nu
    H1_nu(z) e^{-iz} r^(n-1) at z = p r: the scaled H1 e^{-iz}
    (_hankel_scaled) takes e^{ipb} e^{-u} out exactly, which leaves a
    smooth, non-oscillating h for Gauss-Laguerre nodes.  With r = b (z/pb)
    and L = l + 2 log(z/pb), l = log(b^2 M^2), a term c r^a L^k gives c
    b^(a+n) sum_d C(k, d) l^d T_(k-d), T_j the node sum of the unit term
    (z/pb)^a (2 log(z/pb))^j on the kernel (_tail_moment).  The start is pi
    when b = pi/p (within 1 ulp of p b, inside the floor's phase term), and
    a panel's end at b has the same b^(a+n) and l: _start_moments holds
    both.  The estimate is |Q60 - Q40| plus a floor on sum w |h| from the
    tables: roundoff and the rounding of p b, which moves the lower end by
    up to eps b; plus the panel's bounds.  A term that overflows at b (r^-1
    log^3 in dim 2 at p = 1e300) is out of range.  f comes as the terms (c,
    a, k) that _radial_transform reads."""
    lo, b = pts
    pb = math.pi if b == math.pi / p else p * b
    ell = 2.0 * (math.log(b) + math.log(Mval))
    value = diff = err = 0.0
    for c, a, k in terms:
        if b ** float(a) * abs(ell) ** k == math.inf:
            raise OverflowError
        w = c * _scale(pb, p, a + n)
        for coef, q_diff, bound in (_start_moments(n, a, k) if lo < b
                                    else _contour_moments(n, pb, a, k)):
            value += w * coef
            diff += w * q_diff
            err += abs(w) * bound
            w *= ell
    return value, abs(diff) + err


def _contour_moments(n: int, pb: float, rpow, k: int) -> list[tuple[float, complex, float]]:
    """The contour's share of the l^d coefficient of a term r^rpow L^k, d =
    0..k (see _tail): C(k, d) times Re Q60, Q60 - Q40 and the floor."""
    out = []
    for d in range(k + 1):
        q60, q_diff, q_floor = _tail_moment(n, pb, rpow, k - d)
        c = math.comb(k, d)
        out.append((c * q60.real, c * q_diff, c * q_floor))
    return out


# the window exponents of dims 2-10 with log powers 0-3 take 180 entries
@lru_cache(maxsize=256, typed=True)
def _start_moments(n: int, rpow, k: int) -> tuple[tuple[float, complex, float], ...]:
    """The panel [0, b] and the contour from b = pi/p of the unit term
    r^rpow L^k: (value, Q60 - Q40, bound) of b^(rpow+n) l^d, d = 0..k+1, the
    sums of the end series' pair at pi and _contour_moments' triple."""
    tail = _contour_moments(n, math.pi, rpow, k) + [(0.0, 0j, 0.0)]
    return tuple((coef + v, q_diff, bound + floor)
                 for (coef, bound), (v, q_diff, floor) in zip(_end_series(n, rpow, k, math.pi), tail))


@lru_cache(maxsize=64, typed=True)
def _contour_table(n: int, pb: float) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The contour from p r = pb, shared by every tail that starts there:
    the nodes z = pb + i x_k (the 60 Gauss-Laguerre nodes, then the 40),
    and the kernel i e^{i pb} Gamma(n/2) (2/z)^nu H1_nu(z) e^{-iz} z^(n-1)
    on them, nu = n/2 - 1.  Filled on first use; a start other than pi (a
    truncation radius beyond pi/p) is a new entry.  A start with eps pb >
    1/2 raises OverflowError: its phase e^{i pb} is lost to rounding."""
    if _EPS * pb > 0.5:
        raise OverflowError
    nu = 0.5 * n - 1.0
    front = 1j * cmath.exp(1j * pb) * math.gamma(0.5 * n)
    z = tuple(pb + 1j * x for x in _laguerre_rule(_LAG_N)[0] + _laguerre_rule(40)[0])
    return z, tuple(front * (2.0 / w) ** nu * _hankel_scaled(nu, w) * w ** (n - 1) for w in z)


# the window exponents of dims 2-10 with log powers 0-3 take 180 entries at
# the start pi; the rest is room for starts past pi and other exponents
@lru_cache(maxsize=1024, typed=True)
def _tail_moment(n: int, pb: float, rpow, j: int) -> tuple[complex, complex, float]:
    """The moments of the unit term (z/pb)^rpow (2 log(z/pb))^j on the
    contour table (n, pb): its 60-node sum Q60 of h, Q60 - Q40, and the
    floor (roundoff + eps pb) sum w |h| over the 60 nodes, h from
    _vector_integrand.  Keyed on the exact rpow."""
    z, kernel = _contour_table(n, pb)
    h = _vector_integrand(rpow, j, pb, n, kernel)(z)
    w60, w40 = _laguerre_rule(_LAG_N)[1], _laguerre_rule(40)[1]
    fine = sum(w * x for w, x in zip(w60, h))
    coarse = sum(w * x for w, x in zip(w40, h[_LAG_N:]))
    size = sum(w * abs(x) for w, x in zip(w60, h))
    return fine, fine - coarse, (_ROUNDOFF + _EPS * pb) * size


def _vector_integrand(rpow, j: int, pb: float, n: int, kernel):
    """The tail's integrand h (see _tail) of the unit term r^rpow (2 log
    r)^j, r = z/pb, on the contour points z of a table (Re z > 0,
    principal branches): the term times the table's kernel column, pb^(1-n),
    which turns its z^(n-1) into r^(n-1), and 1/pb.  _tail_moment calls it
    once per table entry."""
    a = float(rpow)

    def vec(z):
        h = []
        for zk, kk in zip(z, kernel):
            r = zk / pb
            h.append(r ** a * (2.0 * cmath.log(r)) ** j * kk * pb ** (1 - n) / pb)
        return h

    return vec
