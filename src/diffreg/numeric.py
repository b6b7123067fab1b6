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

Both pieces are moment tables.  With l = log(b^2 M^2), a term c r^a L^k
contributes c b^(a+n) times a polynomial in l whose coefficients depend on
the dim, the exponent a, k and the start p b alone, not on p, M or c: the
series at the panel's upper end p b = pi (_panel_moments), and the node sums
of the unit terms on the contour (_tail_moment, over the Hankel kernel of
_contour_table).  The start is pi for every tail from b = pi/p, so a
transform does scalar work only, over bounded lru_cache tables that fill
once per key in a process; a truncation radius below pi/p adds the series
at its own end, and one beyond pi/p starts the contour elsewhere, a new
table entry.

All of it is deterministic.  The oracle serves dims up to 10; numpy and
scipy.special load on the first quadrature call, and build the tables after
them, so importing diffreg does not pay for either, and a transform whose
tables are built does not reach them.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

from .algebra import PositionFunction, position_term, radial_derivative
from .coeffs import sphere_area
from .errors import ConvergenceError, EvaluationError, NonIntegrableError


# numpy, scipy.special and the Gauss-Laguerre tables of the contour, bound
# by _load on the first quadrature or Bessel call; special doubles as the
# loaded flag
np = special = None
_LAG_WEIGHTS = _LAG40_WEIGHTS = _CONTOUR_NODES = None
_LAG_N = 60  # contour nodes; the estimate compares them with 40


def _load() -> None:
    global np, special
    global _LAG_WEIGHTS, _LAG40_WEIGHTS, _CONTOUR_NODES
    import numpy as np

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
    f: PositionFunction, p: float, n: int, Mval: float = 1.0
) -> Tuple[float, float]:
    """Radial Fourier transform at momentum p; returns (value, errEstimate)."""
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
    return _radial_transform(f, p, n, Mval, 0.0)


def truncated_ft_numeric(
    f: PositionFunction, p: float, n: int, Mval: float, epsilon: float
) -> Tuple[float, float]:
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


# the highest dim served: every window exponent r^a log^k, k <= 3, M = 1,
# at 21 log-spaced p in [1e-3, 1e2] is within its estimate in dims 2-10,
# while dim 11 fails 11 of 840 such cases and dim 12 190 of 924
_MAX_DIM = 10


def _radial_transform(f, p, n, Mval, lo) -> Tuple[float, float]:
    if n > _MAX_DIM:
        raise EvaluationError(f"the oracle serves dims up to {_MAX_DIM}, not dim {n}")
    if not (math.isfinite(p) and math.isfinite(Mval)):
        raise EvaluationError("p and M must be finite")
    if not (p > 0 and Mval > 0):
        raise EvaluationError("p and M must be positive")
    if special is None:
        _load()
    omega = _omega(n)

    # the real axis up to b, the contour from b.  Far outside the documented
    # p range a scale b^(a+n) leaves the normal floats or the profile
    # overflows at b (OverflowError), or a contour table is not finite,
    # which the value and the estimate then show as nan
    pts = _panel_points(lo, p)
    b = pts[-1]
    main_val = main_err = 0.0
    try:
        if lo < b:
            main_val, main_err = _quad_panels(f, p, n, Mval, pts)
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


@lru_cache(maxsize=16)
def _omega(n: int) -> float:
    """The sphere area Omega_{n-1} as a float, one per dim."""
    return sphere_area(n).evalf()


def _panel_points(lo: float, p: float) -> List[float]:
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


def _quad_panels(f: PositionFunction, p, n, Mval, pts: Sequence[float]) -> Tuple[float, float]:
    """int_lo^b f A_n(pr) r^(n-1) dr over pts = [lo, b], b = pi/p, in closed
    form.  With A_n(z) = sum_j alpha_j z^(2j), alpha_j = -alpha_{j-1} /
    (2j (n+2j-2)), a term c r^s L^k, L = log(r^2 M^2), leaves int r^sig L^k
    dr, sig = s+n-1+2j, whose antiderivative r^(sig+1)/(sig+1) sum_i
    (-2/(sig+1))^i k!/(k-i)! L^(k-i), or L^(k+1)/(2(k+1)) at sig = -1, is
    taken at both ends; at r = 0 it vanishes, since sig > -1 where f is
    integrable.  At the upper end p b = pi, so the term is c b^(s+n) times a
    polynomial in l = log(b^2 M^2) whose coefficients depend on (n, s, k)
    alone: the table _panel_moments.  A truncation radius lo > 0 takes the
    series at its end, x^(s+n) alpha_j (p x)^(2j), term by term.  Either
    series runs until its last terms are below eps of the moduli summed.
    The estimate is the series remainder plus the roundoff floor on the sum
    of the moduli, which covers the cancellation between the ends."""
    lo, b = pts
    ell = 2.0 * math.log(b * Mval)
    value = err = 0.0
    for t in f.radial:
        power = t.coeff.evalf() * _scale(math.pi, p, t.rpow + n)
        for coef, bound in _panel_moments(n, t.rpow, t.logpow):
            value += power * coef
            err += abs(power) * bound
            power *= ell
    if lo:
        low_val, low_err = _lower_end(f, p, n, Mval, lo)
        value -= low_val
        err += low_err
    return value, err


@lru_cache(maxsize=256)
def _panel_moments(n: int, rpow, k: int) -> Tuple[Tuple[float, float], ...]:
    """The upper end of _quad_panels for the unit term r^rpow L^k: pairs
    (coefficient, bound) of l^d, d = 0..k+1, with the piece [0, pi/p]
    equal to b^(rpow+n) sum_d coefficient l^d.  The series in j runs at
    p b = pi and at the exact e2 = rpow+n+2j, past e2 = 0, whose term
    alpha_j pi^(2j) l^(k+1)/(2k+2) is the only one of degree k+1, until
    the last term of every power of l is below eps of its moduli.  A bound
    is that last term plus the roundoff floor on the moduli."""
    coef = [0.0] * (k + 2)
    size = [0.0] * (k + 2)
    last = [0.0] * (k + 2)
    w = 1.0  # alpha_j pi^(2j)
    for j in range(32):
        if j:
            w *= -math.pi ** 2 / (2 * j * (n + 2 * j - 2))
        e2 = rpow + n + 2 * j  # sig + 1, exact
        if e2 == 0:
            coef[k + 1] = w / (2 * k + 2)
            size[k + 1] = abs(coef[k + 1])
            continue
        for i in range(k + 1):
            v = w * math.perm(k, i) * (-2.0) ** i / float(e2) ** (i + 1)
            last[k - i] = abs(v)
            coef[k - i] += v
            size[k - i] += last[k - i]
        if e2 > 0 and all(last[d] <= _EPS * size[d] for d in range(k + 1)):
            break
    return tuple((c, r + _ROUNDOFF * m) for c, m, r in zip(coef, size, last))


def _lower_end(f: PositionFunction, p, n, Mval, x) -> Tuple[float, float]:
    """The antiderivative of _quad_panels at a truncation radius x < pi/p,
    with its estimate: the last j-block plus the roundoff floor.  The series
    runs past the last e2 <= 0, like the table's."""
    L = 2.0 * math.log(x * Mval)
    # s + n summed exactly: float(s) + n would lose digits where it nears 0
    terms = [(t.coeff.evalf() * x ** float(t.rpow + n), float(t.rpow + n), t.logpow)
             for t in f.radial]
    low = min((e for _, e, _ in terms), default=0.0)
    parts = []
    size = 0.0
    w = 1.0  # alpha_j (p x)^(2j)
    for j in range(32):
        if j:
            w *= -(p * x) ** 2 / (2 * j * (n + 2 * j - 2))
        block = []
        for c, e, k in terms:
            e2 = e + 2 * j  # sig + 1
            if e2 == 0.0:
                block.append(c * w * L ** (k + 1) / (2 * k + 2))
            else:
                block.extend(c * w / e2 * (-2.0 / e2) ** i * math.perm(k, i)
                             * L ** (k - i) for i in range(k + 1))
        parts.extend(block)
        last = math.fsum(abs(v) for v in block)
        size += last
        # not before the last e2 <= 0: at L = 0 a block can vanish early
        if last <= _EPS * size and low + 2 * j > 0:
            break
    return math.fsum(parts), last + _ROUNDOFF * size


def _tail(f: PositionFunction, p, n, Mval, b) -> Tuple[float, float]:
    """int_b^inf f A_n(pr) r^(n-1) dr on the contour r = b + iu/p.  With
    J_nu = Re H1_nu it is the real part of int_0^inf h(u) e^{-u} du, h =
    (i/p) e^{ipb} f Gamma(n/2) (2/z)^nu H1_nu(z) e^{-iz} r^(n-1) at z = p r:
    the scaled hankel1e = H1 e^{-iz} takes the factor e^{ipb} e^{-u} out
    exactly, which leaves a smooth, non-oscillating h for Gauss-Laguerre
    nodes.  With r = b (z/pb) and L = l + 2 log(z/pb), l = log(b^2 M^2), a
    term c r^a L^k gives c b^(a+n) sum_j C(k, j) l^(k-j) T_j, where T_j,
    the node sum of the unit term (z/pb)^a (2 log(z/pb))^j on the kernel,
    depends on n, the start p b and a alone: the table _tail_moment.  The
    start is pi exactly when b = pi/p, as for every untruncated transform
    and every truncation radius below pi/p; the real-axis piece still ends
    at b, and the up to 1-ulp gap between p (pi/p) and pi is within the
    phase term of the floor.  The estimate is |Q60 - Q40| plus a floor on
    sum w |h|, bounded term by term from the tables' (triangle inequality):
    the roundoff floor, and the rounding of the phase p b, which moves the
    lower end by up to eps b.  The profile itself must be a float at b: a
    term c r^a L^k that overflows there (r^-1 log^3 in dim 2 at p = 1e300)
    is out of range, even where its transform is a float."""
    pb = math.pi if b == math.pi / p else p * b
    contour = _contour_table(n, pb)
    ell = 2.0 * math.log(b * Mval)
    fine = diff = floor = 0.0
    for t in f.radial:
        a, k = t.rpow, t.logpow
        if b ** float(a) * abs(ell) ** k == math.inf:
            raise OverflowError
        s = t.coeff.evalf() * _scale(pb, p, a + n)
        for j in range(k + 1):
            q60, q_diff, q_floor = _tail_moment(contour, a, j)
            w = s * math.comb(k, j) * ell ** (k - j)
            fine += w * q60
            diff += w * q_diff
            floor += abs(w) * q_floor
    return fine.real, abs(diff) + floor


class _Contour:
    """A contour table entry: the dim n, the start pb and the read-only
    arrays (z, kernel), unpacked by iteration.  It hashes by identity, so
    the moments keyed on it are rebuilt with it."""

    __slots__ = ("n", "pb", "z", "kernel")

    def __init__(self, n, pb, z, kernel):
        self.n, self.pb, self.z, self.kernel = n, pb, z, kernel

    def __iter__(self):
        return iter((self.z, self.kernel))


@lru_cache(maxsize=64)
def _contour_table(n: int, pb: float) -> _Contour:
    """The contour from p r = pb, shared by every tail that starts there:
    the nodes z = pb + i x_k (the 60 Gauss-Laguerre nodes, then the 40),
    and the kernel i e^{i pb} Gamma(n/2) (2/z)^nu H1_nu(z) e^{-iz} z^(n-1)
    on them, nu = n/2 - 1.  Filled on first use, after _load; a start other
    than pi (a truncation radius beyond pi/p) is a new entry."""
    nu = 0.5 * n - 1.0
    z = pb + 1j * _CONTOUR_NODES
    with np.errstate(all="ignore"):
        kernel = (1j * cmath.exp(1j * pb) * math.gamma(0.5 * n)
                  * (2.0 / z) ** nu * special.hankel1e(nu, z) * z ** (n - 1))
    z.flags.writeable = kernel.flags.writeable = False
    return _Contour(n, pb, z, kernel)


# the window exponents of dims 2-10 with log powers 0-3 take 180 entries at
# the start pi; the rest is room for starts past pi and other exponents
@lru_cache(maxsize=1024)
def _tail_moment(contour: _Contour, rpow, j: int) -> Tuple[complex, complex, float]:
    """The moments of the unit term (z/pb)^rpow (2 log(z/pb))^j on a
    contour table: its 60-node sum Q60 of h, Q60 - Q40, and the floor
    (roundoff + eps pb) sum w |h| over the 60 nodes, h from
    _vector_integrand at p = pb, M = 1.  Keyed on the exact rpow."""
    z, kernel = contour
    unit = position_term(contour.n, 1, rpow, j)
    with np.errstate(all="ignore"):
        h = _vector_integrand(unit, contour.pb, contour.n, 1.0, kernel)(z)
        fine = h[:_LAG_N] @ _LAG_WEIGHTS
        coarse = h[_LAG_N:] @ _LAG40_WEIGHTS
        size = np.abs(h[:_LAG_N]) @ _LAG_WEIGHTS
    phase = _ROUNDOFF + _EPS * contour.pb
    return complex(fine), complex(fine - coarse), float(phase * size)


def _vector_integrand(f: PositionFunction, p: float, n: int, Mval: float, kernel):
    """The tail's integrand h (see _tail) on the contour points z = p r of
    a table (Re r > 0, principal branches): f(r) times the table's kernel
    column, p^(1-n), which turns its z^(n-1) into r^(n-1), and 1/p.
    _tail_moment calls it once per table entry, on a unit term at p = pb,
    M = 1, where r = z/pb."""
    data = [(t.coeff.evalf(), float(t.rpow), t.logpow) for t in f.radial]

    def vec(z):
        r = z / p
        lg = 2.0 * np.log(r * Mval)  # log(r^2 M^2) for Re r > 0; r^2 may overflow
        fr = np.zeros_like(r)
        for c, a, k in data:
            fr += c * r ** a * lg ** k
        return fr * kernel * p ** (1 - n) / p

    return vec
