"""Finding a representation (L, g) with L g = target away from the origin
and g exactly transformable: the differential-renormalization move.

The search runs over pure powers L = box^m.  Write L = log(r^2 M^2) and
c_m(s) = prod_{i<m} (s-2i)(s-2i+n-2), so that box^m r^s = c_m(s) r^(s-2m).
Differentiating in the exponent gives, away from the origin,

    box^m [r^s L^j] = sum_i C(j,i) 2^i c_m^(i)(s) r^(s-2m) L^(j-i).

So the seed system splits into one block per target exponent t, with seed
exponent s = t + 2m, and each block is solved by back-substitution with
d = ``operators.box_derivatives``, its rows read from the _seed_rows table
(``algebra.log_power_rows``).  Where s is a root of c_m of order
nu (a resonance) the seed's log power rises by nu, as in
1/x^4 = -1/4 box log(x^2 M^2)/x^2.  The seed log powers below nu span the
kernel of box^m and are pinned to zero: the scheme's only free parameter is
then the mass M itself.

``fourier.term_route`` gates both ends: every target term must route
"regulated" (an integral rpow at or below -n) and every seed term
"exact".  The search tries only the m that put every seed exponent in the
window, -n < t + 2m < 0, that is floor((-n - t_min)/2) + 1 <= m <=
min(max_box_power, floor((-1 - t_max)/2)); there a seed fails only when a
resonance lifts its log power above 3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import PositionFunction, back_substitute, log_power_map, log_power_rows, sub, term_map
from .coeffs import Coefficient, LN2, ONE, Record
from .errors import DiffRegError, NotRepresentableError
from .fourier import fourier_base, term_route
from .operators import DiffOperator, apply_operator, box_derivatives
from .operators import multiply_by_symbol, operator_symbol


class Representation(Record):
    """Pair (L, g): apply_operator(L, g) equals target away from r = 0,
    and g has an exact Fourier transform."""

    __slots__ = ("L", "g", "target", "note")
    _defaults = {"note": "equality holds for r != 0"}


# seed exponents -n < s < 0 of dims 2-10 with m <= 4 and top log powers 0-3
# take at most 720 entries; the rest is room for other dims
@lru_cache(maxsize=1024, typed=True)
def _seed_rows(s: int, m: int, n: int, top: int) -> tuple:
    """The algebra.log_power_rows that invert box^m at the seed exponent s
    on target log powers 0 .. top, all rational.  They read d up to the top
    log power plus the order of s as a root of c_m, which is at most 2."""
    return log_power_rows(box_derivatives(s, m, n, top + 3), top)


def find_representation(
    target: PositionFunction, max_box_power: int = 4
) -> Representation:
    """Search L = box^m, m <= max_box_power, for a seed with an exact
    transform, over the m that put every seed exponent in the window."""
    n = target.dim
    if max_box_power < 1:
        raise ValueError("max_box_power must be >= 1")
    if target.local:
        raise NotRepresentableError("target must be radial-only")
    if not target.radial:
        raise NotRepresentableError("target is identically zero")
    blocks: dict[int, dict[int, Coefficient]] = {}
    for t in target.radial:
        if term_route(t, n) != "regulated":
            raise NotRepresentableError(
                f"target term r^{t.rpow} is not regulated: needs an integral rpow <= -{n}"
            )
        blocks.setdefault(t.rpow, {})[t.logpow] = t.coeff
    # -n < t + 2m < 0 for every t; t_min <= -n makes the lower end >= 1
    m_lo = (-n - min(blocks)) // 2 + 1
    m_hi = min(max_box_power, (-1 - max(blocks)) // 2)
    for m in range(m_lo, m_hi + 1):
        seed: dict = {}
        for t, block in blocks.items():
            s = t + 2 * m
            x = back_substitute(block, _seed_rows(s, m, n, max(block)))
            seed.update(((s, k), c) for k, c in x.items())
        g = PositionFunction.from_maps(n, seed, {})
        if any(term_route(t, n) != "exact" for t in g.radial):
            continue  # a resonance lifted a seed log power past the symbol set
        L = DiffOperator.box(m)
        if apply_operator(L, g).radial != target.radial:
            raise DiffRegError("internal: representation round-trip failed")
        return Representation(L, g, target)
    raise NotRepresentableError(
        f"not representable in class box^m, m <= {max_box_power} "
        "(no m gives every seed an exact transform)"
    )


class MassShift(Record):
    """Exact effect of M -> lambda M on a representation: seed_shift is
    g_{lambda M} - g_M, image_shift its purely local image under L, and
    momentum_shift the change of the formal transform."""

    __slots__ = ("seed_shift", "image_shift", "momentum_shift")


def shift_mass(f: PositionFunction, ln_lambda: Coefficient) -> PositionFunction:
    """Substitute log(r^2 M^2) -> log(r^2 M^2) + 2 ln(lambda) exactly: the
    log-power map with d_i = (2 ln(lambda))^i."""
    two_l = 2 * ln_lambda
    top = max((t.logpow for t in f.radial), default=0)
    d = [two_l ** i for i in range(top + 1)]
    out = term_map(((t.rpow, j), c)
                   for t in f.radial for j, c in log_power_map(t.coeff, t.logpow, d))
    local = term_map((t.boxpow, t.coeff) for t in f.local)
    return PositionFunction.from_maps(f.dim, out, local, f.flags)


def log_of_ratio(ratio) -> Coefficient:
    """Exact ln(lambda) for lambda = 2^k (k integer) or the token 'e'/'1/e'.
    Other ratios have no logarithm in the symbol set."""
    if ratio == "e":
        return ONE
    if ratio == "1/e":
        return -ONE
    q = Fraction(ratio)
    if q <= 0:
        raise DiffRegError("mass ratio must be positive")
    num, den = q.numerator, q.denominator
    k = 0
    while num % 2 == 0:
        num //= 2
        k += 1
    while den % 2 == 0:
        den //= 2
        k -= 1
    if num != 1 or den != 1:
        raise DiffRegError(
            f"ln({ratio}) is outside the exact symbol set; "
            "supply ln_lambda as a Coefficient instead"
        )
    return k * LN2


def mass_shift(rep: Representation, ln_lambda: Coefficient) -> MassShift:
    """Exact difference of the representation under M -> lambda M.  The
    operator image of the seed shift must be purely local; the momentum-side
    change is then a polynomial in p^2 (here a constant)."""
    seed_shift = sub(shift_mass(rep.g, ln_lambda), rep.g)
    image_shift = apply_operator(rep.L, seed_shift)
    if image_shift.radial:
        raise DiffRegError(
            "mass shift moved the representation by a non-local term"
        )
    momentum_shift = multiply_by_symbol(
        fourier_base(seed_shift), operator_symbol(rep.L, rep.g.dim)
    )
    return MassShift(seed_shift, image_shift, momentum_shift)
