"""Finding a representation (L, g) with L g = target away from the origin
and g Fourier-safe: the differential-renormalization move.

The search runs over pure powers L = box^m.  Write L = log(r^2 M^2) and
c_m(s) = prod_{i<m} (s-2i)(s-2i+n-2), so that box^m r^s = c_m(s) r^(s-2m).
Differentiating in the exponent gives, away from the origin,

    box^m [r^s L^j] = sum_i C(j,i) 2^i c_m^(i)(s) r^(s-2m) L^(j-i).

So the seed system splits into one block per target exponent t, with seed
exponent s = t + 2m, and each block is triangular in log power; it is
solved by back-substitution from the top log power down, on exact
rationals.  Where s is a root of c_m of order nu (a resonance) the seed's
log power rises by nu, as in 1/x^4 = -1/4 box log(x^2 M^2)/x^2.  The seed
log powers below nu span the kernel of box^m and are pinned to zero: the
scheme's only free parameter is then the mass M itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import (
    MomentumFunction,
    PositionFunction,
    RadialTerm,
    sub,
)
from .coeffs import Coefficient, LN2, ONE, ZERO
from .errors import DiffRegError, NotRepresentableError
from .fourier import fourier_base, fourier_safe, term_fourier_safe
from .operators import DiffOperator, apply_operator, multiply_by_symbol, operator_symbol


@dataclass(frozen=True)
class Representation:
    """Pair (L, g): apply_operator(L, g) equals target away from r = 0,
    and g has an exact Fourier transform."""

    L: DiffOperator
    g: PositionFunction
    target: PositionFunction
    note: str = "equality holds for r != 0"


def _solve_block(
    block: Dict[int, Coefficient], s: int, m: int, n: int, top: int
) -> Optional[List[RadialTerm]]:
    """Seed terms r^s L^j with box^m seed = sum_k block[k] r^(s-2m) L^k and
    no kernel component; None when that needs a log power above top."""
    # Taylor coefficients a_i = c_m^(i)(s) / i! of c_m at s
    a = [1]
    for i in range(m):
        for root in (2 * i, 2 * i + 2 - n):
            a = [(s - root) * x + y for x, y in zip(a + [0], [0] + a)]
    nu = next(i for i, ai in enumerate(a) if ai)
    top_k = max(block)
    if top_k + nu > top:
        return None
    # the L^k equation weighs x_(k+i) by C(k+i, i) 2^i c_m^(i)(s)
    x: Dict[int, Coefficient] = {}
    for k in range(top_k, -1, -1):
        rhs = block.get(k, ZERO)
        for i in range(nu + 1, min(len(a) - 1, top_k + nu - k) + 1):
            rhs = rhs - x[k + i] * (2 ** i * math.perm(k + i, i) * a[i])
        x[k + nu] = rhs * Fraction(1, 2 ** nu * math.perm(k + nu, nu) * a[nu])
    return [RadialTerm(c, s, j) for j, c in x.items()]


def find_representation(
    target: PositionFunction, max_box_power: int = 4
) -> Representation:
    """Search L = box^m, m = 1..max_box_power, for a Fourier-safe seed."""
    n = target.dim
    if max_box_power < 1:
        raise ValueError("max_box_power must be >= 1")
    if target.local:
        raise NotRepresentableError("target must be radial-only")
    if not target.radial:
        raise NotRepresentableError("target is identically zero")
    if fourier_safe(target):
        raise NotRepresentableError("precondition violated: target is Fourier-safe")
    blocks: Dict[int, Dict[int, Coefficient]] = {}
    for t in target.radial:
        if t.rpow.denominator != 1:
            raise NotRepresentableError(
                f"target exponent r^{t.rpow} is not an integer; out of class"
            )
        if t.rpow > -n:
            raise NotRepresentableError(
                f"target term r^{t.rpow} is not genuinely divergent "
                f"(needs rpow <= -{n})"
            )
        blocks.setdefault(t.rpow, {})[t.logpow] = t.coeff
    max_logpow = max(t.logpow for t in target.radial)

    last_error: Optional[str] = None
    for m in range(1, max_box_power + 1):
        solved = [
            _solve_block(block, t + 2 * m, m, n, max_logpow + m)
            for t, block in blocks.items()
        ]
        if None in solved:
            last_error = f"inconsistent system at box^{m}"
            continue
        g = PositionFunction.build(n, [term for terms in solved for term in terms])
        if not all(term_fourier_safe(t, n) for t in g.radial):
            last_error = f"solution at box^{m} is not Fourier-safe"
            continue
        L = DiffOperator.box(m)
        rep = Representation(L, g, target)
        check = apply_operator(L, g)
        if check.radial != target.radial:
            raise DiffRegError("internal: representation round-trip failed")
        return rep
    raise NotRepresentableError(
        f"not representable in class box^m, m <= {max_box_power}"
        + (f" ({last_error})" if last_error else "")
    )


@dataclass(frozen=True)
class MassShift:
    """Exact effect of M -> lambda M on a representation."""

    seed_shift: PositionFunction  # g_{lambda M} - g_M
    image_shift: PositionFunction  # L applied to seed_shift (purely local)
    momentum_shift: MomentumFunction  # change of the formal transform


def shift_mass(f: PositionFunction, ln_lambda: Coefficient) -> PositionFunction:
    """Substitute log(r^2 M^2) -> log(r^2 M^2) + 2 ln(lambda) exactly."""
    out = []
    two_l = 2 * ln_lambda
    for t in f.radial:
        k = t.logpow
        for j in range(k + 1):
            out.append(
                RadialTerm(
                    t.coeff * Fraction(math.comb(k, j)) * (two_l ** (k - j)),
                    t.rpow,
                    j,
                )
            )
    return PositionFunction.build(f.dim, out, f.local, f.flags)


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
    if isinstance(ln_lambda, (int, Fraction)):
        ln_lambda = Coefficient.rational(ln_lambda)
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
