"""Finding a representation (L, g) with L g = target away from the origin
and g Fourier-safe: the differential-renormalization move.

The search runs over pure powers L = box^m.  For each m the seed ansatz is
spanned by r^(t+2m) log^j(r^2 M^2), one family per distinct target exponent
t, with j up to (target max log power + m).  Applying the Laplacian
recurrence m times gives an exact rational linear system for the ansatz
coefficients.  Basis elements annihilated away from the origin (the kernel
of box^m on the radial class, e.g. r^(2-n)) are pinned to zero: the scheme's
only free parameter is then the mass M itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .algebra import (
    MomentumFunction,
    PositionFunction,
    RadialTerm,
    sub,
)
from .coeffs import Coefficient, LN2, ONE
from .errors import (
    DiffRegError,
    NotRepresentableError,
    UnderdeterminedError,
)
from .fourier import fourier_base, fourier_safe, term_fourier_safe
from .operators import DiffOperator, apply_operator, laplacian_radial, multiply_by_symbol, operator_symbol


@dataclass(frozen=True)
class Representation:
    """Pair (L, g): apply_operator(L, g) equals target away from r = 0,
    and g has an exact Fourier transform."""

    L: DiffOperator
    g: PositionFunction
    target: PositionFunction
    note: str = "equality holds for r != 0"


def _box_power_radial(dim: int, term: RadialTerm, m: int) -> List[RadialTerm]:
    cur = [term]
    for _ in range(m):
        cur = laplacian_radial(dim, cur)
    return cur


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
    target_pows = sorted({t.rpow for t in target.radial})
    max_logpow = max(t.logpow for t in target.radial)

    last_error: Optional[str] = None
    for m in range(1, max_box_power + 1):
        basis: List[Tuple[Fraction, int]] = []
        images: List[List[RadialTerm]] = []
        for tp in target_pows:
            for j in range(max_logpow + m + 1):
                seed = RadialTerm(ONE, tp + 2 * m, j)
                img = _box_power_radial(n, seed, m)
                if not img:
                    continue  # kernel element: minimality rule pins it to zero
                basis.append((tp + 2 * m, j))
                images.append(img)
        solution = _solve_exact(target, basis, images)
        if solution is None:
            last_error = f"inconsistent system at box^{m}"
            continue
        g = PositionFunction.build(
            n, [RadialTerm(c, rp, j) for c, (rp, j) in zip(solution, basis)]
        )
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


def _solve_exact(target, basis, images):
    """Solve sum_s x_s image_s = target exactly.  The matrix is rational
    (the recurrence only multiplies by rationals); the right-hand side is a
    vector of Coefficients, so elimination mixes Fractions with Coefficients.
    Returns None when inconsistent; raises when underdetermined."""
    keys = sorted(
        {(t.rpow, t.logpow) for img in images for t in img}
        | {(t.rpow, t.logpow) for t in target.radial}
    )
    tcoeffs = {(t.rpow, t.logpow): t.coeff for t in target.radial}
    nrows, ncols = len(keys), len(basis)
    A = [[Fraction(0)] * ncols for _ in range(nrows)]
    b = [tcoeffs.get(key, Coefficient()) for key in keys]
    for s, img in enumerate(images):
        for t in img:
            A[keys.index((t.rpow, t.logpow))][s] += t.coeff.rational_value()

    # Gaussian elimination with partial (first-nonzero) pivoting.
    pivot_cols = []
    row = 0
    for col in range(ncols):
        pr = next((r for r in range(row, nrows) if A[r][col] != 0), None)
        if pr is None:
            continue
        A[row], A[pr] = A[pr], A[row]
        b[row], b[pr] = b[pr], b[row]
        piv = A[row][col]
        A[row] = [x / piv for x in A[row]]
        b[row] = b[row] * (Fraction(1) / piv)
        for r in range(nrows):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
                b[r] = b[r] - b[row] * f
        pivot_cols.append(col)
        row += 1
    for r in range(row, nrows):
        if not b[r].is_zero():
            return None  # inconsistent
    if len(pivot_cols) < ncols:
        raise UnderdeterminedError(
            "seed system underdetermined after minimality rule"
        )
    x = [Coefficient()] * ncols
    for r, col in enumerate(pivot_cols):
        x[col] = b[r]
    return x


@dataclass(frozen=True)
class MassShift:
    """Exact effect of M -> lambda M on a representation."""

    seed_shift: PositionFunction  # g_{lambda M} - g_M
    image_shift: PositionFunction  # L applied to seed_shift (purely local)
    momentum_shift: MomentumFunction  # change of the formal transform


def shift_mass(f: PositionFunction, ln_lambda: Coefficient) -> PositionFunction:
    """Substitute log(r^2 M^2) -> log(r^2 M^2) + 2 ln(lambda) exactly."""
    import math as _math

    out = []
    two_l = 2 * ln_lambda
    for t in f.radial:
        k = t.logpow
        for j in range(k + 1):
            out.append(
                RadialTerm(
                    t.coeff * Fraction(_math.comb(k, j)) * (two_l ** (k - j)),
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
