"""Exact Fourier transforms of Fourier-safe radial power-log functions.

Convention: F[f](p) = int e^{ip.x} f(x) d^n x, inverse with (2 pi)^{-n},
so box maps to -p^2 and delta^n(x) maps to 1.

The workhorse is the radial master formula

    F_n[r^{-2a'}](p) = pi^{n/2} 2^{n-2a'} Gamma(n/2 - a')/Gamma(a') p^{2a'-n}

valid on the open window 0 < a' < n/2.  Log powers follow by differentiating
in a' (the log-power map with d = C, C', ...), which brings in polygamma
values; these stay inside the symbol set {pi, gammaE, ln2, zeta3} exactly
when 2a' is an integer, which bounds the exact layer at log powers k <= 3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (
    MomentumFunction,
    PositionFunction,
    RadialTerm,
    back_substitute,
    log_power_map,
    log_power_rows,
    term_map,
)
from .coeffs import LN2, ONE, Coefficient, gamma_exact, polygamma
from .errors import DiffRegError, FourierWindowError, SymbolSetError
from .operators import multiply_by_symbol, operator_symbol

MAX_EXACT_LOGPOW = 3


def term_route(t: RadialTerm, n: int) -> str | None:
    """Which transform applies to one radial term in dimension n: "exact"
    for an integral rpow in the open window -n < rpow < 0 with log power
    <= MAX_EXACT_LOGPOW, exactly the terms master_coefficients accepts;
    "regulated" for an integral rpow at or below -n, box^m of a window seed;
    "numeric" for any other rpow above -n; None for a fractional rpow at or
    below -n, which no route transforms."""
    integral = isinstance(t.rpow, int)  # the as_exponent normal form
    if not -n < t.rpow:
        return "regulated" if integral else None
    if integral and t.rpow < 0 and t.logpow <= MAX_EXACT_LOGPOW:
        return "exact"
    return "numeric"


def fourier_safe(f: PositionFunction) -> bool:
    """The domain of the character: every radial term strictly inside the
    window with a supported log power, fractional exponents included (local
    terms always transform)."""
    n = f.dim
    return all(-n < t.rpow < 0 and t.logpow <= MAX_EXACT_LOGPOW for t in f.radial)


def master_coefficients(aprime: Fraction, n: int, depth: int) -> tuple[Coefficient, ...]:
    """The tuple (C, C', ..., C^(depth)) where C(a') is the master-formula
    constant pi^{n/2} 2^{n-2a'} Gamma(n/2-a')/Gamma(a').  The one gate of
    the exact transform: the term r^{-2a'} log^depth must lie in the open
    window 0 < a' < n/2, with 2a' an integer and depth <= MAX_EXACT_LOGPOW.

    Not a table itself: _fourier_unit and _inverse_rows call it on a miss
    only and store its image, never a call that raises, so a refused term
    runs the gate on every call."""
    if not (0 < aprime < Fraction(n, 2)):
        raise FourierWindowError(
            f"term r^{-2 * aprime} log^{depth} (p^{2 * aprime - n} in momentum) "
            f"outside the open window -{n} < rpow < 0 for dim {n}"
        )
    if depth > MAX_EXACT_LOGPOW:
        raise SymbolSetError(
            f"log power {depth} exceeds exact symbol set "
            f"(max {MAX_EXACT_LOGPOW}); use the numeric oracle"
        )
    gden, hden = gamma_exact(aprime)  # the lattice check for a' and n/2 - a'
    b = Fraction(n, 2) - aprime
    gnum, hnum = gamma_exact(b)
    pi_exp = Fraction(n, 2) + Fraction(hnum, 2) - Fraction(hden, 2)
    if pi_exp.denominator != 1:
        raise DiffRegError("internal: non-integer pi exponent in master formula")
    rat = Fraction(2) ** (n - int(2 * aprime)) * gnum / gden
    C = Coefficient.monomial(rat, pi=int(pi_exp))
    out = [C]
    if depth >= 1:
        L1 = -2 * LN2 - polygamma(0, b) - polygamma(0, aprime)
        out.append(C * L1)
    if depth >= 2:
        L2 = polygamma(1, b) - polygamma(1, aprime)
        out.append(C * (L1 * L1 + L2))
    if depth >= 3:
        L3 = -polygamma(2, b) - polygamma(2, aprime)
        out.append(C * (L1 * L1 * L1 + 3 * L1 * L2 + L3))
    return tuple(out)


# the window exponents -n < a < 0 of dims 2-10 with log powers 0-3 take 180
# entries; the rest is room for other dims
@lru_cache(maxsize=256, typed=True)
def _fourier_unit(n: int, a: int | Fraction, k: int) -> tuple[tuple[int, Coefficient], ...]:
    """The transform of the unit term r^a L^k at p^(-a-n), as (log power,
    coefficient) pairs: the log-power map of (-1)^k with d = (C, C', ...),
    C(k, i) and the sign folded in.  a is an exponent in its as_exponent
    normal form; a term outside the exact class raises on every call."""
    C = master_coefficients(Fraction(-a, 2), n, k)
    return tuple(log_power_map(-ONE if k % 2 else ONE, k, C))


def fourier_base(g: PositionFunction) -> MomentumFunction:
    """Exact transform of a Fourier-safe function: c r^a log^k maps to c
    times the _fourier_unit image of r^a log^k, one product per output log
    power; local terms to the polynomial part, coeff * box^j delta -> coeff
    * (-p^2)^j."""
    n = g.dim
    terms = term_map(((-t.rpow - n, j), t.coeff * q)
                     for t in g.radial for j, q in _fourier_unit(n, t.rpow, t.logpow))
    poly = term_map((t.boxpow, t.coeff) for t in g.local)
    return MomentumFunction.from_maps(n, terms, poly, g.flags)


# the image exponents -n < ppow < 0 of dims 2-10 with top log powers 0-3
# take 180 entries; the rest is room for other dims
@lru_cache(maxsize=256, typed=True)
def _inverse_rows(n: int, ppow: int | Fraction, top: int) -> tuple:
    """The algebra.log_power_rows that invert fourier_base's map at p^ppow
    on log powers 0 .. top, with the sign (-1)^k of each seed log power k
    folded into its pivot and into the entries that read it."""
    C = master_coefficients(Fraction(ppow + n, 2), n, top)
    return tuple(
        (j, k, -pivot if k % 2 else pivot, tuple((i, -q if i % 2 else q) for i, q in row))
        for j, k, pivot, row in log_power_rows(C, top)
    )


def inverse_fourier_base(F: MomentumFunction) -> PositionFunction:
    """Inverse transform on the image class: per momentum exponent, the
    back-substitution of its _inverse_rows table, which gives the seed
    coefficients signed."""
    n = F.dim
    groups: dict = {}
    for t in F.terms:
        groups.setdefault(t.ppow, {})[t.logpow] = t.coeff
    radial: dict = {}
    for ppow, levels in groups.items():
        x = back_substitute(levels, _inverse_rows(n, ppow, max(levels)))
        radial.update(((-ppow - n, k), c) for k, c in x.items())
    local = term_map((j, c) for c, j in F.local_poly)
    return PositionFunction.from_maps(n, radial, local, F.flags)


def fourier_formal(rep) -> MomentumFunction:
    """Transform of a representation (L, g) by formal integration by parts:
    the operator symbol times the exact transform of the seed."""
    base = fourier_base(rep.g)
    return multiply_by_symbol(base, operator_symbol(rep.L, rep.g.dim))


def cs_derivative(F: MomentumFunction) -> MomentumFunction:
    """d/d log(M^2) on the momentum side, L = log(p^2/M^2): c L^k goes to
    -k c L^(k-1) and the polynomial part drops.  M d/dM is twice this."""
    terms = term_map(((t.ppow, t.logpow - 1), t.coeff * -t.logpow) for t in F.terms if t.logpow)
    return MomentumFunction.from_maps(F.dim, terms, {}, F.flags)


def cs_derivative_position(f: PositionFunction) -> PositionFunction:
    """d/d log(M^2) on the position side, L = log(r^2 M^2): c L^k goes to
    k c L^(k-1); delta-type terms drop."""
    terms = term_map(((t.rpow, t.logpow - 1), t.coeff * t.logpow) for t in f.radial if t.logpow)
    return PositionFunction.from_maps(f.dim, terms, {}, f.flags)
