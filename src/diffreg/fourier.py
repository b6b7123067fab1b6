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
from typing import Optional, Tuple

from .algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    log_power_map,
    log_power_solve,
)
from .coeffs import LN2, Coefficient, gamma_exact, polygamma
from .errors import DiffRegError, FourierWindowError, SymbolSetError

MAX_EXACT_LOGPOW = 3


def term_route(t: RadialTerm, n: int) -> Optional[str]:
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


@lru_cache(maxsize=256, typed=True)
def master_coefficients(aprime: Fraction, n: int, depth: int) -> Tuple[Coefficient, ...]:
    """The tuple (C, C', ..., C^(depth)) where C(a') is the master-formula
    constant pi^{n/2} 2^{n-2a'} Gamma(n/2-a')/Gamma(a').  The one gate of
    the exact transform: the term r^{-2a'} log^depth must lie in the open
    window 0 < a' < n/2, with 2a' an integer and depth <= MAX_EXACT_LOGPOW.

    A bounded table keyed by exact type: 0.5 and Fraction(1, 2) are
    different keys, so a float still raises on every call, and a call that
    raises is never stored."""
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


def fourier_base(g: PositionFunction) -> MomentumFunction:
    """Exact transform of a Fourier-safe function: c r^(-2a') log^k maps to
    the log-power map of (-1)^k c with d = (C, C', ...) at p^(2a'-n); local
    terms to the polynomial part, coeff * box^j delta -> coeff * (-p^2)^j."""
    n = g.dim
    terms = []
    for t in g.radial:
        # a' stays an exact rational, the table's key; p^(2a'-n) = p^(-rpow-n)
        k = t.logpow
        C = master_coefficients(Fraction(-t.rpow, 2), n, k)
        c = -t.coeff if k % 2 else t.coeff
        terms += [MomentumTerm(cj, -t.rpow - n, j) for j, cj in log_power_map(c, k, C)]
    poly = [(t.coeff, t.boxpow) for t in g.local]
    return MomentumFunction.build(n, terms, poly, g.flags)


def inverse_fourier_base(F: MomentumFunction) -> PositionFunction:
    """Inverse transform on the image class: per momentum exponent, the
    inverse log-power map (``algebra.log_power_solve``) with fourier_base's
    d = (C, C', ...), then the sign (-1)^k of each seed log power k."""
    n = F.dim
    groups: dict = {}
    for t in F.terms:
        groups.setdefault(t.ppow, {})[t.logpow] = t.coeff
    radial = []
    for ppow, levels in groups.items():
        C = master_coefficients(Fraction(ppow + n, 2), n, max(levels))
        for k, x in log_power_solve(levels, C).items():
            radial.append(RadialTerm(-x if k % 2 else x, -ppow - n, k))
    local = [LocalTerm(c, j) for c, j in F.local_poly]
    return PositionFunction.build(n, radial, local, F.flags)


def fourier_formal(rep) -> MomentumFunction:
    """Transform of a representation (L, g) by formal integration by parts:
    the operator symbol times the exact transform of the seed."""
    from .operators import multiply_by_symbol, operator_symbol

    base = fourier_base(rep.g)
    return multiply_by_symbol(base, operator_symbol(rep.L, rep.g.dim))


def cs_derivative(F: MomentumFunction) -> MomentumFunction:
    """d/d log(M^2) on the momentum side, the log-power map with d = (0, -1);
    the M-independent polynomial part drops.  M d/dM is twice this."""
    terms = [
        MomentumTerm(c, t.ppow, j)
        for t in F.terms
        for j, c in log_power_map(t.coeff, t.logpow, (0, -1))
    ]
    return MomentumFunction.build(F.dim, terms, flags=F.flags)


def cs_derivative_position(f: PositionFunction) -> PositionFunction:
    """d/d log(M^2) on the position side, the log-power map with d = (0, 1);
    delta-type terms drop."""
    terms = [
        RadialTerm(c, t.rpow, j)
        for t in f.radial
        for j, c in log_power_map(t.coeff, t.logpow, (0, 1))
    ]
    return PositionFunction.build(f.dim, terms, flags=f.flags)
