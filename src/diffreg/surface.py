"""Exact accounting of the epsilon-ball boundary terms dropped by formal
integration by parts.

For L = box^m and a radial seed g, iterating Green's identity over the
region r > eps against the plane wave (angularly averaged to the kernel
A_n(p eps)) produces one boundary bracket per Laplacian factor:

    T_m(eps) = (-p^2)^m T_0(eps) + sum_{j=0}^{m-1} (-p^2)^{m-1-j} B_j(eps)

    B_j = -Omega_{n-1} eps^{n-1} [A_n(p r) d_r v_j - v_j d_r A_n(p r)]_{r=eps}

with v_j = box^j g (away-from-origin radial part) and T_j the truncated
transform of box^j g.  Expanding A_n in its exact Taylor series and the
brackets in eps collects every entry of order eps^mm log^kk(eps M) with
mm <= 0; the rest is the declared remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import (
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    eval_momentum,
    log_power_map,
)
from .coeffs import sphere_area
from .errors import DiffRegError, SurfaceOrderError
from .operators import DiffOperator, laplacian_radial


def angular_series(n: int, order: int) -> List[Fraction]:
    """Taylor coefficients of the spherical plane-wave average
    A_n(z) = sum_i alpha_i z^(2i), alpha_i = (-1/4)^i Gamma(n/2)/(i! Gamma(n/2+i)).
    The ratio of Gammas is rational for every n, so the coefficients are
    exact rationals, from alpha_0 = 1 and
    alpha_i = alpha_{i-1} (-1/4) / (i (n/2 + i - 1))
            = -alpha_{i-1} / (2i (n + 2i - 2))."""
    out = [Fraction(1)][:order]
    for i in range(1, order):
        out.append(out[-1] / (-2 * i * (n + 2 * i - 2)))
    return out


@dataclass(frozen=True)
class SurfaceExpansion:
    """Entries (eps_pow m <= 0, log_pow k) -> exact value (a function of p),
    meaning sum value * eps^m * log^k(eps M), plus a remainder declaration
    O(eps^remainder_eps_pow * log^remainder_log_pow(eps M))."""

    dim: int
    entries: Tuple[Tuple[Tuple[int | Fraction, int], MomentumFunction], ...] = ()
    remainder_eps_pow: int | Fraction = 2
    remainder_log_pow: int = 1

    def entry(self, eps_pow, log_pow) -> Optional[MomentumFunction]:
        for (m, k), v in self.entries:
            if m == eps_pow and k == log_pow:
                return v
        return None

    def is_empty(self) -> bool:
        return not self.entries

    def eval_at(self, eps: float, p: float, Mval: float) -> float:
        """Numeric value of the collected entries at finite eps."""
        lg = math.log(eps * Mval)
        total = 0.0
        for (m, k), v in self.entries:
            total += eval_momentum(v, p, Mval) * eps ** float(m) * lg ** k
        return total


def surface_expansion(
    L: DiffOperator, g: PositionFunction, order: int = 8
) -> SurfaceExpansion:
    """Collect all boundary entries of order eps^mm log^kk with mm <= 0.

    Works for any polynomial in box by linearity; the identity part performs
    no integration by parts and contributes nothing.
    """
    n = g.dim
    if g.local:
        raise DiffRegError("seed must be radial-only")
    omega = sphere_area(n)
    # build the series only as far as the deepest bracket reads; order caps it
    lowest = min((t.rpow for t in g.radial), default=0)
    reach = math.floor(Fraction(2 - n - lowest, 2)) + L.degree
    alphas = angular_series(n, min(order, reach))
    acc: Dict[Tuple[int | Fraction, int], List[MomentumTerm]] = {}
    dropped: List[Tuple[int | Fraction, int]] = []  # first dropped order per term

    for m, cm in L.coeffs:
        if m == 0:
            continue
        omega_cm = omega * cm
        v = list(g.radial)
        for j in range(m):
            if j:
                v = laplacian_radial(n, v)
            # the remaining Laplacians give the symbol factor (-p^2)^q
            q = m - 1 - j
            # bracket of v_j against the angular kernel at r = eps
            for t in v:
                a, k = t.rpow, t.logpow
                # series order must reach past eps^0 for this exponent
                need = Fraction(2 - n - a, 2)
                if order - 1 < need:
                    raise SurfaceOrderError(
                        f"series order {order} cannot reach eps^0 for a term "
                        f"r^{a}; increase the order past {need + 1}"
                    )
                # the orders i <= top have mm = x + 2i <= 0; the first
                # dropped one is the smallest positive mm over i >= 0
                x, top = n - 2 + a, math.floor(need)
                dropped.append((x + 2 * max(0, top + 1), k))
                base = omega_cm * t.coeff
                shared = (-1) ** (q + 1) * 2 ** k
                # order i carries p^(2i) from the kernel and p^(2q) from the
                # symbol; with l = log(eps M) its bracket is 2^k eps^(x+2i)
                # ((a - 2i) l^k + k l^(k-1)), the log-power map with
                # d = (a - 2i, 1), and its rational factors fold into d
                for i in range(top + 1):
                    pref = alphas[i] * shared
                    ppow = 2 * i + 2 * q
                    for kk, c in log_power_map(base, k, (pref * (a - 2 * i), pref)):
                        acc.setdefault((x + 2 * i, kk), []).append(MomentumTerm(c, ppow))

    entries = []
    for key in sorted(acc):
        val = MomentumFunction.build(n, acc[key])
        if not val.is_zero():
            entries.append((key, val))
    if not dropped:
        return SurfaceExpansion(n, tuple(entries))
    # the remainder starts at the lowest dropped order, with the highest log
    # power of the terms that reach it
    eps_pow = min(mm for mm, _ in dropped)
    log_pow = max(k for mm, k in dropped if mm == eps_pow)
    return SurfaceExpansion(n, tuple(entries), eps_pow, log_pow)


@dataclass(frozen=True)
class LeadingDivergence:
    log_pow: int
    value: MomentumFunction  # per unit log^log_pow(eps M)


def leading_divergence(se: SurfaceExpansion) -> Optional[LeadingDivergence]:
    """Highest log power at eps^0, or None ('finite') when no log entry
    survives there."""
    best = None
    for (m, k), v in se.entries:
        if m == 0 and k >= 1 and (best is None or k > best.log_pow):
            best = LeadingDivergence(k, v)
    return best
