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
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .algebra import (
    MomentumFunction,
    PositionFunction,
    eval_momentum,
    log_power_map,
)
from .coeffs import Coefficient, sphere_area
from .errors import DiffRegError, SurfaceOrderError
from .operators import DiffOperator, box_derivatives


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


@lru_cache(maxsize=256)
def _seed_brackets(n: int, a: int | Fraction, k: int, m: int, order: int):
    """The brackets B_0 .. B_(m-1) of the unit seed r^a L^k under box^m in
    n dimensions, as a bounded table: (entries, dropped).  An entry
    ((eps_pow, log_pow), j, q) says that a seed term c r^a L^k adds
    q Omega_{n-1} c_m c (-p^2)^j to that order; the entries are merged per
    ((eps_pow, log_pow), j), none is zero, and the sign of (-p^2)^j is in q.
    dropped holds the first dropped (eps_pow, log_pow) of each bracket.
    Raises SurfaceOrderError at the first bracket whose kernel series must
    reach past ``order`` terms, so a miss is never stored."""
    # build the series only as far as the deepest bracket reads; order caps it
    alphas = angular_series(n, min(order, math.floor(Fraction(2 - n - a, 2)) + m))
    acc: Dict[Tuple[Tuple[int | Fraction, int], int], Fraction] = {}
    dropped: List[Tuple[int | Fraction, int]] = []
    for j in range(m):
        # v_j = box^j r^a L^k, merged; once it vanishes every later one
        # does.  Merging can cancel a log power only below the top one, the
        # one the remainder reads
        image = log_power_map(1, k, box_derivatives(a, j, n, k + 1))
        if not image:
            break
        b = a - 2 * j
        # series order must reach past eps^0 for this exponent
        need = Fraction(2 - n - b, 2)
        if order - 1 < need:
            raise SurfaceOrderError(
                f"series order {order} cannot reach eps^0 for a term "
                f"r^{b}; increase the order past {need + 1}"
            )
        # the orders i <= top have mm = x + 2i <= 0; the first dropped one
        # is the smallest positive mm over i >= 0, and the remainder reads
        # only the top log power there
        x, top = n - 2 + b, math.floor(need)
        dropped.append((x + 2 * max(0, top + 1), image[0][0]))
        # the remaining Laplacians give the symbol factor (-p^2)^q
        q = m - 1 - j
        for kk, c in image:
            # order i carries p^(2i) from the kernel and p^(2q) from the
            # symbol; with l = log(eps M) its bracket is 2^kk eps^(x+2i)
            # ((b - 2i) l^kk + kk l^(kk-1)), the log-power map with
            # d = (b - 2i, 1), and its rational factors fold into d: the
            # bracket's sign (-1)^(q+1) times the (-1)^(i+q) of
            # p^(2i+2q) = (-1)^(i+q) (-p^2)^(i+q)
            for i in range(top + 1):
                pref = alphas[i] * (-1) ** (i + 1) * 2 ** kk
                for kl, ci in log_power_map(c, kk, (pref * (b - 2 * i), pref)):
                    key = ((x + 2 * i, kl), i + q)
                    acc[key] = acc.get(key, 0) + ci
    return tuple((key, j, ci) for (key, j), ci in acc.items() if ci), tuple(dropped)


def surface_expansion(
    L: DiffOperator, g: PositionFunction, order: int = 8
) -> SurfaceExpansion:
    """Collect all boundary entries of order eps^mm log^kk with mm <= 0.

    Works for any polynomial in box by linearity; the identity part performs
    no integration by parts and contributes nothing.  Each seed term reads
    its brackets from the :func:`_seed_brackets` table, so a call makes one
    coefficient product per entry of the table it reads.
    """
    n = g.dim
    if g.local:
        raise DiffRegError("seed must be radial-only")
    omega = sphere_area(n)
    # (eps_pow, log_pow) -> {j: coefficient of (-p^2)^j}
    acc: Dict[Tuple[int | Fraction, int], Dict[int, Coefficient]] = {}
    dropped: List[Tuple[int | Fraction, int]] = []  # first dropped order per bracket

    for m, cm in L.coeffs:
        if m == 0:
            continue
        omega_cm = omega * cm
        for t in g.radial:
            table, firsts = _seed_brackets(n, t.rpow, t.logpow, m, order)
            dropped += firsts
            base = omega_cm * t.coeff
            for key, j, q in table:
                row = acc.setdefault(key, {})
                c = base * q
                row[j] = row[j] + c if j in row else c

    entries = []
    for key in sorted(acc):
        val = MomentumFunction.build(n, local_poly=[(c, j) for j, c in acc[key].items()])
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
