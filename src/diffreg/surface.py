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
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    MomentumFunction,
    PositionFunction,
    eval_momentum,
    log_power_map,
)
from .coeffs import Coefficient, Record, sphere_area
from .errors import DiffRegError
from .operators import DiffOperator, _box_unit


def angular_series(n: int, order: int) -> list[Fraction]:
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


class SurfaceExpansion(Record):
    """Entries (eps_pow m <= 0, log_pow k) -> exact value (a function of p),
    meaning sum value * eps^m * log^k(eps M), plus a remainder declaration
    O(eps^remainder_eps_pow * log^remainder_log_pow(eps M))."""

    __slots__ = ("dim", "entries", "remainder_eps_pow", "remainder_log_pow")
    _defaults = {"entries": (), "remainder_eps_pow": 2, "remainder_log_pow": 1}

    def entry(self, eps_pow, log_pow) -> MomentumFunction | None:
        for (m, k), v in self.entries:
            if m == eps_pow and k == log_pow:
                return v
        return None

    def is_empty(self) -> bool:
        return not self.entries

    def eval_at(self, eps: float, p: float, Mval: float) -> float:
        """Numeric value of the collected entries at finite eps; log(eps M)
        is taken as log eps + log M, so no product underflows first."""
        lg = math.log(eps) + math.log(Mval)
        total = 0.0
        for (m, k), v in self.entries:
            total += eval_momentum(v, p, Mval) * eps ** float(m) * lg ** k
        return total


# typed: an integral Fraction a must not hand its Fraction entries to an int a
@lru_cache(maxsize=256, typed=True)
def _seed_brackets(n: int, a: int | Fraction, k: int, m: int):
    """The brackets B_0 .. B_(m-1) of the unit seed r^a L^k under box^m in
    n dimensions, as a bounded table: (entries, dropped).  An entry
    ((eps_pow, log_pow), j, q) says that a seed term c r^a L^k adds
    q Omega_{n-1} c_m c (-p^2)^j to that order; the entries are merged per
    ((eps_pow, log_pow), j), none is zero, and the sign of (-p^2)^j is in q.
    dropped holds the first dropped (eps_pow, log_pow) of each bracket.
    Bracket j keeps the kernel orders i <= top0 + j, so the series is
    built exactly as far as the deepest one, j = m - 1, reads: the seed and
    the operator fix its order."""
    top0 = math.floor(Fraction(2 - n - a, 2))
    alphas = angular_series(n, top0 + m)
    acc: dict[tuple[tuple[int | Fraction, int], int], Fraction] = {}
    dropped: list[tuple[int | Fraction, int]] = []
    for j in range(m):
        # v_j = box^j r^a L^k, merged; once it vanishes every later one
        # does.  Merging can cancel a log power only below the top one, the
        # one the remainder reads
        image = _box_unit(a, k, j, n)
        if not image:
            break
        b = a - 2 * j
        # the orders i <= top have mm = x + 2i <= 0; the first dropped one
        # is the smallest positive mm over i >= 0, and the remainder reads
        # only the top log power there
        x, top = n - 2 + b, top0 + j
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


def surface_expansion(L: DiffOperator, g: PositionFunction) -> SurfaceExpansion:
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
    acc: dict[tuple[int | Fraction, int], dict[int, Coefficient]] = {}
    dropped: list[tuple[int | Fraction, int]] = []  # first dropped order per bracket

    for m, cm in L.coeffs:
        if m == 0:
            continue
        omega_cm = omega * cm
        for t in g.radial:
            table, firsts = _seed_brackets(n, t.rpow, t.logpow, m)
            dropped += firsts
            base = omega_cm * t.coeff
            for key, j, q in table:
                row = acc.setdefault(key, {})
                c = base * q
                row[j] = row[j] + c if j in row else c

    entries = []
    for key in sorted(acc):
        val = MomentumFunction.from_maps(n, {}, acc[key])
        if not val.is_zero():
            entries.append((key, val))
    if not dropped:
        return SurfaceExpansion(n, tuple(entries))
    # the remainder starts at the lowest dropped order, with the highest log
    # power of the terms that reach it
    eps_pow = min(mm for mm, _ in dropped)
    log_pow = max(k for mm, k in dropped if mm == eps_pow)
    return SurfaceExpansion(n, tuple(entries), eps_pow, log_pow)


class LeadingDivergence(Record):
    """value per unit log^log_pow(eps M)."""

    __slots__ = ("log_pow", "value")


def leading_divergence(se: SurfaceExpansion) -> LeadingDivergence | None:
    """Highest log power at eps^0, or None ('finite') when no log entry
    survives there."""
    best = None
    for (m, k), v in se.entries:
        if m == 0 and k >= 1 and (best is None or k > best.log_pow):
            best = LeadingDivergence(k, v)
    return best
