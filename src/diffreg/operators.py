"""Constant-coefficient rotationally invariant differential operators:
polynomials in the Laplacian, acting exactly on radial power-log functions.

For r != 0, box^m r^s = c_m(s) r^(s-2m) with c_m(s) = prod_{i<m}
(s-2i)(s-2i+n-2), so box^m acts on a term c r^s L^k in one step: the
log-power map of ``algebra`` with d = :func:`box_derivatives`, of which the
map reads the first k + 1 entries.  The image of each unit term r^s L^k is
an entry of the _box_unit table, so a term costs one product per output log
power.  No power is reached by iterating the Laplacian.  At the resonance
exponent a = 2-n the log-free part of the Laplacian additionally produces
-(n-2) Omega_{n-1} delta^n(x) (Gauss theorem); box^m meets it at step
i0 = (s - (2-n))/2 of a block r^s, whose content there is the same map for
box^i0.  For log powers >= 1 at the resonance the at-origin content is not
determined here and the result carries a flag instead.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    MomentumFunction,
    PositionFunction,
    RadialTerm,
    log_power_map,
    term_map,
)
from .coeffs import ONE, Coefficient, Record, sphere_area
from .errors import DiffRegError

RESONANCE_FLAG = "distributional part undetermined"


class DiffOperator(Record):
    """sum_k c_k box^k with exact coefficients; stored sparse and sorted."""

    __slots__ = ("coeffs",)
    _defaults = {"coeffs": ()}

    @classmethod
    def build(cls, coeffs: dict[int, Coefficient]) -> "DiffOperator":
        items = []
        for k, c in sorted(coeffs.items()):
            if k < 0:
                raise ValueError("box powers must be non-negative")
            if isinstance(c, (int, Fraction)):
                c = Coefficient.rational(c)
            if not c.is_zero():
                items.append((k, c))
        return cls(tuple(items))

    @classmethod
    def identity(cls) -> "DiffOperator":
        return cls.build({0: Coefficient.rational(1)})

    @classmethod
    def box(cls, power: int = 1, coeff=1) -> "DiffOperator":
        return cls.build({power: coeff})

    @property
    def degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    def is_pure_power(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0][1] == Coefficient.rational(1)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        acc = {k: c for k, c in self.coeffs}
        for k, c in other.coeffs:
            acc[k] = acc.get(k, Coefficient()) + c
        return DiffOperator.build(acc)

    def __mul__(self, other: "DiffOperator") -> "DiffOperator":
        acc: dict = {}
        for k1, c1 in self.coeffs:
            for k2, c2 in other.coeffs:
                acc[k1 + k2] = acc.get(k1 + k2, Coefficient()) + c1 * c2
        return DiffOperator.build(acc)


# typed, so that an integral Fraction s never hands its Fraction entries to
# an int s, whose tables must hold ints
@lru_cache(maxsize=256, typed=True)
def box_derivatives(
    s: int | Fraction, m: int, n: int, depth: int | None = None
) -> tuple[int | Fraction, ...]:
    """d_i = 2^i c_m^(i)(s) for i < depth (all 2m + 1 when depth is None):
    the log-power map's d for box^m on r^s in n dimensions, as a bounded
    table.  c L^k reads only d_0 .. d_k, so depth k + 1 keeps the product
    of the 2m factors at O(m k) work instead of O(m^2)."""
    top = 2 * m + 1 if depth is None else min(depth, 2 * m + 1)
    # Taylor coefficients a_i = c_m^(i)(s) / i! of c_m at s, the first top
    a = [1]
    for i in range(m):
        for root in (2 * i, 2 * i + 2 - n):
            a = [(s - root) * x + y for x, y in zip(a + [0], [0] + a)][:top]
    return tuple(2 ** i * math.factorial(i) * ai for i, ai in enumerate(a))


def laplacian_radial(dim: int, terms: Iterable[RadialTerm]) -> list[RadialTerm]:
    """Away-from-origin Laplacian of radial terms: the log-power map with
    d = box_derivatives(a, 1, dim) = (a(a+dim-2), 2(2a+dim-2), 8).  One
    step, term by term and unmerged; :func:`apply_operator` does not iterate
    it, and the tests keep it as the reference for the closed form."""
    return [
        RadialTerm(c, t.rpow - 2, j)
        for t in terms
        for j, c in log_power_map(t.coeff, t.logpow, box_derivatives(t.rpow, 1, dim))
    ]


def apply_laplacian(f: PositionFunction) -> PositionFunction:
    """Exact Laplacian including the delta-type content where it is known."""
    return apply_operator(DiffOperator.box(), f)


# the window exponents -n < s < 0 of dims 2-10 with log powers 0-3 and
# m <= 4 (the resonance steps include m = 0) take 900 entries; the rest is
# room for other exponents
@lru_cache(maxsize=1024, typed=True)
def _box_unit(s: int | Fraction, k: int, m: int, n: int) -> tuple[tuple[int, int | Fraction], ...]:
    """box^m of the unit term r^s L^k at r^(s - 2m), as (log power,
    rational) pairs: the log-power map with d = box_derivatives, its C(k, i)
    folded in.  s is an exponent in its as_exponent normal form."""
    return tuple(log_power_map(1, k, box_derivatives(s, m, n, k + 1)))


def _box_image(s, block: dict[int, Coefficient], m: int, n: int) -> dict[int, Coefficient]:
    """box^m of sum_k block[k] r^s L^k at r^(s - 2m), one product per term
    and output log power from the _box_unit table, merged per log power
    with the zeros dropped."""
    out: dict[int, Coefficient] = {}
    for k, c in block.items():
        for j, q in _box_unit(s, k, m, n):
            cj = c * q
            out[j] = out[j] + cj if j in out else cj
    return {j: c for j, c in out.items() if not c.is_zero()}


def apply_operator(L: DiffOperator, f: PositionFunction) -> PositionFunction:
    """sum_k c_k box^k f, exact and normalized; flags propagate.

    Each power acts on each exponent block of f in closed form.  The step
    i0 = (s - (2 - n))/2 of box^k, taken when 0 <= i0 < k, lands the block
    of exponent s on the resonance r^(2-n): its log-free part emits
    -(n-2) Omega_{n-1} delta^n(x), which the remaining k - 1 - i0 steps
    raise to box^(k-1-i0) delta^n(x), and a log part sets the flag."""
    n = f.dim
    if not L.coeffs:
        return PositionFunction.from_maps(n, {}, {})
    if L.degree and n < 2:
        raise DiffRegError("Laplacian action requires dim >= 2")
    blocks: dict[int | Fraction, dict[int, Coefficient]] = {}
    for t in f.radial:
        blocks.setdefault(t.rpow, {})[t.logpow] = t.coeff
    radial: dict = {}
    local: dict = {}
    flags = list(f.flags)
    for k, c in L.coeffs:
        # a pure power box^k, the common case, needs no product by c
        unit = c == ONE
        term_map((((s - 2 * k, j), cj if unit else c * cj)
                  for s, block in blocks.items()
                  for j, cj in _box_image(s, block, k, n).items()), radial)
        term_map(((t.boxpow + k, t.coeff if unit else c * t.coeff) for t in f.local), local)
    for s, block in blocks.items():
        if type(s) is not int or (s - 2 + n) % 2:
            continue
        i0 = (s - 2 + n) // 2
        if not 0 <= i0 < L.degree:
            continue
        image = _box_image(s, block, i0, n)
        if any(j > 0 for j in image):
            flags.append(RESONANCE_FLAG)
        if 0 in image and n != 2:
            cdelta = image[0] * Fraction(-(n - 2)) * sphere_area(n)
            term_map(((k - 1 - i0, c * cdelta) for k, c in L.coeffs if k > i0), local)
    return PositionFunction.from_maps(n, radial, local, flags)


def operator_symbol(L: DiffOperator, n: int) -> MomentumFunction:
    """Fourier symbol under F[f](p) = int e^{ip.x} f(x) d^n x: box -> -p^2,
    so sigma(sum c_k box^k) = sum c_k (-p^2)^k, returned as an exact
    polynomial in p^2."""
    return MomentumFunction.from_maps(n, {}, term_map(L.coeffs))


def multiply_by_symbol(F: MomentumFunction, sym: MomentumFunction) -> MomentumFunction:
    """Multiply a momentum function by a pure polynomial-in-p^2 symbol."""
    if sym.terms:
        raise DiffRegError("symbol must be a polynomial in p^2")
    terms: dict = {}
    poly: dict = {}
    for c, j in sym.local_poly:
        cp = -c if j % 2 else c  # c (-p^2)^j = cp p^(2j)
        # a unit symbol coefficient, as for a pure power box^j, needs no product
        term_map((((t.ppow + 2 * j, t.logpow), t.coeff if cp == ONE else t.coeff * cp)
                  for t in F.terms), terms)
        term_map(((pj + j, pc if c == ONE else pc * c) for pc, pj in F.local_poly), poly)
    return MomentumFunction.from_maps(F.dim, terms, poly, F.flags + sym.flags)
