"""Constant-coefficient rotationally invariant differential operators:
polynomials in the Laplacian, acting exactly on radial power-log functions.

For r != 0, box^m r^s = c_m(s) r^(s-2m) with c_m(s) = prod_{i<m}
(s-2i)(s-2i+n-2), so box^m acts on a term c r^s L^k in one step: the
log-power map of ``algebra`` with d = :func:`box_derivatives`, of which the
map reads the first k + 1 entries.  No power is reached by iterating the
Laplacian.  At the resonance exponent a = 2-n the log-free part of the
Laplacian additionally produces -(n-2) Omega_{n-1} delta^n(x) (Gauss
theorem); box^m meets it at step i0 = (s - (2-n))/2 of a block r^s, whose
content there is the same map for box^i0.  For log powers >= 1 at the
resonance the at-origin content is not determined here and the result
carries a flag instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    log_power_map,
)
from .coeffs import ONE, Coefficient, sphere_area
from .errors import DiffRegError

RESONANCE_FLAG = "distributional part undetermined"


@dataclass(frozen=True)
class DiffOperator:
    """sum_k c_k box^k with exact coefficients; stored sparse and sorted."""

    coeffs: Tuple[Tuple[int, Coefficient], ...] = ()

    @classmethod
    def build(cls, coeffs: Dict[int, Coefficient]) -> "DiffOperator":
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


@lru_cache(maxsize=256)
def box_derivatives(
    s: int | Fraction, m: int, n: int, depth: int | None = None
) -> Tuple[int | Fraction, ...]:
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


def laplacian_radial(dim: int, terms: Iterable[RadialTerm]) -> List[RadialTerm]:
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


def _box_image(s, block: Dict[int, Coefficient], m: int, n: int) -> Dict[int, Coefficient]:
    """box^m of sum_k block[k] r^s L^k at r^(s - 2m), merged per log power
    with the zeros dropped."""
    d = box_derivatives(s, m, n, max(block) + 1)
    out: Dict[int, Coefficient] = {}
    for k, c in block.items():
        for j, cj in log_power_map(c, k, d):
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
        return PositionFunction.build(n)
    if L.degree and n < 2:
        raise DiffRegError("Laplacian action requires dim >= 2")
    blocks: Dict[int | Fraction, Dict[int, Coefficient]] = {}
    for t in f.radial:
        blocks.setdefault(t.rpow, {})[t.logpow] = t.coeff
    radial: List[RadialTerm] = []
    local: List[LocalTerm] = []
    flags = list(f.flags)
    for k, c in L.coeffs:
        # a pure power box^k, the common case, needs no product by c
        radial += [
            RadialTerm(cj if c == ONE else c * cj, s - 2 * k, j)
            for s, block in blocks.items()
            for j, cj in _box_image(s, block, k, n).items()
        ]
        local += [LocalTerm(c * t.coeff, t.boxpow + k) for t in f.local]
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
            local += [LocalTerm(c * cdelta, k - 1 - i0) for k, c in L.coeffs if k > i0]
    return PositionFunction.build(n, radial, local, flags)


def operator_symbol(L: DiffOperator, n: int) -> MomentumFunction:
    """Fourier symbol under F[f](p) = int e^{ip.x} f(x) d^n x: box -> -p^2,
    so sigma(sum c_k box^k) = sum c_k (-p^2)^k, returned as an exact
    polynomial in p^2."""
    return MomentumFunction.build(n, local_poly=[(c, k) for k, c in L.coeffs])


def multiply_by_symbol(F: MomentumFunction, sym: MomentumFunction) -> MomentumFunction:
    """Multiply a momentum function by a pure polynomial-in-p^2 symbol."""
    if sym.terms:
        raise DiffRegError("symbol must be a polynomial in p^2")
    terms = []
    poly = []
    for c, j in sym.local_poly:
        cp = -c if j % 2 else c  # c (-p^2)^j = cp p^(2j)
        terms += [MomentumTerm(t.coeff * cp, t.ppow + 2 * j, t.logpow) for t in F.terms]
        poly += [(pc * c, pj + j) for pc, pj in F.local_poly]
    return MomentumFunction.build(F.dim, terms, poly, F.flags + sym.flags)
