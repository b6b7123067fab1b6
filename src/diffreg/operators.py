"""Constant-coefficient rotationally invariant differential operators:
polynomials in the Laplacian, acting exactly on radial power-log functions.

For r != 0, box^m r^s = c_m(s) r^(s-2m) with c_m(s) = prod_{i<m}
(s-2i)(s-2i+n-2), so box^m acts on log powers by the log-power map of
``algebra`` with d = :func:`box_derivatives`.  At the resonance exponent
a = 2-n the k = 0 term of the Laplacian additionally produces
-(n-2) Omega_{n-1} delta^n(x) (Gauss theorem); for k >= 1 at the resonance
the at-origin content is not determined here and the result carries a flag
instead.
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
    add,
    log_power_map,
    scale,
)
from .coeffs import Coefficient, sphere_area
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
def box_derivatives(s: int | Fraction, m: int, n: int) -> Tuple[int | Fraction, ...]:
    """d_i = 2^i c_m^(i)(s), i = 0..2m: the log-power map's d for box^m on
    r^s in n dimensions, as a bounded table."""
    # Taylor coefficients a_i = c_m^(i)(s) / i! of c_m at s
    a = [1]
    for i in range(m):
        for root in (2 * i, 2 * i + 2 - n):
            a = [(s - root) * x + y for x, y in zip(a + [0], [0] + a)]
    return tuple(2 ** i * math.factorial(i) * ai for i, ai in enumerate(a))


def laplacian_radial(dim: int, terms: Iterable[RadialTerm]) -> List[RadialTerm]:
    """Away-from-origin Laplacian of radial terms: the log-power map with
    d = box_derivatives(a, 1, dim) = (a(a+dim-2), 2(2a+dim-2), 8)."""
    return [
        RadialTerm(c, t.rpow - 2, j)
        for t in terms
        for j, c in log_power_map(t.coeff, t.logpow, box_derivatives(t.rpow, 1, dim))
    ]


def apply_laplacian(f: PositionFunction) -> PositionFunction:
    """Exact Laplacian including the delta-type content where it is known."""
    n = f.dim
    if n < 2:
        raise DiffRegError("Laplacian action requires dim >= 2")
    radial = laplacian_radial(n, f.radial)
    local = [LocalTerm(t.coeff, t.boxpow + 1) for t in f.local]
    flags = list(f.flags)
    resonance = 2 - n
    for t in f.radial:
        if t.rpow == resonance:
            if t.logpow == 0:
                # box r^(2-n) = -(n-2) Omega_{n-1} delta^n(x)
                cdelta = t.coeff * Fraction(-(n - 2)) * sphere_area(n)
                if not cdelta.is_zero():
                    local.append(LocalTerm(cdelta, 0))
            else:
                flags.append(RESONANCE_FLAG)
    return PositionFunction.build(n, radial, local, flags)


def apply_operator(L: DiffOperator, f: PositionFunction) -> PositionFunction:
    """sum_k c_k box^k f, exact and normalized; flags propagate."""
    result = PositionFunction.build(f.dim)
    current = f
    next_power = 0
    for k, c in L.coeffs:
        while next_power < k:
            current = apply_laplacian(current)
            next_power += 1
        result = add(result, scale(c, current))
    return result


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
