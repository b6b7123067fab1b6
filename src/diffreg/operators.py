"""Constant-coefficient rotationally invariant differential operators:
polynomials in the Laplacian, acting exactly on radial power-log functions.

For r != 0 the Laplacian of a single term obeys the closed recurrence

    box(r^a log^k) = a(a+n-2) r^(a-2) log^k
                     + 2k(2a+n-2) r^(a-2) log^(k-1)
                     + 4k(k-1) r^(a-2) log^(k-2)

with log = log(r^2 M^2).  At the resonance exponent a = 2-n the k = 0 term
additionally produces -(n-2) Omega_{n-1} delta^n(x) (Gauss theorem); for
k >= 1 at the resonance the at-origin content is not determined here and
the result carries a flag instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .algebra import (
    LocalTerm,
    MomentumFunction,
    PositionFunction,
    RadialTerm,
    add,
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

    def scaled(self, c) -> "DiffOperator":
        if isinstance(c, (int, Fraction)):
            c = Coefficient.rational(c)
        return DiffOperator.build({k: c * ck for k, ck in self.coeffs})


def laplacian_radial(dim: int, terms: Iterable[RadialTerm]) -> List[RadialTerm]:
    """Away-from-origin Laplacian of radial terms via the recurrence."""
    out: List[RadialTerm] = []
    for t in terms:
        a = t.rpow
        k = t.logpow
        c0 = a * (a + dim - 2)
        if c0 != 0:
            out.append(RadialTerm(t.coeff * c0, a - 2, k))
        if k >= 1:
            c1 = 2 * k * (2 * a + dim - 2)
            if c1 != 0:
                out.append(RadialTerm(t.coeff * c1, a - 2, k - 1))
        if k >= 2:
            out.append(RadialTerm(t.coeff * Fraction(4 * k * (k - 1)), a - 2, k - 2))
    return out


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
        sign = Fraction(-1) ** j
        for t in F.terms:
            terms.append(
                type(t)(t.coeff * c * sign, t.ppow + 2 * j, t.logpow)
            )
        for pc, pj in F.local_poly:
            poly.append((pc * c, pj + j))
    return MomentumFunction.build(F.dim, terms, poly, F.flags + sym.flags)
