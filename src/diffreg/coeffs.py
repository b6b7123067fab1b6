"""Exact coefficients: rational-linear combinations of monomials in the
commuting constants pi, gammaE, ln2, zeta3.

Everything the exact layer produces (sphere areas, transform constants,
polygamma values at integer and half-integer arguments) lives in this ring,
so equality of symbolic results is decidable by normal-form comparison.

Normal form: ``Coefficient.terms`` is a tuple of (monomial, value) pairs with
the monomials strictly increasing, no zero value, and every value a
``Fraction``.  The arithmetic takes its operands in normal form and keeps
only the work that preserving it needs: a sum with an empty operand is the
other operand; a product by a rational scalar scales the values in place; a
product by, or a division by, a single monomial shifts every monomial by one
vector, which keeps their order and creates no zero.  Only a sum of two
nonempty operands and a product of two many-monomial operands merge through
a dict and sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Tuple

from .errors import DiffRegError, SymbolSetError

# Exponent order: (pi, gammaE, ln2, zeta3).
Monomial = Tuple[int, int, int, int]

GAMMA_E_VALUE = 0.5772156649015328606
ZETA3_VALUE = 1.2020569031595942854
_SYMBOL_VALUES = (math.pi, GAMMA_E_VALUE, math.log(2.0), ZETA3_VALUE)
SYMBOL_NAMES = ("pi", "gammaE", "ln2", "zeta3")

_ONE_MONO: Monomial = (0, 0, 0, 0)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def as_exponent(x) -> int | Fraction:
    """An exponent in normal form: an ``int`` when integral, else a
    ``Fraction`` with denominator > 1.  Integral exponents, the common case,
    then hash, compare and shift as plain ints."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class Coefficient:
    """Normalized sum of monomials: tuple of (exponents, rational) pairs,
    sorted by exponent tuple, with no zero rationals."""

    terms: Tuple[Tuple[Monomial, Fraction], ...] = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def from_dict(cls, d: Mapping[Monomial, Fraction]) -> "Coefficient":
        items = tuple(sorted((m, q) for m, q in d.items() if q != 0))
        return cls(items)

    @classmethod
    def rational(cls, q) -> "Coefficient":
        q = as_fraction(q)
        if q == 0:
            return cls()
        return cls(((_ONE_MONO, q),))

    @classmethod
    def monomial(cls, q, pi=0, gammaE=0, ln2=0, zeta3=0) -> "Coefficient":
        q = as_fraction(q)
        if q == 0:
            return cls()
        if min(pi, gammaE, ln2, zeta3) < 0:
            raise DiffRegError("monomial exponents must be non-negative")
        return cls((((pi, gammaE, ln2, zeta3), q),))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for m, q in other.terms:
            if m in acc:
                q = acc[m] + q
                if not q:
                    del acc[m]
                    continue
            acc[m] = q
        return Coefficient(tuple(sorted(acc.items())))

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __neg__(self) -> "Coefficient":
        return Coefficient(tuple((m, -q) for m, q in self.terms))

    def __mul__(self, other) -> "Coefficient":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            if other == 1:
                return self
            return Coefficient(tuple((m, q * other) for m, q in self.terms))
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # shifting every monomial by one vector keeps the order, and a
            # product of nonzero rationals is nonzero
            (s0, s1, s2, s3), r = b[0]
            return Coefficient(tuple(
                ((m[0] + s0, m[1] + s1, m[2] + s2, m[3] + s3), q * r)
                for m, q in a
            ))
        acc: dict = {}
        for m1, q1 in a:
            for m2, q2 in b:
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                acc[m] = acc[m] + q1 * q2 if m in acc else q1 * q2
        return Coefficient.from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Coefficient":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "Coefficient":
        """Inverse of a single-monomial coefficient (with non-negative
        resulting exponents only when the monomial is rational times pi^0;
        general monomials invert only against matching factors, so this is
        restricted to rational coefficients and used via :meth:`divide`)."""
        if not self.is_rational():
            raise DiffRegError("only rational coefficients are invertible")
        return Coefficient.rational(1 / self.rational_value())

    def divide(self, other) -> "Coefficient":
        """Divide by a nonzero rational, or by a single-monomial coefficient
        whose monomial divides every monomial of self."""
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)  # ZeroDivisionError at 0
        if len(other.terms) != 1:
            raise DiffRegError("division only by a single monomial")
        (mono, q) = other.terms[0]
        out = []
        for m, c in self.terms:
            newm = tuple(a - b for a, b in zip(m, mono))
            if min(newm) < 0:
                raise DiffRegError(f"monomial {mono} does not divide {m}")
            out.append((newm, c / q))
        # a shift by one vector keeps the order and creates no zero
        return Coefficient(tuple(out))

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(m == _ONE_MONO for m, _ in self.terms)

    def rational_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise DiffRegError("coefficient is not rational")
        return self.terms[0][1]

    def evalf(self) -> float:
        """Floating value; terms summed in normalized order."""
        total = 0.0
        for m, q in self.terms:
            v = float(q)
            for exp, sym in zip(m, _SYMBOL_VALUES):
                if exp:
                    v *= sym ** exp
            total += v
        return total

    def __str__(self) -> str:
        from .printer import format_coefficient

        return format_coefficient(self)


ZERO = Coefficient()
ONE = Coefficient.rational(1)
PI = Coefficient.monomial(1, pi=1)
GAMMA_E = Coefficient.monomial(1, gammaE=1)
LN2 = Coefficient.monomial(1, ln2=1)
ZETA3 = Coefficient.monomial(1, zeta3=1)


# -- exact special values ---------------------------------------------


def _lattice(x) -> Tuple[int, bool]:
    """(m, half) with x = m + half/2, for x on the positive (half-)integer
    lattice, the one set where the exact layer's constants stay inside
    the symbol set."""
    x = as_fraction(x)
    if x <= 0 or (2 * x).denominator != 1:
        raise SymbolSetError(
            f"argument {x} is not a positive integer or half-integer; "
            "its value leaves the exact symbol set"
        )
    return int(x), x.denominator == 2


def gamma_exact(x: Fraction) -> Tuple[Fraction, int]:
    """Gamma(x) for positive integer or half-integer x, as
    (rational, h) meaning rational * pi**(h/2) with h in {0, 1}."""
    m, half = _lattice(x)
    if not half:
        return Fraction(math.factorial(m - 1)), 0
    # Gamma(m + 1/2) = (2m)! / (4^m m!) * sqrt(pi)
    return Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m)), 1


# psi^(k)(1) and psi^(k)(1/2) by (k, half), sign and k! included, so that
# polygamma makes one ring operation
_POLYGAMMA_BASE = {
    (0, False): -GAMMA_E,
    (0, True): -GAMMA_E - 2 * LN2,
    (1, False): Coefficient.monomial(Fraction(1, 6), pi=2),
    (1, True): Coefficient.monomial(Fraction(1, 2), pi=2),
    (2, False): -2 * ZETA3,
    (2, True): -14 * ZETA3,
}


def polygamma(k: int, x: Fraction) -> Coefficient:
    """psi^(k)(x), k <= 2, at a positive integer or half-integer x:
    psi^(k)(x) = psi^(k)(x0) + (-1)^k k! S, with x0 = 1 or 1/2 and S the
    lattice sum below x, sum_{i<m} i^-(k+1) for x = m or
    sum_{i<=m} (2/(2i-1))^(k+1) for x = m + 1/2."""
    m, half = _lattice(x)
    if half:
        s = sum((Fraction(2, 2 * i - 1) ** (k + 1) for i in range(1, m + 1)), Fraction(0))
    else:
        s = sum((Fraction(1, i ** (k + 1)) for i in range(1, m)), Fraction(0))
    return _POLYGAMMA_BASE[k, half] + Coefficient.rational((-1) ** k * math.factorial(k) * s)


@lru_cache(maxsize=256, typed=True)
def sphere_area(n: int) -> Coefficient:
    """Surface area of the unit (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2),
    memoised per dimension (keyed by exact type, so 4.0 is not 4)."""
    if n < 1:
        raise DiffRegError("dimension must be positive")
    gval, ghalf = gamma_exact(Fraction(n, 2))
    # 2 * pi^(n/2) / (gval * pi^(ghalf/2))
    pi_exp = Fraction(n, 2) - Fraction(ghalf, 2)
    if pi_exp.denominator != 1:
        raise DiffRegError("internal: non-integer pi exponent in sphere area")
    return Coefficient.monomial(Fraction(2) / gval, pi=int(pi_exp))
