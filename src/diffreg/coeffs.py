"""Exact coefficients: rational-linear combinations of monomials in the
commuting constants pi, gammaE, ln2, zeta3.

Everything the exact layer produces (sphere areas, transform constants,
polygamma values at integer and half-integer arguments) lives in this ring,
so equality of symbolic results is decidable by normal-form comparison.

Normal form: a ``Coefficient`` holds its values as int numerators ``nums``
over one shared denominator ``den``, one per monomial of ``monos``, with
den > 0, gcd(den, *nums) = 1, the monomials strictly increasing and no
numerator 0.  A product is int products and one ``gcd``, a sum aligns the
two denominators, and a product by a rational scalar, a negation and a
division by one monomial keep the monomials (or shift them all by one
vector, which keeps their order and creates no zero).  Only a sum of two
nonempty operands and a product of two many-monomial operands merge
through a dict and sort.  ``Coefficient.terms``, the record field that
``repr``, ``hash`` and pickle read, is the same value as (monomial,
``Fraction``) pairs; it is built from the ints on first read and kept, and
the arithmetic and ``==`` read only the ints.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import attrgetter

from .errors import DiffRegError, SymbolSetError

# Exponent order: (pi, gammaE, ln2, zeta3).
Monomial = tuple[int, int, int, int]

GAMMA_E_VALUE = 0.5772156649015328606
ZETA3_VALUE = 1.2020569031595942854
_SYMBOL_VALUES = (math.pi, GAMMA_E_VALUE, math.log(2.0), ZETA3_VALUE)
SYMBOL_NAMES = ("pi", "gammaE", "ln2", "zeta3")

_ONE_MONO: Monomial = (0, 0, 0, 0)


def _ratio(q) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational."""
    if isinstance(q, (int, Fraction)):
        return q.numerator, q.denominator
    raise TypeError(f"expected exact rational, got {type(q).__name__}")


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


class Record:
    """Base of the package's immutable values.  A subclass declares its
    fields, in order, as a tuple ``__slots__`` and sets them in its
    ``__init__`` with ``object.__setattr__``; the base compares, hashes,
    prints and pickles a record as its tuple of field values.  Records are
    equal only when their classes are the same and their fields are equal,
    so a record never equals a tuple or a record of another class."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # with one name attrgetter returns the bare value, not a 1-tuple
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        # rebuilt through __init__, since the slots refuse assignment
        return type(self), self._fields(self)


class _IntForm:
    """The int form of a Coefficient, in slots that are not record fields."""

    __slots__ = ("monos", "nums", "den")


class Coefficient(_IntForm, Record):
    """Normalized sum of monomials, compared in its int form; its one
    record field ``terms`` is the tuple of (exponents, Fraction) pairs,
    sorted by exponent tuple, with no zero rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Monomial, Fraction], ...] = ()):
        den = math.lcm(*[q.denominator for _, q in terms])
        _set_terms(self, terms)
        _set_monos(self, tuple([m for m, _ in terms]))
        _set_nums(self, tuple([q.numerator * (den // q.denominator) for _, q in terms]))
        _set_den(self, den)

    def __getattr__(self, name):
        # the terms slot is left empty by the arithmetic and filled here
        if name != "terms":
            raise AttributeError(name)
        den = self.den
        terms = tuple([(m, Fraction(x, den)) for m, x in zip(self.monos, self.nums)])
        _set_terms(self, terms)
        return terms

    def __eq__(self, other):
        if other.__class__ is Coefficient:
            return self.nums == other.nums and self.den == other.den and self.monos == other.monos
        return NotImplemented

    __hash__ = Record.__hash__

    # -- constructors -------------------------------------------------

    @classmethod
    def from_dict(cls, d: Mapping[Monomial, Fraction]) -> "Coefficient":
        items = tuple(sorted((m, q) for m, q in d.items() if q != 0))
        return cls(items)

    @classmethod
    def rational(cls, q) -> "Coefficient":
        n, d = _ratio(q)
        return from_ints((_ONE_MONO,), (n,), d) if n else ZERO

    @classmethod
    def monomial(cls, q, pi=0, gammaE=0, ln2=0, zeta3=0) -> "Coefficient":
        n, d = _ratio(q)
        if not n:
            return ZERO
        if min(pi, gammaE, ln2, zeta3) < 0:
            raise DiffRegError("monomial exponents must be non-negative")
        return from_ints(((pi, gammaE, ln2, zeta3),), (n,), d)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Coefficient":
        if other.__class__ is not Coefficient:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Coefficient.rational(other)
        b = other.nums
        if not b:
            return self
        a = self.nums
        if not a:
            return other
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        acc = dict(zip(self.monos, a if fa == 1 else [x * fa for x in a]))
        for m, x in zip(other.monos, b):
            x *= fb
            if m in acc:
                x += acc[m]
                if not x:
                    del acc[m]
                    continue
            acc[m] = x
        items = sorted(acc.items())
        return from_ints(tuple([m for m, _ in items]), [x for _, x in items], da * fa)

    __radd__ = __add__

    def __sub__(self, other) -> "Coefficient":
        if other.__class__ is not Coefficient and not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Coefficient":
        return -self + other

    def __neg__(self) -> "Coefficient":
        return from_ints(self.monos, [-x for x in self.nums], self.den)

    def __mul__(self, other) -> "Coefficient":
        if other.__class__ is not Coefficient:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return ZERO
            if other == 1:
                return self
            n = other.numerator
            return from_ints(self.monos, [x * n for x in self.nums], self.den * other.denominator)
        a, b = self, other
        if len(a.nums) == 1:
            a, b = b, a
        if len(b.nums) == 1:
            # shifting every monomial by one vector keeps the order, and a
            # product of nonzero ints is nonzero
            s, r = b.monos[0], b.nums[0]
            monos = a.monos
            if s != _ONE_MONO:
                s0, s1, s2, s3 = s
                monos = tuple([(m[0] + s0, m[1] + s1, m[2] + s2, m[3] + s3) for m in monos])
            return from_ints(monos, [x * r for x in a.nums], a.den * b.den)
        acc: dict = {}
        for m1, x1 in zip(a.monos, a.nums):
            for m2, x2 in zip(b.monos, b.nums):
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                acc[m] = acc[m] + x1 * x2 if m in acc else x1 * x2
        items = sorted(kv for kv in acc.items() if kv[1])
        return from_ints(tuple([m for m, _ in items]), [x for _, x in items], a.den * b.den)

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
        monos = self.monos
        if other.__class__ is Coefficient:
            if len(other.nums) != 1:
                raise DiffRegError("division only by a single monomial")
            mono, n, d = other.monos[0], other.nums[0], other.den
            if mono != _ONE_MONO:
                # a shift by one vector keeps the order and creates no zero
                monos = tuple([tuple([a - b for a, b in zip(m, mono)]) for m in monos])
                for m, newm in zip(self.monos, monos):
                    if min(newm) < 0:
                        raise DiffRegError(f"monomial {mono} does not divide {m}")
        else:
            n, d = _ratio(other)
            if not n:
                raise ZeroDivisionError("division by zero")
        if n < 0:
            n, d = -n, -d
        return from_ints(monos, [x * d for x in self.nums], self.den * n)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_rational(self) -> bool:
        return all(m == _ONE_MONO for m in self.monos)

    def rational_value(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        if not self.is_rational():
            raise DiffRegError("coefficient is not rational")
        return Fraction(self.nums[0], self.den)

    def evalf(self) -> float:
        """Floating value; terms summed in normalized order.  Each term
        starts from num / den, which int true division rounds correctly, as
        float(Fraction) does."""
        total = 0.0
        den = self.den
        for m, x in zip(self.monos, self.nums):
            v = x / den
            for exp, sym in zip(m, _SYMBOL_VALUES):
                if exp:
                    v *= sym ** exp
            total += v
        return total

    def __str__(self) -> str:
        from .printer import format_coefficient

        return format_coefficient(self)


_new = object.__new__
_set_terms = Coefficient.terms.__set__
_set_monos = _IntForm.monos.__set__
_set_nums = _IntForm.nums.__set__
_set_den = _IntForm.den.__set__


def from_ints(monos: tuple, nums, den: int) -> Coefficient:
    """A Coefficient from nonzero numerators over den > 0, one per
    monomial of monos, with their common factor divided out."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    c = _new(Coefficient)
    _set_monos(c, monos)
    _set_nums(c, tuple(nums))
    _set_den(c, den)
    return c


ZERO = Coefficient()
ONE = Coefficient.rational(1)
PI = Coefficient.monomial(1, pi=1)
GAMMA_E = Coefficient.monomial(1, gammaE=1)
LN2 = Coefficient.monomial(1, ln2=1)
ZETA3 = Coefficient.monomial(1, zeta3=1)


# -- exact special values ---------------------------------------------


def _lattice(x) -> tuple[int, bool]:
    """(m, half) with x = m + half/2, for x on the positive (half-)integer
    lattice, the one set where the exact layer's constants stay inside
    the symbol set."""
    x = Fraction(*_ratio(x))
    if x <= 0 or (2 * x).denominator != 1:
        raise SymbolSetError(
            f"argument {x} is not a positive integer or half-integer; "
            "its value leaves the exact symbol set"
        )
    return int(x), x.denominator == 2


def gamma_exact(x: Fraction) -> tuple[Fraction, int]:
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
