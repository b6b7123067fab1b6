"""Exact term language for radial functions in n-dimensional Euclidean
space and their momentum-space images.

Position side: sums of c * r^a * log(r^2 M^2)^k plus delta-type local terms
c * box^j delta^n(x).  Momentum side: sums of c * p^b * log(p^2/M^2)^k plus
an exact polynomial part stored as c * (-p^2)^j.  One global mass symbol M.

Exponents (``rpow``, ``ppow``) are kept in one normal form: an ``int`` when
integral, else a ``Fraction`` with denominator > 1.  Integral exponents, the
common case, then hash, sort and shift as plain ints.

Every function value is made by its kind's ``from_maps``, from merged maps
of its terms keyed (power, log power) and by polynomial degree: it sorts,
drops zeros, folds log-free even non-negative integer momentum powers into
the polynomial part, and makes each term record once, its slots set
directly.  ``build`` merges term records into those maps; a producer
accumulates into them with ``term_map``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .coeffs import Coefficient, Record, as_exponent
from .errors import (
    DimensionMismatchError,
    DistributionProductError,
    EvaluationError,
)


class RadialTerm(Record):
    """coeff * r^rpow * log(r^2 M^2)^logpow, rpow an int when integral."""

    __slots__ = ("coeff", "rpow", "logpow")

    def __init__(self, coeff: Coefficient, rpow: int | Fraction, logpow: int = 0):
        if logpow < 0:
            raise ValueError("logpow must be non-negative")
        super().__init__(coeff, as_exponent(rpow), logpow)


class LocalTerm(Record):
    """coeff * box^boxpow delta^n(x)."""

    __slots__ = ("coeff", "boxpow")

    def __init__(self, coeff: Coefficient, boxpow: int = 0):
        if boxpow < 0:
            raise ValueError("boxpow must be non-negative")
        super().__init__(coeff, boxpow)


class MomentumTerm(Record):
    """coeff * p^ppow * log(p^2/M^2)^logpow, ppow an int when integral."""

    __slots__ = ("coeff", "ppow", "logpow")

    def __init__(self, coeff: Coefficient, ppow: int | Fraction, logpow: int = 0):
        if logpow < 0:
            raise ValueError("logpow must be non-negative")
        super().__init__(coeff, as_exponent(ppow), logpow)


class PositionFunction(Record):
    __slots__ = ("dim", "radial", "local", "flags")
    _defaults = {"radial": (), "local": (), "flags": ()}

    @classmethod
    def build(cls, dim, radial=(), local=(), flags=()) -> "PositionFunction":
        """Canonical constructor: merges like terms, drops zeros, sorts."""
        return normalize(cls(dim, radial, local, flags))

    @classmethod
    def from_maps(cls, dim, radial: dict, local: dict, flags=()) -> "PositionFunction":
        """The normal form from merged maps {(rpow, logpow): coeff} and
        {boxpow: coeff}: sorted, zeros dropped, each rpow in its
        as_exponent form, and each term record made once, its slots set
        directly.  Every producer of the kind ends here."""
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        rad = []
        for (a, k), c in sorted(radial.items()):
            if c.nums:
                t = _new(RadialTerm)
                _set_rcoeff(t, c)
                _set_rpow(t, a if type(a) is int else as_exponent(a))
                _set_rlog(t, k)
                rad.append(t)
        loc = []
        for j, c in sorted(local.items()):
            if c.nums:
                t = _new(LocalTerm)
                _set_lcoeff(t, c)
                _set_boxpow(t, j)
                loc.append(t)
        return _function(cls, _POSITION_SLOTS, dim, rad, loc, flags)

    def is_zero(self) -> bool:
        return not self.radial and not self.local


class MomentumFunction(Record):
    """Its polynomial part local_poly holds pairs (coeff, j): coeff * (-p^2)^j."""

    __slots__ = ("dim", "terms", "local_poly", "flags")
    _defaults = {"terms": (), "local_poly": (), "flags": ()}

    @classmethod
    def build(cls, dim, terms=(), local_poly=(), flags=()) -> "MomentumFunction":
        """Canonical constructor: merges like terms, drops zeros, sorts."""
        local_poly = tuple(local_poly)
        if any(j < 0 for _, j in local_poly):
            raise ValueError("polynomial degree must be non-negative")
        return normalize(cls(dim, terms, local_poly, flags))

    @classmethod
    def from_maps(cls, dim, terms: dict, local_poly: dict, flags=()) -> "MomentumFunction":
        """The normal form from merged maps {(ppow, logpow): coeff} and
        {j: coeff of (-p^2)^j}, as PositionFunction.from_maps.  A log-free
        term of even non-negative integer power is folded into the
        polynomial part, so that every polynomial-in-p^2 piece has a single
        normal form; local_poly takes the folded terms in place."""
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        out = []
        for (a, k), c in sorted(terms.items()):
            if not c.nums:
                continue
            if type(a) is not int:
                a = as_exponent(a)
            if not k and type(a) is int and a >= 0 and not a % 2:
                j = a >> 1
                c = -c if j % 2 else c  # c p^(2j) = c (-1)^j (-p^2)^j
                local_poly[j] = local_poly[j] + c if j in local_poly else c
                continue
            t = _new(MomentumTerm)
            _set_mcoeff(t, c)
            _set_ppow(t, a)
            _set_mlog(t, k)
            out.append(t)
        poly = [(c, j) for j, c in sorted(local_poly.items()) if c.nums]
        return _function(cls, _MOMENTUM_SLOTS, dim, out, poly, flags)

    def is_zero(self) -> bool:
        return not self.terms and not self.local_poly


AnyFunction = PositionFunction | MomentumFunction

_new = object.__new__


def _setters(cls) -> tuple:
    # the slot descriptors' setters, which skip the records' refusing __setattr__
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_set_rcoeff, _set_rpow, _set_rlog = _setters(RadialTerm)
_set_lcoeff, _set_boxpow = _setters(LocalTerm)
_set_mcoeff, _set_ppow, _set_mlog = _setters(MomentumTerm)
_POSITION_SLOTS = _setters(PositionFunction)
_MOMENTUM_SLOTS = _setters(MomentumFunction)


def _function(cls, slots: tuple, dim: int, first: list, second: list, flags) -> AnyFunction:
    """A function record set through its slots: dim, its two term tuples
    and its flags, sorted and unique."""
    f = _new(cls)
    set_dim, set_first, set_second, set_flags = slots
    set_dim(f, dim)
    set_first(f, tuple(first))
    set_second(f, tuple(second))
    set_flags(f, tuple(sorted(set(flags))) if flags else ())
    return f


# -- construction helpers ----------------------------------------------


def position_term(dim, coeff, rpow, logpow=0) -> PositionFunction:
    if isinstance(coeff, (int, Fraction)):
        coeff = Coefficient.rational(coeff)
    return PositionFunction.build(dim, radial=[RadialTerm(coeff, rpow, logpow)])


def delta_term(dim, coeff, boxpow=0) -> PositionFunction:
    if isinstance(coeff, (int, Fraction)):
        coeff = Coefficient.rational(coeff)
    return PositionFunction.build(dim, local=[LocalTerm(coeff, boxpow)])


def momentum_term(dim, coeff, ppow, logpow=0) -> MomentumFunction:
    if isinstance(coeff, (int, Fraction)):
        coeff = Coefficient.rational(coeff)
    return MomentumFunction.build(dim, terms=[MomentumTerm(coeff, ppow, logpow)])


# -- algebra operations ------------------------------------------------


def term_map(items, acc: dict | None = None, neg: bool = False) -> dict:
    """acc (a new dict when None) with the coefficient of each (key,
    coefficient) item added to its key's entry, or subtracted with neg:
    the merged maps that from_maps takes."""
    acc = {} if acc is None else acc
    for key, c in items:
        if key in acc:
            acc[key] = acc[key] - c if neg else acc[key] + c
        else:
            acc[key] = -c if neg else c
    return acc


def _items(f: AnyFunction) -> tuple:
    """f's terms as two iterables of (key, coefficient), keyed as the maps
    of its kind's from_maps."""
    if isinstance(f, PositionFunction):
        return ((((t.rpow, t.logpow), t.coeff) for t in f.radial),
                ((t.boxpow, t.coeff) for t in f.local))
    return ((((t.ppow, t.logpow), t.coeff) for t in f.terms),
            ((j, c) for c, j in f.local_poly))


def normalize(f: AnyFunction) -> AnyFunction:
    """Idempotent canonical form (the constructors already normalize)."""
    return type(f).from_maps(f.dim, *map(term_map, _items(f)), f.flags)


def _combine(f: AnyFunction, g: AnyFunction, neg: bool) -> AnyFunction:
    """f + g, or f - g with neg: f's terms and then g's merged into one pair
    of maps."""
    if type(f) is not type(g):
        raise TypeError("cannot add position and momentum functions")
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dim {f.dim} != dim {g.dim}")
    maps = [term_map(items) for items in _items(f)]
    for acc, items in zip(maps, _items(g)):
        term_map(items, acc, neg)
    return type(f).from_maps(f.dim, *maps, f.flags + g.flags)


def add(f: AnyFunction, g: AnyFunction) -> AnyFunction:
    return _combine(f, g, False)


def sub(f: AnyFunction, g: AnyFunction) -> AnyFunction:
    return _combine(f, g, True)


def scale(c, f: AnyFunction) -> AnyFunction:
    if isinstance(c, (int, Fraction)):
        c = Coefficient.rational(c)
    maps = [term_map((key, c * x) for key, x in items) for items in _items(f)]
    return type(f).from_maps(f.dim, *maps, f.flags)


def mul(f: PositionFunction, g: PositionFunction) -> PositionFunction:
    """Pointwise product on the radial subalgebra."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dim {f.dim} != dim {g.dim}")
    if f.local or g.local:
        raise DistributionProductError("undefined product of distributions")
    radial = term_map(((s.rpow + t.rpow, s.logpow + t.logpow), s.coeff * t.coeff)
                      for s in f.radial for t in g.radial)
    return PositionFunction.from_maps(f.dim, radial, {}, f.flags + g.flags)


# -- the log-power identity --------------------------------------------


def _nonzero(x) -> bool:
    return not x.is_zero() if isinstance(x, Coefficient) else x != 0


def _times(q: int, x):
    """q * x, with no ring product when q is 1."""
    return x if q == 1 else q * x


def log_power_map(c: Coefficient, k: int, d: Sequence) -> list[tuple[int, Coefficient]]:
    """c L^k -> sum_i C(k, i) d_i c L^(k-i) as (log power, coefficient) pairs,
    none for a zero d_i.  A log power is a derivative in the exponent, so this
    is how a map that multiplies a power by f(s) acts on log powers, with d_i
    the scaled derivatives of f: box^m, the master formula, L -> L + l,
    d/d log M^2 and the surface bracket.  A rational C(k, i) d_i folds into
    one factor before the one product by c; with c = 1 this is the image of
    the unit term, the entry of a map's table."""
    return [
        (k - i, c * _times(math.comb(k, i), di))
        for i, di in enumerate(d[: k + 1])
        if _nonzero(di)
    ]


def log_power_rows(d: Sequence, top: int) -> tuple:
    """The back-substitution that inverts log_power_map with this d on log
    powers 0 .. top, as rows (j, k, pivot, ((i, q), ...)) from the top log
    power down: the L^j equation fixes x[k] = (y[j] + sum_i q x[i]) / pivot
    over the x[i] above it, with q = -C(i, i - j) d_(i-j) and pivot
    C(k, nu) d_nu.  nu, the index of the first nonzero d_i, is k - j; the
    components below nu span the map's kernel and are pinned to zero.  A
    map's inverse table holds these rows, so a solve makes no C(i, j) and
    no negation."""
    nu = next(i for i, di in enumerate(d) if _nonzero(di))
    return tuple(
        (j, j + nu, _times(math.comb(j + nu, nu), d[nu]), tuple(
            (j + i, -_times(math.comb(j + i, i), d[i]))
            for i in range(nu + 1, min(len(d), top + 1 - j + nu))
            if _nonzero(d[i])
        ))
        for j in range(top, -1, -1)
    )


def back_substitute(y: Mapping[int, Coefficient], rows) -> dict[int, Coefficient]:
    """The nonzero x of log_power_rows applied to y, one product per row
    entry whose x is nonzero and one division per nonzero x."""
    x: dict[int, Coefficient] = {}
    for j, k, pivot, row in rows:
        acc = y.get(j)
        for i, q in row:
            if i in x:
                v = x[i] * q
                acc = v if acc is None else acc + v
        if acc is not None and not acc.is_zero():
            x[k] = acc.divide(pivot)
    return x


# -- numeric evaluation ------------------------------------------------
# L is formed as 2 (log r + log M) or 2 (log p - log M), never as the log of
# a square, which leaves the floats long before r, p or M do.  An overflow or
# a non-finite sum is out of range.


def _finite(total: float, at: str) -> float:
    if not math.isfinite(total):
        raise EvaluationError(f"no finite value at {at}: outside the floating-point range")
    return total


def eval_position(f: PositionFunction, r: float, Mval: float) -> float:
    """Pointwise value at radius r > 0; terms summed in normalized order."""
    if r <= 0:
        raise EvaluationError("r must be positive")
    if Mval <= 0:
        raise EvaluationError("mass must be positive")
    if f.local:
        raise EvaluationError("cannot evaluate delta-type terms pointwise")
    lg = 2.0 * (math.log(r) + math.log(Mval))
    total = 0.0
    try:
        for t in f.radial:
            total += t.coeff.evalf() * r ** float(t.rpow) * lg ** t.logpow
    except OverflowError:
        total = math.inf
    return _finite(total, f"r={r!r}, M={Mval!r}")


def eval_momentum(F: MomentumFunction, p: float, Mval: float) -> float:
    """Pointwise value at momentum p > 0; terms then polynomial part, each
    in normalized order."""
    if p <= 0:
        raise EvaluationError("p must be positive")
    if Mval <= 0:
        raise EvaluationError("mass must be positive")
    lg = 2.0 * (math.log(p) - math.log(Mval))
    total = 0.0
    try:
        for t in F.terms:
            total += t.coeff.evalf() * p ** float(t.ppow) * lg ** t.logpow
        for c, j in F.local_poly:
            total += c.evalf() * (-(p * p)) ** j
    except OverflowError:
        total = math.inf
    return _finite(total, f"p={p!r}, M={Mval!r}")


def radial_derivative(f: PositionFunction, r: float, Mval: float = 1.0) -> float:
    """d/dr of the radial part, evaluated at r > 0 via the exact per-term
    derivative c r^(a-1) (a log^k + 2k log^(k-1))."""
    if r <= 0:
        raise EvaluationError("r must be positive")
    if Mval <= 0:
        raise EvaluationError("mass must be positive")
    lg = 2.0 * (math.log(r) + math.log(Mval))
    total = 0.0
    try:
        for t in f.radial:
            a = float(t.rpow)
            k = t.logpow
            val = a * lg ** k
            if k > 0:
                val += 2.0 * k * lg ** (k - 1)
            total += t.coeff.evalf() * r ** (a - 1.0) * val
    except OverflowError:
        total = math.inf
    return _finite(total, f"r={r!r}, M={Mval!r}")
