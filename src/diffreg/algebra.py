"""Exact term language for radial functions in n-dimensional Euclidean
space and their momentum-space images.

Position side: sums of c * r^a * log(r^2 M^2)^k plus delta-type local terms
c * box^j delta^n(x).  Momentum side: sums of c * p^b * log(p^2/M^2)^k plus
an exact polynomial part stored as c * (-p^2)^j.  One global mass symbol M.

Exponents (``rpow``, ``ppow``) are kept in one normal form: an ``int`` when
integral, else a ``Fraction`` with denominator > 1.  Integral exponents, the
common case, then hash, sort and shift as plain ints.
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
    __slots__ = ("coeff", "rpow", "logpow")

    def __init__(self, coeff: Coefficient, rpow: int | Fraction, logpow: int = 0):
        # coeff * r^rpow * log(r^2 M^2)^logpow, rpow an int when integral
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "rpow", as_exponent(rpow))
        object.__setattr__(self, "logpow", logpow)
        if logpow < 0:
            raise ValueError("logpow must be non-negative")


class LocalTerm(Record):
    __slots__ = ("coeff", "boxpow")

    def __init__(self, coeff: Coefficient, boxpow: int = 0):
        # coeff * box^boxpow delta^n(x)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "boxpow", boxpow)
        if boxpow < 0:
            raise ValueError("boxpow must be non-negative")


class MomentumTerm(Record):
    __slots__ = ("coeff", "ppow", "logpow")

    def __init__(self, coeff: Coefficient, ppow: int | Fraction, logpow: int = 0):
        # coeff * p^ppow * log(p^2/M^2)^logpow, ppow an int when integral
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "ppow", as_exponent(ppow))
        object.__setattr__(self, "logpow", logpow)
        if logpow < 0:
            raise ValueError("logpow must be non-negative")


class PositionFunction(Record):
    __slots__ = ("dim", "radial", "local", "flags")

    def __init__(
        self,
        dim: int,
        radial: tuple[RadialTerm, ...] = (),
        local: tuple[LocalTerm, ...] = (),
        flags: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "radial", radial)
        object.__setattr__(self, "local", local)
        object.__setattr__(self, "flags", flags)

    @classmethod
    def build(cls, dim, radial=(), local=(), flags=()) -> "PositionFunction":
        """Canonical constructor: merges like terms, drops zeros, sorts."""
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        rad: dict = {}
        for t in radial:
            key = (t.rpow, t.logpow)
            rad[key] = rad[key] + t.coeff if key in rad else t.coeff
        loc: dict = {}
        for t in local:
            j = t.boxpow
            loc[j] = loc[j] + t.coeff if j in loc else t.coeff
        radial_out = tuple(
            RadialTerm(c, k[0], k[1]) for k, c in sorted(rad.items()) if not c.is_zero()
        )
        local_out = tuple(
            LocalTerm(c, j) for j, c in sorted(loc.items()) if not c.is_zero()
        )
        return cls(dim, radial_out, local_out, tuple(sorted(set(flags))))

    def is_zero(self) -> bool:
        return not self.radial and not self.local


class MomentumFunction(Record):
    __slots__ = ("dim", "terms", "local_poly", "flags")

    def __init__(
        self,
        dim: int,
        terms: tuple[MomentumTerm, ...] = (),
        local_poly: tuple[tuple[Coefficient, int], ...] = (),  # coeff * (-p^2)^j
        flags: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "local_poly", local_poly)
        object.__setattr__(self, "flags", flags)

    @classmethod
    def build(cls, dim, terms=(), local_poly=(), flags=()) -> "MomentumFunction":
        """Canonical constructor.  Log-free terms with even non-negative
        integer power are folded into the polynomial part so that every
        polynomial-in-p^2 piece has a single normal form."""
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        pw: dict = {}
        poly: dict = {}
        for c, j in local_poly:
            if j < 0:
                raise ValueError("polynomial degree must be non-negative")
            poly[j] = poly[j] + c if j in poly else c
        for t in terms:
            if (
                t.logpow == 0
                and type(t.ppow) is int
                and t.ppow >= 0
                and t.ppow % 2 == 0
            ):
                j = t.ppow // 2
                sign = 1 if j % 2 == 0 else -1
                c = sign * t.coeff
                poly[j] = poly[j] + c if j in poly else c
            else:
                key = (t.ppow, t.logpow)
                pw[key] = pw[key] + t.coeff if key in pw else t.coeff
        terms_out = tuple(
            MomentumTerm(c, k[0], k[1]) for k, c in sorted(pw.items()) if not c.is_zero()
        )
        poly_out = tuple(
            (c, j) for j, c in sorted(poly.items()) if not c.is_zero()
        )
        return cls(dim, terms_out, poly_out, tuple(sorted(set(flags))))

    def is_zero(self) -> bool:
        return not self.terms and not self.local_poly


AnyFunction = PositionFunction | MomentumFunction


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


def normalize(f: AnyFunction) -> AnyFunction:
    """Idempotent canonical form (the constructors already normalize)."""
    if isinstance(f, PositionFunction):
        return PositionFunction.build(f.dim, f.radial, f.local, f.flags)
    return MomentumFunction.build(f.dim, f.terms, f.local_poly, f.flags)


def add(f: AnyFunction, g: AnyFunction) -> AnyFunction:
    if type(f) is not type(g):
        raise TypeError("cannot add position and momentum functions")
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dim {f.dim} != dim {g.dim}")
    flags = f.flags + g.flags
    if isinstance(f, PositionFunction):
        return PositionFunction.build(
            f.dim, f.radial + g.radial, f.local + g.local, flags
        )
    return MomentumFunction.build(
        f.dim, f.terms + g.terms, f.local_poly + g.local_poly, flags
    )


def scale(c, f: AnyFunction) -> AnyFunction:
    if isinstance(c, (int, Fraction)):
        c = Coefficient.rational(c)
    if isinstance(f, PositionFunction):
        return PositionFunction.build(
            f.dim,
            [RadialTerm(c * t.coeff, t.rpow, t.logpow) for t in f.radial],
            [LocalTerm(c * t.coeff, t.boxpow) for t in f.local],
            f.flags,
        )
    return MomentumFunction.build(
        f.dim,
        [MomentumTerm(c * t.coeff, t.ppow, t.logpow) for t in f.terms],
        [(c * pc, j) for pc, j in f.local_poly],
        f.flags,
    )


def sub(f: AnyFunction, g: AnyFunction) -> AnyFunction:
    return add(f, scale(-1, g))


def mul(f: PositionFunction, g: PositionFunction) -> PositionFunction:
    """Pointwise product on the radial subalgebra."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dim {f.dim} != dim {g.dim}")
    if f.local or g.local:
        raise DistributionProductError("undefined product of distributions")
    out = []
    for s in f.radial:
        for t in g.radial:
            out.append(
                RadialTerm(s.coeff * t.coeff, s.rpow + t.rpow, s.logpow + t.logpow)
            )
    return PositionFunction.build(f.dim, out, flags=f.flags + g.flags)


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


def log_power_solve(y: Mapping[int, Coefficient], d: Sequence) -> dict[int, Coefficient]:
    """The nonzero x[k] with sum_k log_power_map(x[k], k, d) = sum_j y[j] L^j:
    the rows of log_power_rows up to the top log power of y, applied."""
    return back_substitute(y, log_power_rows(d, max(y, default=-1)))


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
