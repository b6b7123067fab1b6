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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .coeffs import ZERO, Coefficient, as_exponent
from .errors import (
    DimensionMismatchError,
    DistributionProductError,
    EvaluationError,
)


@dataclass(frozen=True)
class RadialTerm:
    coeff: Coefficient
    rpow: int | Fraction  # r^rpow; an int when integral
    logpow: int = 0  # log(r^2 M^2)^logpow

    def __post_init__(self):
        object.__setattr__(self, "rpow", as_exponent(self.rpow))
        if self.logpow < 0:
            raise ValueError("logpow must be non-negative")


@dataclass(frozen=True)
class LocalTerm:
    coeff: Coefficient
    boxpow: int = 0  # coeff * box^boxpow delta^n(x)

    def __post_init__(self):
        if self.boxpow < 0:
            raise ValueError("boxpow must be non-negative")


@dataclass(frozen=True)
class MomentumTerm:
    coeff: Coefficient
    ppow: int | Fraction  # p^ppow; an int when integral
    logpow: int = 0  # log(p^2/M^2)^logpow

    def __post_init__(self):
        object.__setattr__(self, "ppow", as_exponent(self.ppow))
        if self.logpow < 0:
            raise ValueError("logpow must be non-negative")


@dataclass(frozen=True)
class PositionFunction:
    dim: int
    radial: Tuple[RadialTerm, ...] = ()
    local: Tuple[LocalTerm, ...] = ()
    flags: Tuple[str, ...] = ()

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


@dataclass(frozen=True)
class MomentumFunction:
    dim: int
    terms: Tuple[MomentumTerm, ...] = ()
    local_poly: Tuple[Tuple[Coefficient, int], ...] = ()  # coeff * (-p^2)^j
    flags: Tuple[str, ...] = ()

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


AnyFunction = Union[PositionFunction, MomentumFunction]


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


def log_power_map(c: Coefficient, k: int, d: Sequence) -> List[Tuple[int, Coefficient]]:
    """c L^k -> sum_i C(k, i) d_i c L^(k-i) as (log power, coefficient) pairs,
    none for a zero d_i.  A log power is a derivative in the exponent, so this
    is how a map that multiplies a power by f(s) acts on log powers, with d_i
    the scaled derivatives of f: box^m, the master formula, L -> L + l,
    d/d log M^2 and the surface bracket.  A rational C(k, i) d_i folds into
    one factor before the one product by c."""
    return [
        (k - i, c * _times(math.comb(k, i), di))
        for i, di in enumerate(d[: k + 1])
        if _nonzero(di)
    ]


def log_power_solve(y: Mapping[int, Coefficient], d: Sequence) -> Dict[int, Coefficient]:
    """The nonzero x[k] with sum_k log_power_map(x[k], k, d) = sum_j y[j] L^j,
    by back-substitution from the top log power.  With nu the index of the
    first nonzero d_i, the L^j equation fixes x[j + nu]; the components below
    nu span the map's kernel and are pinned to zero."""
    nu = next(i for i, di in enumerate(d) if _nonzero(di))
    x: Dict[int, Coefficient] = {}
    for j in range(max(y, default=-1), -1, -1):
        rhs = y.get(j, ZERO)
        for i in range(nu + 1, len(d)):
            if j + i in x and _nonzero(d[i]):
                rhs = rhs - x[j + i] * _times(math.comb(j + i, i), d[i])
        if not rhs.is_zero():
            x[j + nu] = rhs.divide(_times(math.comb(j + nu, nu), d[nu]))
    return x


# -- numeric evaluation ------------------------------------------------


def eval_position(f: PositionFunction, r: float, Mval: float) -> float:
    """Pointwise value at radius r > 0; terms summed in normalized order."""
    if r <= 0:
        raise EvaluationError("r must be positive")
    if Mval <= 0:
        raise EvaluationError("mass must be positive")
    if f.local:
        raise EvaluationError("cannot evaluate delta-type terms pointwise")
    lg = math.log(r * r * Mval * Mval)
    total = 0.0
    for t in f.radial:
        total += t.coeff.evalf() * r ** float(t.rpow) * lg ** t.logpow
    return total


def eval_momentum(F: MomentumFunction, p: float, Mval: float) -> float:
    """Pointwise value at momentum p > 0; terms then polynomial part, each
    in normalized order."""
    if p <= 0:
        raise EvaluationError("p must be positive")
    if Mval <= 0:
        raise EvaluationError("mass must be positive")
    lg = math.log(p * p / (Mval * Mval))
    total = 0.0
    for t in F.terms:
        total += t.coeff.evalf() * p ** float(t.ppow) * lg ** t.logpow
    for c, j in F.local_poly:
        total += c.evalf() * (-(p * p)) ** j
    return total


def radial_derivative(f: PositionFunction, r: float, Mval: float = 1.0) -> float:
    """d/dr of the radial part, evaluated at r > 0 via the exact per-term
    derivative c r^(a-1) (a log^k + 2k log^(k-1))."""
    if r <= 0:
        raise EvaluationError("r must be positive")
    lg = math.log(r * r * Mval * Mval)
    total = 0.0
    for t in f.radial:
        a = float(t.rpow)
        k = t.logpow
        val = a * lg ** k
        if k > 0:
            val += 2.0 * k * lg ** (k - 1)
        total += t.coeff.evalf() * r ** (a - 1.0) * val
    return total
