"""The evaluation character, the ideal it generates, and a falsifiable
audit of the commuting-diagram claim.

The character evaluates the exact transform of a Fourier-safe function at a
fixed momentum p0.  The audit computes the residual

    | F[a b](p0) - eps(b) F[a](p0) |

with exact transforms where available and the regulated or numeric route
otherwise, and reports it without asserting it vanishes: whether the ideal
lies in the kernel of the transform depends on the (unstated) algebra
structure on the momentum side, so the residual is data, not a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .algebra import (
    PositionFunction,
    eval_momentum,
    mul,
)
from .errors import DiffRegError, EvaluationError
from .fourier import fourier_base, fourier_formal, fourier_safe, term_route
from .numeric import hankel_numeric
from .printer import format_position
from .regulate import find_representation


@dataclass(frozen=True)
class Character:
    """eps(b) = b-hat(p0) on the Fourier-safe subalgebra."""

    p0: float
    dim: int
    Mval: float = 1.0

    def __post_init__(self):
        # "not p0 > 0" rather than "p0 <= 0", so that nan is rejected too
        if not (self.p0 > 0 and math.isfinite(self.p0)):
            raise ValueError("character momentum must be finite and positive")
        if not math.isfinite(self.Mval):
            raise ValueError("character mass scale must be finite")


@dataclass(frozen=True)
class IdealElement:
    """Formal pair representing a (b - eps(b)) with b Fourier-safe."""

    a: PositionFunction
    b: PositionFunction

    def __post_init__(self):
        if self.a.dim != self.b.dim:
            raise DiffRegError("ideal factors must share a dimension")
        if not fourier_safe(self.b):
            raise DiffRegError("ideal factor b must be Fourier-safe")


@dataclass(frozen=True)
class AuditReport:
    residual: float
    value_ab: float
    value_a: float
    character_value: float
    route_ab: str
    elem: IdealElement
    character: Character


def character_eval(b: PositionFunction, ch: Character) -> float:
    """Value of the transform of b at the character momentum, by the route
    :func:`transform_value` picks: exact for integer exponents, numeric for
    fractional ones, whose exact transform leaves the symbol set."""
    if b.dim != ch.dim:
        raise DiffRegError("dimension mismatch with character")
    if not fourier_safe(b):
        raise EvaluationError("character is defined on Fourier-safe functions only")
    return transform_value(b, ch.p0, ch.Mval)[0]


def transform_value(f: PositionFunction, p0: float, Mval: float = 1.0):
    """Evaluate a transform of f at p0, each radial term by the route
    ``fourier.term_route`` gives it: exact (with the local terms), the
    regulated formal transform, or numeric quadrature; a fractional exponent
    in the window is numeric, since its exact transform needs polygamma
    values outside the symbol set.  Raises before any work when a term has
    no route.  Returns (value, route)."""
    n = f.dim
    routed = {"exact": [], "regulated": [], "numeric": []}
    for t in f.radial:
        routed.setdefault(term_route(t, n), []).append(t)
    if None in routed:
        raise DiffRegError(
            "no exact, regulated, or numeric transform available for "
            f"{format_position(PositionFunction.build(n, routed[None]))} in dim {n}"
        )
    total = 0.0
    routes = []
    exact = PositionFunction.build(n, routed["exact"], f.local)
    if not exact.is_zero():
        total += eval_momentum(fourier_base(exact), p0, Mval)
        routes.append("exact")
    if routed["regulated"]:
        rep = find_representation(PositionFunction.build(n, routed["regulated"]))
        total += eval_momentum(fourier_formal(rep), p0, Mval)
        routes.append("regulated")
    if routed["numeric"]:
        val, _ = hankel_numeric(PositionFunction.build(n, routed["numeric"]), p0, n, Mval)
        total += val
        routes.append("numeric")
    return total, "+".join(routes) if routes else "zero"


def diagram_audit(elem: IdealElement, ch: Character) -> AuditReport:
    """Residual of the kernel claim for a single ideal element."""
    ab = mul(elem.a, elem.b)
    eps_b = character_eval(elem.b, ch)
    value_ab, route = transform_value(ab, ch.p0, ch.Mval)
    value_a, _ = transform_value(elem.a, ch.p0, ch.Mval)
    residual = abs(value_ab - eps_b * value_a)
    return AuditReport(
        residual=residual,
        value_ab=value_ab,
        value_a=value_a,
        character_value=eps_b,
        route_ab=route,
        elem=elem,
        character=ch,
    )
