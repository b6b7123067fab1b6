"""Pretty-printing of coefficients, functions, and operators in the same
surface syntax the parser accepts, so that parse(print(x)) == x on
normalized values."""

from __future__ import annotations

import sys
from fractions import Fraction

from .algebra import MomentumFunction, PositionFunction
from .coeffs import SYMBOL_NAMES, Coefficient
from .errors import DiffRegError
from .operators import DiffOperator

_LOG_R = "log(r^2*M^2)"
_LOG_P = "log(p^2/M^2)"


def _format_monomial(mono, q: Fraction) -> str:
    parts: list[str] = []
    if abs(q) != 1 or not any(mono):
        try:
            parts.append(str(abs(q)))
        except ValueError:  # the interpreter caps int-to-text conversion
            raise DiffRegError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                               "digits: too long to print") from None
    for name, exp in zip(SYMBOL_NAMES, mono):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


def format_coefficient(c: Coefficient) -> str:
    return _join_terms([("-" if q < 0 else "+", _format_monomial(mono, q))
                        for mono, q in c.terms])


def _join_terms(rendered: list[tuple]) -> str:
    """(sign, body) pairs joined by " + " and " - "; a leading "+" is
    dropped and an empty sum reads 0."""
    out = "".join(f" {sign} {body}" for sign, body in rendered)
    return "0" if not out else out[3:] if out[1] == "+" else "-" + out[3:]


def _term(c: Coefficient, factors: list[str], divisor: str | None = None) -> tuple:
    """(sign, body) of the product c * factors [/ divisor]: a unit
    coefficient is left out, one of several monomials gets parentheses."""
    if len(c.terms) > 1:
        sign, lead = "+", f"({format_coefficient(c)})"
    else:
        mono, q = c.terms[0]
        sign, lead = "-" if q < 0 else "+", _format_monomial(mono, q)
    body = "*".join(factors if factors and lead == "1" else [lead, *factors])
    return sign, body if divisor is None else f"{body}/{divisor}"


def _power(name: str, k: int) -> list[str]:
    """name^k as a list of factors: none at k = 0, the bare name at k = 1."""
    return [] if k == 0 else [name] if k == 1 else [f"{name}^{k}"]


def _power_log(c: Coefficient, pw: int | Fraction, k: int, var: str, log: str) -> tuple:
    """c var^pw log^k; a negative integer power is written as a divisor."""
    if pw < 0 and pw.denominator == 1:
        return _term(c, _power(log, k), f"{var}^{-pw}")
    return _term(c, _power(log, k) + ([f"{var}^{pw}"] if pw else []))


def _box(c: Coefficient, k: int, *extra: str) -> tuple:
    """c box^k followed by the extra factors."""
    return _term(c, [*_power("box", k), *extra])


def format_position(f: PositionFunction) -> str:
    return _join_terms([_power_log(t.coeff, t.rpow, t.logpow, "r", _LOG_R) for t in f.radial]
                       + [_box(t.coeff, t.boxpow, "delta") for t in f.local])


def format_momentum(F: MomentumFunction) -> str:
    """The polynomial part c (-p^2)^j is written as (-1)^j c p^(2j)."""
    return _join_terms([_power_log(t.coeff, t.ppow, t.logpow, "p", _LOG_P) for t in F.terms]
                       + [_power_log(c if j % 2 == 0 else -1 * c, 2 * j, 0, "p", _LOG_P)
                          for c, j in F.local_poly])


def format_operator(L: DiffOperator) -> str:
    return _join_terms([_box(c, k) for k, c in sorted(L.coeffs, reverse=True)])
