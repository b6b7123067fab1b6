"""Pretty-printing of coefficients, functions, and operators in the same
surface syntax the parser accepts, so that parse(print(x)) == x on
normalized values."""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .algebra import MomentumFunction, PositionFunction
from .coeffs import SYMBOL_NAMES, Coefficient
from .operators import DiffOperator

_LOG_R = "log(r^2*M^2)"
_LOG_P = "log(p^2/M^2)"


def _format_monomial(mono, q: Fraction) -> str:
    parts: List[str] = []
    if abs(q) != 1 or not any(mono):
        parts.append(str(abs(q)))
    for name, exp in zip(SYMBOL_NAMES, mono):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


def format_coefficient(c: Coefficient) -> str:
    return _join_terms([("-" if q < 0 else "+", _format_monomial(mono, q))
                        for mono, q in c.terms])


def _coeff_factor(c: Coefficient) -> tuple:
    """(sign_str, factor_str or None): a coefficient rendered as a leading
    factor of a product term.  Multi-monomial coefficients get parentheses."""
    if len(c.terms) > 1:
        return "+", f"({format_coefficient(c)})"
    mono, q = c.terms[0]
    sign = "-" if q < 0 else "+"
    body = _format_monomial(mono, q)
    return sign, body if body else None


def _join_terms(rendered: List[tuple]) -> str:
    if not rendered:
        return "0"
    out = ""
    for i, (sign, body) in enumerate(rendered):
        if i == 0:
            out = ("-" if sign == "-" else "") + body
        else:
            out += (" - " if sign == "-" else " + ") + body
    return out


def _power_suffix(var: str, pw: int | Fraction) -> List[str]:
    if pw == 0:
        return []
    return [f"{var}^{pw}"]


def _product(sign: str, factors: List[str], divisors: List[str]) -> tuple:
    if not factors:
        factors = ["1"]
    if len(factors) > 1 and factors[0] == "1":
        factors = factors[1:]
    body = "*".join(factors)
    for d in divisors:
        body += f"/{d}"
    return sign, body


def _power_log_term(coeff: Coefficient, pw: int | Fraction, logpow: int, var: str,
                    log: str) -> tuple:
    """c var^pw log^logpow as a (sign, body) product; an integer negative
    power is written as a divisor."""
    sign, cfac = _coeff_factor(coeff)
    factors = [cfac] if cfac else []
    if logpow == 1:
        factors.append(log)
    elif logpow > 1:
        factors.append(f"{log}^{logpow}")
    divisors = []
    if pw > 0:
        factors += _power_suffix(var, pw)
    elif pw < 0:
        if pw.denominator == 1:
            divisors.append(f"{var}^{-pw}")
        else:
            factors += _power_suffix(var, pw)
    return _product(sign, factors, divisors)


def format_position(f: PositionFunction) -> str:
    rendered = [_power_log_term(t.coeff, t.rpow, t.logpow, "r", _LOG_R) for t in f.radial]
    for t in f.local:
        sign, cfac = _coeff_factor(t.coeff)
        factors = [cfac] if cfac else []
        if t.boxpow == 1:
            factors.append("box")
        elif t.boxpow > 1:
            factors.append(f"box^{t.boxpow}")
        factors.append("delta")
        rendered.append(_product(sign, factors, []))
    return _join_terms(rendered)


def format_momentum(F: MomentumFunction) -> str:
    rendered = [_power_log_term(t.coeff, t.ppow, t.logpow, "p", _LOG_P) for t in F.terms]
    for c, j in F.local_poly:
        coeff = c if j % 2 == 0 else -1 * c
        sign, cfac = _coeff_factor(coeff)
        factors = [cfac] if cfac else []
        if j > 0:
            factors += _power_suffix("p", 2 * j)
        if not factors:
            factors = ["1"]
        rendered.append(_product(sign, factors, []))
    return _join_terms(rendered)


def format_operator(L: DiffOperator) -> str:
    rendered = []
    for k, c in sorted(L.coeffs, reverse=True):
        sign, cfac = _coeff_factor(c)
        factors = [cfac] if cfac else []
        if k == 1:
            factors.append("box")
        elif k > 1:
            factors.append(f"box^{k}")
        rendered.append(_product(sign, factors, []))
    return _join_terms(rendered)
