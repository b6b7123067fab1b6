"""Recursive-descent parser for the term language.

Grammar (whitespace-insensitive):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor | '/' factor)*
    factor   := number | 'pi' | 'gammaE' | 'ln2' | 'zeta3'
              | 'r' ['^' exponent] | 'p' ['^' exponent]
              | 'log(r^2*M^2)' ['^' int] | 'log(p^2/M^2)' ['^' int]
              | 'delta' | 'box' ['^' int] | '(' expr ')'
    exponent := ['-'] int ['/' int]
    number   := int ['/' int]

The log tokens are atomic.  A parsed value is a kind tag (scalar, position,
momentum or operator) and its terms.  A scalar's terms are one
``Coefficient``.  The other kinds map a term key to a nonzero
``Coefficient``: (r power, log power) or a delta box power (an int) for
position, (p power, log power) for momentum and a box power for an
operator.  Products add keys and multiply coefficients, sums merge the dicts,
and a sign is pushed into the first factor of its term.  The normal form is
built once, when ``parse_*`` returns; only ``box * f`` builds ``f`` on the
way, to apply the operator with its resonance deltas and flags.  Tokens keep
their offset, and the line and column are worked out only for an error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from .algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
)
from .coeffs import ONE, Coefficient
from .errors import ParseError
from .operators import DiffOperator, apply_operator

_TOKEN_RE = re.compile(
    r"""
    (?P<logr>log\(\s*r\s*\^\s*2\s*\*\s*M\s*\^\s*2\s*\))
  | (?P<logp>log\(\s*p\s*\^\s*2\s*/\s*M\s*\^\s*2\s*\))
  | (?P<number>\d+)
  | (?P<name>pi|gammaE|ln2|zeta3|delta|box|r|p)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

MINUS_ONE = Coefficient.rational(-1)
_SYMBOLS = ("pi", "gammaE", "ln2", "zeta3")

# (kind, text, offset)
_Token = Tuple[str, str, int]


def _where(text: str, offset: int) -> Tuple[int, int]:
    """1-based line and column of an offset into the text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", *_where(text, m.start()))
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _times(a: Coefficient, b: Coefficient) -> Coefficient:
    # leaves carry the shared ONE, and a product by it needs no arithmetic
    if a is ONE:
        return b
    if b is ONE:
        return a
    return a * b


def _merge(acc: dict, key, c: Coefficient) -> None:
    """acc[key] += c, dropping the key when the sum cancels."""
    if key in acc:
        c = acc[key] + c
        if not c.terms:
            del acc[key]
            return
    acc[key] = c


class _Value:
    """A kind tag and its terms (see the module docstring)."""

    __slots__ = ("kind", "terms", "flags")

    def __init__(self, kind: str, terms, flags: Tuple[str, ...] = ()):
        self.kind = kind
        self.terms = terms
        self.flags = flags


def _promoted(target: str, c: Coefficient) -> dict:
    """The terms of a scalar as a value of the target kind."""
    if not c.terms:
        return {}
    return {0 if target == "operator" else (0, 0): c}


def _position(dim: int, terms: dict, flags) -> PositionFunction:
    radial, local = [], []
    for key, c in terms.items():
        if type(key) is tuple:
            radial.append(RadialTerm(c, key[0], key[1]))
        else:
            local.append(LocalTerm(c, key))
    return PositionFunction.build(dim, radial, local, flags)


# parentheses may nest this deep: the descent recurses once per level, and
# deeper input would exhaust the Python stack
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dim
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text=None) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def fail(self, msg: str, tok=None):
        tok = tok or self.tokens[self.pos]
        raise ParseError(msg, *_where(self.text, tok[2]))

    def _is_op(self, text: str) -> bool:
        # no token but an operator has one of the operator characters as text
        return self.tokens[self.pos][1] == text

    # -- grammar -------------------------------------------------------

    def parse(self) -> _Value:
        val = self.expr()
        if self.peek()[0] != "eof":
            self.fail(f"unexpected trailing input {self.peek()[1]!r}")
        return val

    def expr(self) -> _Value:
        negate = self._is_op("-")
        if negate:
            self.advance()
        val = self.term(negate)
        while self._is_op("+") or self._is_op("-"):
            rhs = self.term(self.advance()[1] == "-")
            val = self._add(val, rhs)
        return val

    def term(self, negate: bool = False) -> _Value:
        val = self.factor(negate)
        while self._is_op("*") or self._is_op("/"):
            op = self.advance()[1]
            rhs = self.factor()
            val = self._mul(val, rhs if op == "*" else self._invert(rhs))
        return val

    def factor(self, negate: bool = False) -> _Value:
        """One factor, times -1 when ``negate``: the sign lands on the
        leaf's coefficient."""
        kind, text, _ = tok = self.advance()
        while text == "-":
            negate = not negate
            kind, text, _ = tok = self.advance()
        unit = MINUS_ONE if negate else ONE
        if text == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}", tok)
            val = self.expr()
            self.expect("op", ")")
            self.depth -= 1
            return self._scale(unit, val) if negate else val
        if kind == "number":
            q = self._ratio(int(text))
            return _Value("scalar", Coefficient.rational(-q if negate else q))
        if kind == "logr" or kind == "logp":
            k = self._opt_int_power()
            return self._leaf("position" if kind == "logr" else "momentum", (0, k), unit)
        if text in _SYMBOLS:
            k = self._opt_int_power()
            return _Value("scalar", Coefficient.monomial(-1 if negate else 1, **{text: k}))
        if text == "delta":
            return self._leaf("position", 0, unit)
        if text == "box":
            return _Value("operator", {self._opt_int_power(): unit})
        if text == "r" or text == "p":
            e = self._opt_exponent()
            return self._leaf("position" if text == "r" else "momentum", (e, 0), unit)
        self.fail(f"unexpected token {text!r}", tok)

    def _leaf(self, kind: str, key, unit: Coefficient) -> _Value:
        # the first function factor rejects a bad dimension, as building
        # the function would
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        return _Value(kind, {key: unit})

    def _ratio(self, num: int):
        """The integer just read, over a plain-integer denominator after a
        slash unless a '^' follows that denominator; otherwise the slash is
        term-level division."""
        toks, i = self.tokens, self.pos
        if toks[i][1] == "/" and toks[i + 1][0] == "number" and toks[i + 2][1] != "^":
            den = int(toks[i + 1][1])
            if den == 0:
                self.fail("division by zero", toks[i + 1])
            self.pos = i + 2
            return Fraction(num, den)
        return num

    def _opt_int_power(self) -> int:
        if self._is_op("^"):
            self.advance()
            neg = self._is_op("-")
            if neg:
                self.advance()
            k = int(self.expect("number")[1])
            if neg:
                self.fail("this power must be a non-negative integer")
            return k
        return 1

    def _opt_exponent(self):
        # r^3/2 binds the slash to the exponent
        if not self._is_op("^"):
            return 1
        self.advance()
        neg = self._is_op("-")
        if neg:
            self.advance()
        e = self._ratio(int(self.expect("number")[1]))
        return -e if neg else e

    # -- semantics -----------------------------------------------------

    def _scale(self, c: Coefficient, v: _Value) -> _Value:
        if v.kind == "scalar":
            return _Value("scalar", _times(c, v.terms))
        terms = {k: _times(c, x) for k, x in v.terms.items()} if c.terms else {}
        return _Value(v.kind, terms, v.flags)

    def _add(self, a: _Value, b: _Value) -> _Value:
        kinds = {a.kind, b.kind}
        if kinds == {"position", "momentum"}:
            self.fail("cannot mix r-space and p-space in one expression")
        if a.kind == b.kind == "scalar":
            return _Value("scalar", a.terms + b.terms)
        target = next(k for k in ("position", "momentum", "operator") if k in kinds)
        for v in (a, b):
            if v.kind == "scalar":
                v.kind, v.terms = target, _promoted(target, v.terms)
            elif v.kind != target:
                self.fail(f"cannot combine {v.kind} value here")
        for key, c in b.terms.items():
            _merge(a.terms, key, c)
        a.flags += b.flags
        return a

    def _mul(self, a: _Value, b: _Value) -> _Value:
        if a.kind == "scalar":
            return self._scale(a.terms, b)
        if b.kind == "scalar":
            return self._scale(b.terms, a)
        if a.kind == "operator" and b.kind == "position":
            op = DiffOperator.build(a.terms)
            f = apply_operator(op, _position(self.dim, b.terms, b.flags))
            terms = {(t.rpow, t.logpow): t.coeff for t in f.radial}
            terms.update((t.boxpow, t.coeff) for t in f.local)
            return _Value("position", terms, f.flags)
        if a.kind != b.kind:
            self.fail(f"cannot multiply {a.kind} by {b.kind}")
        if a.kind == "position" and any(
                type(k) is int for v in (a, b) for k in v.terms):
            self.fail("undefined product of distributions")
        out: dict = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                key = k1 + k2 if a.kind == "operator" else (k1[0] + k2[0], k1[1] + k2[1])
                _merge(out, key, _times(c1, c2))
        return _Value(a.kind, out, a.flags + b.flags)

    def _invert(self, v: _Value) -> _Value:
        if v.kind == "scalar":
            c = v.terms
            if len(c.terms) != 1 or not c.is_rational():
                self.fail("can only divide by a plain rational")
            return _Value("scalar", Coefficient.rational(1 / c.rational_value()))
        if v.kind == "operator":
            self.fail("cannot divide by an operator")
        if len(v.terms) != 1 or type(next(iter(v.terms))) is int:
            self.fail("can only divide by a single power term")
        ((e, k), c), = v.terms.items()
        if k != 0 or not c.is_rational():
            var = "r" if v.kind == "position" else "p"
            self.fail(f"can only divide by a rational power of {var}")
        inv = ONE if c is ONE else Coefficient.rational(1 / c.rational_value())
        return _Value(v.kind, {(-e, 0): inv})


def _parse_as(text: str, dim: int, kind: str, what: str):
    """Terms and flags of the text read as the given kind; a scalar is
    promoted to it."""
    v = _Parser(text, dim).parse()
    if v.kind == "scalar":
        return _promoted(kind, v.terms), ()
    if v.kind != kind:
        raise ParseError(f"expected {what} expression, got {v.kind}")
    return v.terms, v.flags


def parse_position(text: str, dim: int) -> PositionFunction:
    terms, flags = _parse_as(text, dim, "position", "a position-space")
    return _position(dim, terms, flags)


def parse_momentum(text: str, dim: int) -> MomentumFunction:
    terms, _ = _parse_as(text, dim, "momentum", "a momentum-space")
    return MomentumFunction.build(dim, [MomentumTerm(c, e, k) for (e, k), c in terms.items()])


def parse_operator(text: str, dim: int = 4) -> DiffOperator:
    terms, _ = _parse_as(text, dim, "operator", "an operator")
    return DiffOperator.build(terms)
