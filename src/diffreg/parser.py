"""One-pass reader for the term language.

Grammar (whitespace-insensitive):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor | '/' factor)*
    factor   := '-'* (number | 'pi' | 'gammaE' | 'ln2' | 'zeta3'
              | 'r' ['^' exponent] | 'p' ['^' exponent]
              | 'log(r^2*M^2)' ['^' int] | 'log(p^2/M^2)' ['^' int]
              | 'delta' | 'box' ['^' int] | '(' expr ')')
    exponent := ['-'] int ['/' int]
    number   := int ['/' int]

One ``findall`` turns the text into plain string tokens (the log tokens
are atomic); a token's line and column are found by scanning again, only
for an error.  A value is a kind (scalar, position, momentum or operator),
a dict ``{(key, monomial): (numerator, denominator)}`` of int pairs with no
zero entry (the pairs are reduced only when the value's coefficients are
built, and a denominator may be negative), and flags.  A key
is (power, log power) of r or p, (box power, 0) for an operator, (0, 0) for
a scalar, or an int, the box power on a delta.  One loop reads an expr, and
recurses only at '('.  The plain leaves of a term fold into an int
numerator and denominator (every sign included), a monomial over (pi,
gammaE, ln2, zeta3) and a key; a parenthesised factor joins as a dict, and
a divisor, a plain rational or a single rational power, folds into the
leaves.  Each ``Coefficient`` is built once per key, in its int form,
when ``parse_*`` returns, and the key map goes to the kind's ``from_maps``,
which makes each term record once; only ``box * f`` builds ``f`` on the
way, to apply the operator with its resonance deltas and flags.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .algebra import MomentumFunction, PositionFunction
from .coeffs import ONE, SYMBOL_NAMES, from_ints
from .errors import ParseError
from .operators import DiffOperator, apply_operator

_SCAN = re.compile(
    r"\s*(log\(\s*r\s*\^\s*2\s*\*\s*M\s*\^\s*2\s*\)"
    r"|log\(\s*p\s*\^\s*2\s*/\s*M\s*\^\s*2\s*\)"
    r"|\d+|" + "|".join(SYMBOL_NAMES) + r"|delta|box|\S)"
)
# the one-character tokens that are not a bad character, besides digits
_CHARS = "+-*/^()rp"
_SYMBOLS = {name: i for i, name in enumerate(SYMBOL_NAMES)}
_NO_MONO = (0, 0, 0, 0)

# parentheses may nest this deep: the reader recurses once per level, and
# deeper input would exhaust the Python stack
_MAX_NESTING = 100
# a longer literal is refused rather than handed to int(), whose cost grows
# with the length and which some interpreters cap
_MAX_DIGITS = 1000


def _merge(acc: dict, km, n: int, d: int) -> None:
    """acc[km] += n/d, dropping the entry when the sum cancels; a sum is
    reduced, so that a long sum keeps small ints."""
    if km in acc:
        n0, d0 = acc[km]
        n, d = n * d0 + n0 * d, d * d0
        if not n:
            del acc[km]
            return
        g = gcd(n, d)
        n, d = n // g, d // g
    acc[km] = n, d


def _key(a, b):
    # a delta's box power times the unit key (0, 0); a delta times any
    # other key is refused before it gets here, or the product is zero
    if type(a) is int:
        return a
    if type(b) is int:
        return b
    return (a[0] + b[0], a[1] + b[1])


def _has_delta(terms: dict) -> bool:
    return any(type(key) is int for key, _ in terms)


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (k1, m1), (n1, d1) in a.items():
        for (k2, m2), (n2, d2) in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            _merge(out, (_key(k1, k2), m), n1 * n2, d1 * d2)
    return out


def _coefficients(terms: dict) -> dict:
    """key -> Coefficient: the one place a value's coefficients are built."""
    by_key: dict = {}
    for (key, m), nd in terms.items():
        by_key.setdefault(key, []).append((m, nd))
    out = {}
    for key, pairs in by_key.items():
        pairs.sort()
        den = lcm(*[d for _, (_, d) in pairs])
        out[key] = from_ints(tuple([m for m, _ in pairs]),
                            [n * (den // d) for _, (n, d) in pairs], den)
    return out


def _position(dim: int, coeffs: dict, flags) -> PositionFunction:
    # a power's key is (rpow, logpow), a delta's its box power
    radial = {key: c for key, c in coeffs.items() if type(key) is tuple}
    local = {key: c for key, c in coeffs.items() if type(key) is int}
    return PositionFunction.from_maps(dim, radial, local, flags)


class _Reader:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.toks = _SCAN.findall(text) + [""]
        self.dim = dim
        if dim < 2 and self.bad() is not None:
            # before the dimension's error (no function below 1, no box below 2)
            self.fail("", 0)

    def bad(self):
        """Index of the first bad character, or None."""
        for j, t in enumerate(self.toks):
            if len(t) == 1 and t not in _CHARS and not t.isdecimal():
                return j
        return None

    def fail(self, msg: str, i: int):
        """Raise for token i; a bad character anywhere in the text is
        reported first, as a scan of the whole text would find it."""
        j = self.bad()
        if j is not None:
            msg, i = f"unexpected character {self.toks[j]!r}", j
        text = self.text
        at = [m.start(1) for m in _SCAN.finditer(text)] + [len(text)]
        raise ParseError(msg, text.count("\n", 0, at[i]) + 1, at[i] - text.rfind("\n", 0, at[i]))

    def leaf(self) -> None:
        # the first function factor rejects a bad dimension, as building
        # the function would
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")

    def number(self, i: int) -> int:
        t = self.toks[i]
        if not t.isdecimal():
            self.fail(f"expected 'number', found {t!r}", i)
        if len(t) > _MAX_DIGITS:
            self.fail(f"number longer than {_MAX_DIGITS} digits", i)
        return int(t)

    def ratio(self, i: int):
        """(n, d, next index) of the integer at i: over a plain-integer
        denominator after a slash unless a '^' follows that denominator,
        else d = 1 and the slash is term-level division."""
        n = self.number(i)
        toks = self.toks
        if toks[i + 1] == "/" and toks[i + 2].isdecimal() and toks[i + 3] != "^":
            d = self.number(i + 2)
            if not d:
                self.fail("division by zero", i + 2)
            return n, d, i + 3
        return n, 1, i + 1

    def power(self, i: int):
        """(k, next index) of an optional '^' int power at i."""
        toks = self.toks
        if toks[i] != "^":
            return 1, i
        neg = toks[i + 1] == "-"
        i += 1 + neg
        k = self.number(i)
        if neg:
            self.fail("this power must be a non-negative integer", i + 1)
        return k, i + 1

    def exponent(self, i: int):
        """(e, next index) of an optional '^' exponent at i; r^3/2 binds
        the slash to the exponent."""
        toks = self.toks
        if toks[i] != "^":
            return 1, i
        neg = toks[i + 1] == "-"
        n, d, i = self.ratio(i + 1 + neg)
        e = n if d == 1 else Fraction(n, d)
        return (-e if neg else e), i

    def divisor(self, kind: str, group: dict, i: int):
        """(q, key) of a group that is a plain rational q times the key's
        power (the unit key for a scalar)."""
        if kind == "operator":
            self.fail("cannot divide by an operator", i)
        if kind != "scalar" and (len({key for key, _ in group}) != 1
                                 or type(next(iter(group))[0]) is int):
            self.fail("can only divide by a single power term", i)
        (key, m), q = next(iter(group.items())) if group else (((0, 0), None), None)
        if len(group) != 1 or m != _NO_MONO or key[1]:
            var = "r" if kind == "position" else "p"
            self.fail("can only divide by a plain rational" if kind == "scalar"
                      else f"can only divide by a rational power of {var}", i)
        return q, key

    def apply(self, op: dict, f: PositionFunction):
        """box * f: the operator value applied to f, as a dict and flags."""
        L = DiffOperator.build({key[0]: c for key, c in _coefficients(op).items()})
        g = apply_operator(L, f)
        out = {((t.rpow, t.logpow), m): (x, t.coeff.den)
               for t in g.radial for m, x in zip(t.coeff.monos, t.coeff.nums)}
        out.update(((t.boxpow, m), (x, t.coeff.den))
                   for t in g.local for m, x in zip(t.coeff.monos, t.coeff.nums))
        return out, g.flags

    def expr(self, i: int, depth: int):
        """(kind, terms, flags, next index) of the expr at token i."""
        toks = self.toks
        kind, terms, flags = "scalar", {}, []
        sign = 1
        if toks[i] == "-":
            sign, i = -1, i + 1
        while True:
            # the term so far is num/den * mono * key, times acc when a group
            # or an applied operator joined it; key is (e, k), or a delta
            num, den, mono, e, k, delta = sign, 1, [0, 0, 0, 0], 0, 0, False
            tkind, acc, div = "scalar", None, False
            while True:
                t = toks[i]
                i += 1
                while t == "-":
                    num = -num
                    t = toks[i]
                    i += 1
                fkind, fkey, group, gflags = "scalar", None, None, ()
                if t.isdecimal():
                    n, d, i = self.ratio(i - 1)
                    if div:
                        if not n:
                            self.fail("can only divide by a plain rational", i)
                        n, d = d, n
                    num *= n
                    den *= d
                elif t == "r" or t == "p":
                    x, i = self.exponent(i)
                    self.leaf()
                    fkind = "position" if t == "r" else "momentum"
                    fkey = (-x if div else x, 0)
                elif t in _SYMBOLS:
                    x, i = self.power(i)
                    if div and x:
                        self.fail("can only divide by a plain rational", i)
                    mono[_SYMBOLS[t]] += x
                elif t[:4] == "log(":
                    x, i = self.power(i)
                    self.leaf()
                    fkind = "momentum" if "p" in t else "position"
                    if div and x:
                        var = "p" if fkind == "momentum" else "r"
                        self.fail(f"can only divide by a rational power of {var}", i)
                    fkey = (0, x)
                elif t == "delta":
                    self.leaf()
                    if div:
                        self.fail("can only divide by a single power term", i)
                    fkind, fkey = "position", 0
                elif t == "box":
                    x, i = self.power(i)
                    if div:
                        self.fail("cannot divide by an operator", i)
                    fkind, fkey = "operator", (x, 0)
                elif t == "(":
                    if depth >= _MAX_NESTING:
                        self.fail(f"parentheses nested deeper than {_MAX_NESTING}", i - 1)
                    fkind, group, gflags, i = self.expr(i, depth + 1)
                    if toks[i] != ")":
                        self.fail(f"expected ')', found {toks[i]!r}", i)
                    i += 1
                    if div:
                        (qn, qd), (x, _) = self.divisor(fkind, group, i)
                        num, den, fkey, group = num * qd, den * qn, (-x, 0), None
                else:
                    self.fail(f"unexpected token {t!r}", i - 1)
                # fold the factor into the term, with the product's kind rules
                if fkind != "scalar" and tkind != "scalar":
                    if tkind == "operator" and fkind == "position":
                        op = {((e, 0), tuple(mono)): (num, den)} if num else {}
                        if acc is not None:
                            op = _product(acc, op)
                        f = _position(self.dim, _coefficients(group) if group is not None
                                      else {fkey: ONE}, gflags)
                        acc, gflags = self.apply(op, f)
                        flags.extend(gflags)
                        num, den, mono, e, k = 1, 1, [0, 0, 0, 0], 0, 0
                        tkind, fkind, fkey, group = "position", "scalar", None, None
                    elif tkind != fkind:
                        self.fail(f"cannot multiply {tkind} by {fkind}", i)
                    elif tkind == "position" and (
                            num and acc != {} and (delta or acc is not None and _has_delta(acc))
                            or fkey == 0 or group is not None and _has_delta(group)):
                        self.fail("undefined product of distributions", i)
                if fkind != "scalar":
                    tkind = fkind
                if group is not None:
                    acc = group if acc is None else _product(acc, group)
                    flags.extend(gflags)
                elif fkey == 0:
                    delta = True
                elif fkey is not None:
                    e += fkey[0]
                    k += fkey[1]
                t = toks[i]
                if t != "*" and t != "/":
                    break
                div = t == "/"
                i += 1
            # add the term to the sum
            if tkind != kind and tkind != "scalar":
                if kind == "scalar":
                    kind = tkind
                elif {kind, tkind} == {"position", "momentum"}:
                    self.fail("cannot mix r-space and p-space in one expression", i)
                else:
                    self.fail("cannot combine operator value here", i)
            if num and acc != {}:
                entries = {(0 if delta else (e, k), tuple(mono)): (num, den)}
                for km, (n, d) in (entries if acc is None else _product(acc, entries)).items():
                    _merge(terms, km, n, d)
            t = toks[i]
            if t != "+" and t != "-":
                return kind, terms, flags, i
            sign = -1 if t == "-" else 1
            i += 1


def _read(text: str, dim: int, kind: str, what: str):
    """Coefficients by key and flags of the text read as the given kind; a
    scalar's unit key serves every kind."""
    r = _Reader(text, dim)
    got, terms, flags, i = r.expr(0, 0)
    if r.toks[i]:
        r.fail(f"unexpected trailing input {r.toks[i]!r}", i)
    if got != kind and got != "scalar":
        raise ParseError(f"expected {what} expression, got {got}")
    return _coefficients(terms), flags


def parse_position(text: str, dim: int) -> PositionFunction:
    coeffs, flags = _read(text, dim, "position", "a position-space")
    return _position(dim, coeffs, flags)


def parse_momentum(text: str, dim: int) -> MomentumFunction:
    coeffs, _ = _read(text, dim, "momentum", "a momentum-space")
    return MomentumFunction.from_maps(dim, coeffs, {})


def parse_operator(text: str, dim: int = 4) -> DiffOperator:
    coeffs, _ = _read(text, dim, "operator", "an operator")
    return DiffOperator.build({key[0]: c for key, c in coeffs.items()})
