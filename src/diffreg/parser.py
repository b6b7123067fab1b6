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

One leaf grammar, written once by ``_grammar``, makes a leaf one token: a
factor with the power or ratio after it (``pi^3``, ``r^-3/2``, ``20/3``,
``log(p^2/M^2)^2``).  The ``findall`` scan compiles it with no capturing
group; ``_LEAF`` compiles it with a named group for each piece, and is
read only when a leaf's text is not yet in a bounded table of meanings.
Every digit run fuses, and the reader checks the groups in the order in
which the grammar above reads them: the numerator's and then the
denominator's length, a zero denominator, then a negative power on a name,
which may not have one.  A slash is term-level division when a '^'
follows the int after it.  The one suffix left unfused is a '^' after a
bare name with no int to read, which is an error.  Line and column are
found by scanning again, only for an error, which quotes the head of the
token at its offset: its name, variable or int (``'r'``, not ``'r^2'``).

A value is a kind (scalar, position, momentum or operator), a dict
``{(key, monomial): (numerator, denominator)}`` of int pairs with no zero
entry (reduced only when the coefficients are built; a denominator may be
negative), and flags.  A key is (power, log power) of r or p, (box power,
0) for an operator, (0, 0) for a scalar, or an int, the box power on a
delta.  One loop reads an expr, and recurses only at '('.  The leaves of
a term fold into an int numerator and denominator, a monomial over (pi,
gammaE, ln2, zeta3) and a key; the entries of a parenthesised factor are
merged straight into the sum when the term ends, and a divisor, a plain
rational or a single rational power, folds into the leaves.  Each
``Coefficient`` is built once per key when ``parse_*`` returns, and the key
map goes to the kind's ``from_maps``; only ``box * f`` builds ``f`` on the
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

# parentheses may nest this deep: the reader recurses once per level, and
# deeper input would exhaust the Python stack
_MAX_NESTING = 100
# a longer literal is refused rather than handed to int(), whose cost grows
# with the length and which some interpreters cap
_MAX_DIGITS = 1000


def _grammar(g) -> str:
    """The leaf grammar, with g(name, pattern) writing each piece as a
    named group or a plain one: a name with an optional '^' ['-'] int; r or
    p with an optional '^' ['-'] int ['/' int]; an int with an optional
    '/' int.  A denominator is a whole digit run that no '^' follows."""
    def power(minus: str, top: str) -> str:
        return r"\s*\^\s*(?:" + g(minus, "-") + r"\s*)?" + g(top, r"\d+")

    def over(den: str) -> str:
        return r"(?:\s*/\s*" + g(den, r"\d+(?!\d)(?!\s*\^)") + ")?"

    names = (r"log\(\s*r\s*\^\s*2\s*\*\s*M\s*\^\s*2\s*\)|log\(\s*p\s*\^\s*2\s*/\s*M\s*\^\s*2\s*\)|"
             + "|".join(SYMBOL_NAMES) + "|box")
    return (g("name", names) + "(?:" + power("minus", "power") + ")?"
            + "|" + g("var", "[rp]") + "(?:" + power("sign", "top") + over("bottom") + ")?"
            + "|" + g("num", r"\d+") + over("den"))


_SCAN = re.compile(r"\s*([-+*/()^]|" + _grammar(lambda name, p: f"(?:{p})") + r"|delta|\S)")
_LEAF = re.compile(_grammar(lambda name, p: f"(?P<{name}>{p})"))
# the one-character tokens that are not a bad character, besides digits
_CHARS = "+-*/^()rp"
# a name other than a log -> (what, place of its power)
_NAMES = {"box": ("operator", 0), **{name: ("s", i) for i, name in enumerate(SYMBOL_NAMES)}}
_NO_MONO = (0, 0, 0, 0)
# leaf token -> meaning, filled on first use up to this many entries
_LEAVES: dict = {}
_LEAF_TABLE_SIZE = 1024


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
        if len(pairs) == 1:
            (m, (n, d)), = pairs
            out[key] = from_ints((m,), (n if d > 0 else -n,), abs(d))
            continue
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

    def fail(self, msg: str, i: int, quote: bool = False, into: int = 0):
        """Raise for the character into token i, quoting the head of that
        token if asked; a bad character anywhere in the text is reported
        first, as a scan of the whole text would find it."""
        j = self.bad()
        if j is not None:
            msg, i, quote, into = f"unexpected character {self.toks[j]!r}", j, False, 0
        if quote:
            m = _LEAF.match(self.toks[i])
            head = m.group("name") or m.group("var") or m.group("num") if m else self.toks[i]
            msg = f"{msg} {head!r}"
        text = self.text
        at = ([m.start(1) for m in _SCAN.finditer(text)] + [len(text)])[i] + into
        raise ParseError(msg, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))

    def digits(self, m, group: str, i: int) -> int:
        """The int of a digit group of leaf i, or 1 when the group is absent."""
        t = m.group(group)
        if t is None:
            return 1
        if len(t) > _MAX_DIGITS:
            self.fail(f"number longer than {_MAX_DIGITS} digits", i, into=m.start(group))
        return int(t)

    def leaf(self, t: str, i: int):
        """(what, a, x, bare) of the token t at index i, kept in _LEAVES if
        it reads; None for a token that is no leaf.  what is "n" for a/x,
        "s" for symbol a to the power x, "delta", or the kind of a factor
        with x at place a of its key (r^x, log^x, box^x); bare is True for
        a name with no power, which a '^' may not follow."""
        m = _LEAF.match(t)
        if m is None:
            if t != "delta":
                return None
            leaf = "delta", 0, 1, False
        elif m.group("name"):
            name, x = m.group("name"), self.digits(m, "power", i)
            if m.group("minus"):
                self.fail("this power must be a non-negative integer", i + 1)
            what, a = _NAMES.get(name) or ("momentum" if "p" in name else "position", 1)
            leaf = what, a, x, m.group("power") is None
        else:
            var = m.group("var")
            top, bottom = ("top", "bottom") if var else ("num", "den")
            n, d = self.digits(m, top, i), self.digits(m, bottom, i)
            if not d:
                self.fail("division by zero", i, into=m.start(bottom))
            if var is None:
                leaf = "n", n, d, False
            else:
                e = n if d == 1 else Fraction(n, d)
                leaf = ("position" if var == "r" else "momentum", 0, -e if m.group("sign") else e,
                        m.group("top") is None)
        if len(_LEAVES) < _LEAF_TABLE_SIZE:
            _LEAVES[t] = leaf
        return leaf

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
                if t == "(":
                    if depth >= _MAX_NESTING:
                        self.fail(f"parentheses nested deeper than {_MAX_NESTING}", i - 1)
                    fkind, group, gflags, i = self.expr(i, depth + 1)
                    if toks[i] != ")":
                        self.fail("expected ')', found", i, True)
                    i += 1
                    if div:
                        (qn, qd), (x, _) = self.divisor(fkind, group, i)
                        num, den, fkey, group = num * qd, den * qn, (-x, 0), None
                else:
                    leaf = _LEAVES.get(t) or self.leaf(t, i - 1)
                    if leaf is None:
                        self.fail("unexpected token", i - 1, True)
                    what, a, x, bare = leaf
                    if bare and toks[i] == "^":
                        # the one suffix that does not fuse: no int to read
                        self.fail("expected 'number', found", i + 1 + (toks[i + 1] == "-"), True)
                    if what == "n":
                        if div:
                            if not a:
                                self.fail("can only divide by a plain rational", i)
                            a, x = x, a
                        num *= a
                        den *= x
                    elif what == "s":
                        if div and x:
                            self.fail("can only divide by a plain rational", i)
                        mono[a] += x
                    elif what == "operator":
                        if div:
                            self.fail("cannot divide by an operator", i)
                        fkind, fkey = what, (x, 0)
                    else:
                        # the first function factor rejects a bad
                        # dimension, as building the function would
                        if self.dim < 1:
                            raise ValueError("dimension must be a positive integer")
                        if what == "delta":
                            if div:
                                self.fail("can only divide by a single power term", i)
                            fkind, fkey = "position", 0
                        elif a:
                            if div and x:
                                var = "p" if what == "momentum" else "r"
                                self.fail(f"can only divide by a rational power of {var}", i)
                            fkind, fkey = what, (0, x)
                        else:
                            fkind, fkey = what, (-x if div else x, 0)
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
                key, m = 0 if delta else (e, k), tuple(mono)
                if acc is None:
                    _merge(terms, (key, m), num, den)
                else:
                    for (k1, m1), (n1, d1) in acc.items():
                        _merge(terms, (_key(k1, key), (m1[0] + m[0], m1[1] + m[1],
                                                       m1[2] + m[2], m1[3] + m[3])),
                               n1 * num, d1 * den)
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
        r.fail("unexpected trailing input", i, True)
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
