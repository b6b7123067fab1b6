"""The reader of leaf tokens against the reader of plain tokens, and the
bounded tables of the parser and the printer.

``parser_reference`` holds the reader as it was when every power, ratio
and exponent was read token by token; the shipped reader must give the
same value, or the same error with the same message, line and column, on
every text, well-formed or broken.
"""

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import parser_reference as ref
from diffreg import parser, printer
from diffreg.errors import ParseError
from diffreg.parser import parse_momentum, parse_operator, parse_position
from diffreg.printer import format_position

PARSERS = {
    "position": (parse_position, ref.parse_position),
    "momentum": (parse_momentum, ref.parse_momentum),
    "operator": (parse_operator, ref.parse_operator),
}


def outcome(parse, text, dim):
    """repr of the value, or the error's type, message, line and column."""
    try:
        return repr(parse(text, dim))
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.col
    except Exception as exc:  # the dimension's errors, and any other
        return type(exc).__name__, str(exc)


def same(kind, text, dim=4):
    shipped, reference = PARSERS[kind]
    got = outcome(shipped, text, dim)
    assert got == outcome(reference, text, dim), (kind, text, dim)
    return got


# -- texts drawn from the grammar, well-formed and broken ---------------------
#
# The grammar below picks each piece with a pick(sequence) function: a
# hypothesis draw for whole texts, or a hypothesis-seeded random.Random for
# a batch of single leaves, which is cheap enough to try thousands of them.

# ints: mostly plain, else zero, leading zeros, Unicode decimal digits, or
# at and over the digit cap
INTS = ("1", "2", "3", "5", "7", "10", "12") * 4 + (
    "0", "00", "0" * 1000, "007", "٣", "1٣", "٠", "２", "9" * 1000, "9" * 1001)
# box powers stay small: applying box^m costs time that grows with m
BOX_INTS = ("1", "2", "3", "0", "00", "007", "٣", "２")
SPACE = ("",) * 6 + (" ", " ", "\n ", "\t", "\u2003")
NAMES = ("pi", "gammaE", "ln2", "zeta3")
LOGS = ("log(r^2*M^2)", "log( r ^ 2 * M ^2 )", "log(p^2/M^2)", "log(p ^ 2 / M^2)")
# what a broken text gets inserted: stray operators, a zero, bad
# characters, a second leaf
JUNK = ("^", "-", "/", "*", "+", "(", ")", "0", "00", "@", "é", "M", "r^2", "r", "pi", "delta",
        "box", "^^")
# factors around a single leaf that make its end offset matter: a kind that
# cannot multiply it, a division, an operator, a delta, a trailing token
BEFORE = ("", "", "2*", "p^2*", "r^-2*", "(pi)/", "r^2/", "box*", "delta*", "1/(")
AFTER = ("", "", "*r^2", "*p", "/r", ")", " + 1", "*delta", "^2", " r")


def optional(pick, pieces, odds=2):
    """pieces one time in odds, else none."""
    return pieces if pick(range(odds)) == 0 else []


def suffix(pick, ints=INTS):
    """'^' ['-'] int ['/' int] as an exponent has it, its caret sometimes
    left out, then sometimes a caret and an int, or a slash and an int."""
    pieces = ["^"] if pick(range(6)) else []
    pieces += optional(pick, ["-"]) + [pick(ints)] + optional(pick, ["/", pick(ints)])
    return pieces + optional(pick, ["^", pick(ints)], 4) + optional(pick, ["/", pick(ints)], 4)


def leaf(pick, depth=3):
    choice = pick(range(7 if depth < 3 else 6))
    if choice == 0:
        pieces = [pick(INTS)] + optional(pick, suffix(pick)[1:])
    elif choice == 1:
        pieces = [pick("rp")] + optional(pick, suffix(pick))
    elif choice == 2:
        pieces = [pick(NAMES)] + optional(pick, suffix(pick))
    elif choice == 3:
        pieces = [pick(LOGS)] + optional(pick, suffix(pick))
    elif choice == 4:
        pieces = ["box"] + optional(pick, suffix(pick, BOX_INTS))
    elif choice == 5:
        pieces = ["delta"]
    else:
        pieces = ["(", *expr(pick, depth + 1), ")"]
    return optional(pick, ["-"], 6) + pieces


def expr(pick, depth=0):
    pieces = optional(pick, ["-"], 4)
    for t in range(pick(range(1, 4))):
        if t:
            pieces.append(pick("+-"))
        for f in range(pick(range(1, 4))):
            if f:
                pieces.append(pick("*/"))
            pieces += leaf(pick, depth)
    return pieces


def spaced(pick, pieces):
    return "".join(pick(SPACE) + p for p in pieces) + pick(SPACE)


def broken_text(pick):
    """An expr with up to two pieces deleted or inserted."""
    pieces = expr(pick)
    for _ in range(pick((0, 0, 1, 1, 2))):
        at = pick(range(len(pieces) + 1))
        if pick((True, False)) and at < len(pieces):
            del pieces[at]
        else:
            pieces.insert(at, pick(JUNK))
    return spaced(pick, pieces)


def leaf_text(pick):
    """One leaf, its suffix well-formed or not, among other factors."""
    return pick(BEFORE) + spaced(pick, leaf(pick)) + pick(AFTER)


@st.composite
def texts(draw):
    return broken_text(lambda seq: draw(st.sampled_from(seq)))


NAMED = [
    "2/3^2", "r^3/2^2", "r^-3/0", "r^-3/00", "pi^-2", "r^^-4", "r^-2 r^2", "1/0/3", "1/00/3",
    "r^-0/3/2", "٣/3/2", "1/٣/2", "pi^-2/3", "box^-2/3", "r^pi^2", "(r^-4 r^2)",
    "r ^ - 3 / 2", "log( r^2 * M^2 ) ^ 2 / r ^ 2", "r^-2 +\n  r^-" + "9" * 1001,
    "r^-" + "9" * 1000, "1/" + "9" * 1001, "r^-3/" + "9" * 1000, "r^-3/" + "9" * 1001,
    "pi^" + "9" * 1001, "2/" + "0" * 1000, "box*delta", "delta*box", "box*(r^-2 + delta)",
    "box^2*r^2*pi", "(box + 2)*(r^-2)", "box*box*r^2", "delta/r^2", "r^2*delta*delta",
    "((r^-2)", "r^-2))", "(", ")", "r^0/2", "3/0*r", "0/3*r", "r^-2/(0)", "2^2", "r^2^2",
    # leading zeros, Unicode digits and zero powers inside a leaf
    "pi^007", "box^00*r^-2", "r^٣/٢", "log(p^2/M^2)^٢", "r^-0", "pi^0*r^-2",
    # an error inside a leaf on a later line, and a caret with no int after it
    "r^-2 +\n  r^-3/0", "1 +\n  pi^-2", "r +\n 2/00", "r^ -", "log(r^2*M^2)^^2",
]


@pytest.mark.parametrize("text", NAMED)
@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_named_texts(kind, text):
    same(kind, text)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PARSERS)), texts(), st.sampled_from((4, 4, 4, 3, 2, 1, 0)))
@example("position", "r^^-4 @", 1)
def test_readers_agree(kind, text, dim):
    # a stray caret can make box^m of a long m, which takes time growing
    # with m to apply
    assume(not re.search(r"box\s*\^\s*\d{4}", text))
    same(kind, text, dim)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_readers_agree_on_leaves(seed):
    rng = random.Random(seed)
    for _ in range(300):
        same(rng.choice(sorted(PARSERS)), leaf_text(rng.choice))


def test_trailing_leaf_quotes_the_plain_token():
    assert same("position", "r^-2 r^2") == (
        "ParseError", "unexpected trailing input 'r' (line 1, column 6)", 1, 6)


# -- the bounded tables ------------------------------------------------------


def exact_pass():
    """Parse and print every text of one seed-1 pass of the exact benchmark."""
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    sys.path.insert(0, str(bench))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(bench))
    workload = WORKLOADS["exact"]()
    ops = workload.generate(1)

    def run():
        for op in ops:
            try:
                workload.call(op)
            except Exception:
                pass  # a not-representable target is an outcome, not a fault
    return run


class TestTables:
    """The leaf table of the parser and the symbol-text table of the
    printer are filled on first use and stop at their bound."""

    def test_leaf_table_stays_at_its_bound(self):
        parser._LEAVES.clear()
        bound = parser._LEAF_TABLE_SIZE
        for a in range(1, bound + 60):
            text = f"{a}/7*pi^{a}*r^-{a}/3"
            assert repr(parse_position(text, 4)) == repr(ref.parse_position(text, 4))
        assert len(parser._LEAVES) == bound
        # every leaf still reads right, in the table or not
        for a in (1, bound // 2, bound + 59):
            text = f"{a}/7*pi^{a}*r^-{a}/3"
            assert repr(parse_position(text, 4)) == repr(ref.parse_position(text, 4))
        assert len(parser._LEAVES) == bound

    def test_symbol_table_stays_at_its_bound(self):
        printer._SYMBOL_TEXT.clear()
        bound = printer._SYMBOL_TABLE_SIZE
        texts = [f"{a}*pi^{a % 7}*gammaE^{a // 7 % 7}*ln2^{a // 49 % 7}*zeta3^{a // 343}/r^2"
                 for a in range(1, bound + 60)]
        printed = [format_position(parse_position(t, 4)) for t in texts]
        assert len(printer._SYMBOL_TEXT) == bound
        for t, p in zip(texts, printed):
            assert parse_position(p, 4) == parse_position(t, 4)
            assert format_position(parse_position(t, 4)) == p
        assert len(printer._SYMBOL_TEXT) == bound

    def test_a_second_exact_pass_adds_no_entry(self):
        run = exact_pass()
        parser._LEAVES.clear()
        printer._SYMBOL_TEXT.clear()
        run()
        sizes = len(parser._LEAVES), len(printer._SYMBOL_TEXT)
        assert 0 < sizes[0] < parser._LEAF_TABLE_SIZE
        assert 0 < sizes[1] < printer._SYMBOL_TABLE_SIZE
        run()
        assert (len(parser._LEAVES), len(printer._SYMBOL_TEXT)) == sizes
