"""Seeded workloads for the diffreg benchmark.

Each workload turns a seed into a fixed list of ops, runs one op through
diffreg's public functions (:meth:`call`, the timed part) and checks its
output afterwards (:meth:`check`, untimed and untraced).  Generation uses
only the seed, so the same seed always gives the same op list.

Calls go through module attributes (``D.find_representation``, ``cli.main``)
so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import mpmath

import diffreg as D
from diffreg import cli, operators
from diffreg.errors import ConvergenceError, NotRepresentableError

TOL = 1e-5  # the CLI's default --tol
MAX_DIGITS = 12.0
P_RANGE = (1e-3, 1e2)  # the documented momentum range


@dataclass
class Op:
    kind: str
    key: str  # canonical text of the inputs, hashed into the op-list digest
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    failure: Optional[str] = None  # failure class; None when the op succeeded
    wrong: Optional[str] = None  # an exact check failed: the output is incorrect
    digits: Optional[float] = None  # None when the op has no numeric value
    underestimate: bool = False  # oracle error estimate below the true error


# -- seeded sampling helpers ---------------------------------------------


def strata(rng: random.Random, k: int, lo: float, hi: float):
    """k draws, one log-uniform in each of k equal strata of [lo, hi] in
    log space, in seeded order."""
    a, b = math.log10(lo), math.log10(hi)
    vals = [a + (b - a) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return [10 ** v for v in vals]


def balanced(rng: random.Random, items, n: int):
    """n items cycling through seeded permutations of ``items``."""
    out = []
    while len(out) < n:
        perm = list(items)
        rng.shuffle(perm)
        out.extend(perm)
    return out[:n]


# -- the benchmark's own term arithmetic -----------------------------------
# Terms are {(rpow, logpow): {monomial: Fraction}} with monomials as
# exponent tuples over (pi, gammaE, ln2, zeta3), independent of diffreg.

SYMBOLS = ("pi", "gammaE", "ln2", "zeta3")
COEFF_MONOS = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def _rand_coeff(rng):
    q = Fraction(rng.randint(1, 9), rng.randint(1, 6)) * rng.choice((1, -1))
    return {rng.choice(COEFF_MONOS): q}


def _acc(out, key, coeff, factor):
    slot = out.setdefault(key, {})
    for mono, q in coeff.items():
        slot[mono] = slot.get(mono, Fraction(0)) + q * factor


def _clean(terms):
    out = {}
    for key, coeff in terms.items():
        coeff = {m: q for m, q in coeff.items() if q != 0}
        if coeff:
            out[key] = coeff
    return out


def box_terms(n: int, terms: dict) -> dict:
    """Laplacian away from the origin, by the radial power-log recurrence
    box(r^a L^k) = a(a+n-2) r^(a-2) L^k + 2k(2a+n-2) r^(a-2) L^(k-1)
    + 4k(k-1) r^(a-2) L^(k-2), with L = log(r^2 M^2)."""
    out: dict = {}
    for (a, k), c in terms.items():
        _acc(out, (a - 2, k), c, a * (a + n - 2))
        if k >= 1:
            _acc(out, (a - 2, k - 1), c, 2 * k * (2 * a + n - 2))
        if k >= 2:
            _acc(out, (a - 2, k - 2), c, 4 * k * (k - 1))
    return _clean(out)


def operator_terms(n: int, L, terms: dict) -> dict:
    """sum_k c_k box^k applied to ``terms``, with L given as diffreg's
    ``DiffOperator.coeffs`` and every product taken here."""
    out: dict = {}
    for k, c in L:
        cur = terms
        for _ in range(k):
            cur = box_terms(n, cur)
        for key, coeff in cur.items():
            slot = out.setdefault(key, {})
            for m1, q1 in c.terms:
                for m2, q2 in coeff.items():
                    mono = tuple(x + y for x, y in zip(m1, m2))
                    slot[mono] = slot.get(mono, Fraction(0)) + q1 * q2
    return _clean(out)


def _coeff_text(coeff: dict) -> str:
    parts = []
    for mono, q in sorted(coeff.items()):
        syms = [s if e == 1 else f"{s}^{e}" for s, e in zip(SYMBOLS, mono) if e]
        parts.append("*".join([str(q)] + syms))
    return " + ".join(parts)


def terms_text(terms: dict) -> str:
    out = []
    for (a, k), coeff in sorted(terms.items()):
        body = f"({_coeff_text(coeff)})*r^{a}"
        if k:
            body += f"*log(r^2*M^2)^{k}"
        out.append(body)
    return " + ".join(out)


def radial_dict(f) -> dict:
    """The radial part of a diffreg PositionFunction in the form above."""
    return {(int(t.rpow), t.logpow): dict(t.coeff.terms) for t in f.radial}


# -- closed-form reference transform, independent of diffreg's transform ----

REF_DPS = 40


def _coeff_mp(coeff: dict):
    syms = (mpmath.pi, mpmath.euler, mpmath.ln2, mpmath.zeta(3))
    total = mpmath.mpf(0)
    for mono, q in coeff.items():
        v = mpmath.mpf(q.numerator) / q.denominator
        for e, s in zip(mono, syms):
            v *= s ** e
        total += v
    return total


def _power_transform(n: int, a: int, k: int, p):
    """F[r^a log^k(r^2)](p) in n dims: the k-th s-derivative at s = 0 of the
    closed-form transform of r^(a+2s), with b = -a/2 - s,
    pi^(n/2) 2^(n-2b) Gamma(n/2-b)/Gamma(b) p^(2b-n)."""
    b0, half_n = mpmath.mpf(-a) / 2, mpmath.mpf(n) / 2

    def h(s):
        b = b0 - s
        return (mpmath.pi ** half_n * mpmath.power(2, n - 2 * b)
                * mpmath.gamma(half_n - b) / mpmath.gamma(b) * mpmath.power(p, 2 * b - n))

    return h(0) if k == 0 else mpmath.diff(h, 0, k)


def reference_value(n: int, L, seed: dict, p: float):
    """The transform of L g at p and M = 1, from mpmath's Gamma function
    and numerical s-derivatives: the symbol sum_k c_k (-p^2)^k of L times
    the closed-form transform of each seed term."""
    with mpmath.workdps(REF_DPS):
        P = mpmath.mpf(p)
        base = sum(_coeff_mp(c) * _power_transform(n, a, k, P)
                   for (a, k), c in seed.items())
        sym = sum(_coeff_mp(dict(c.terms)) * (-P * P) ** j for j, c in L)
        return +(sym * base)


def momentum_value(F, p: float):
    """F(p) at M = 1 from F's normal form, at the reference precision."""
    with mpmath.workdps(REF_DPS):
        P = mpmath.mpf(p)
        lg = 2 * mpmath.log(P)
        total = mpmath.mpf(0)
        for t in F.terms:
            ppow = mpmath.mpf(t.ppow.numerator) / t.ppow.denominator
            total += _coeff_mp(dict(t.coeff.terms)) * mpmath.power(P, ppow) * lg ** t.logpow
        for c, j in F.local_poly:
            total += _coeff_mp(dict(c.terms)) * (-P * P) ** j
        return +total


def rel_diff(value, ref) -> float:
    with mpmath.workdps(REF_DPS):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


def digits_of(rel_err: float) -> float:
    if rel_err <= 0:
        return MAX_DIGITS
    return max(0.0, min(MAX_DIGITS, -math.log10(rel_err)))


def _same(f, g) -> bool:
    return D.sub(f, g).is_zero()


def score_transform(value: float, err: float, exact: float) -> Outcome:
    """A numeric transform against the exact one: digits when within the
    CLI's check rule (relative error within TOL, or absolute error within
    TOL * 1e-3), a failure otherwise, and whether the returned error
    estimate understated the true error."""
    abs_err = abs(value - exact)
    rel = abs_err / max(abs(exact), 1e-300)
    under = abs_err > err
    if not (rel <= TOL or abs_err <= TOL * 1e-3):
        return Outcome(failure="value outside tolerance", digits=0.0, underestimate=under)
    return Outcome(digits=digits_of(rel), underestimate=under)


# -- exact --------------------------------------------------------------------


class Exact:
    """Exact layers only: representation search, formal transform, surface
    terms, mass-scale derivative and the inverse transform."""

    dims = (2, 3, 4, 5, 6)
    cycles = 3  # passes through the 135 structural combinations

    def __init__(self):
        self._refs = {}

    def generate(self, seed: int):
        rng = random.Random(f"exact:{seed}")
        combos = [(n, m, nt, lg) for n in self.dims for m in (1, 2, 3)
                  for nt in (1, 2, 3) for lg in (0, 1, 2)]
        n_rep = self.cycles * len(combos)
        plan = balanced(rng, combos, n_rep)
        ps = strata(rng, n_rep, 0.5, 2.0)
        mixed = balanced(rng, [(n, lg) for n in self.dims for lg in (0, 1, 2)],
                         n_rep // 7)
        ops = []
        for i, (combo, p) in enumerate(zip(plan, ps)):
            ops.append(self._representable(rng, *combo, p))
            if i % 7 == 6:
                ops.append(self._mixed(rng, *mixed[i // 7]))
        return ops

    def _representable(self, rng, n, m, nterms, maxlog, p):
        # seed exponents lie in the window and make every target term
        # genuinely divergent: -n < e <= min(-1, 2m - n)
        exps = range(-n + 1, min(-1, 2 * m - n) + 1)
        while True:
            pairs = [(e, k) for e in exps for k in range(maxlog + 1)]
            first = rng.choice([pk for pk in pairs if pk[1] == maxlog])
            rest = [pk for pk in pairs if pk != first]
            chosen = [first] + rng.sample(rest, min(nterms, len(pairs)) - 1)
            seed_terms = {pk: _rand_coeff(rng) for pk in chosen}
            target = seed_terms
            for _ in range(m):
                target = box_terms(n, target)
            if target:  # a seed may lie wholly in the kernel of box^m
                break
        text = terms_text(target)
        return Op("representable", f"{n}|{text}|{p!r}",
                  {"dim": n, "text": text, "expected": target, "p": p})

    def _mixed(self, rng, n, maxlog):
        """Two divergent terms with no common m <= 4 that brings both into
        the window: the search must exhaust every m and fail."""

        def ms(t):
            return {m for m in range(1, 5) if -n < t + 2 * m < 0}

        while True:
            t1 = rng.randint(-n - 2, -n)
            t2 = t1 - rng.randint(1, 8)
            if ms(t1) and ms(t2) and not ms(t1) & ms(t2):
                break
        logs = [maxlog, rng.randint(0, maxlog)]
        rng.shuffle(logs)
        target = {(t1, logs[0]): _rand_coeff(rng), (t2, logs[1]): _rand_coeff(rng)}
        text = terms_text(target)
        return Op("mixed", f"{n}|{text}|mixed",
                  {"dim": n, "text": text, "expected": target})

    def call(self, op):
        n, d = op.data["dim"], op.data
        out = {}
        out["target"] = target = D.parse_position(d["text"], n)
        out["reparsed"] = D.parse_position(D.format_position(target), n)
        try:
            out["rep"] = rep = D.find_representation(target)
        except NotRepresentableError as exc:
            out["not_representable"] = exc
            return out
        out["round_trip"] = D.apply_operator(rep.L, rep.g)
        out["F"] = F = D.fourier_formal(rep)
        out["F_reparsed"] = D.parse_momentum(D.format_momentum(F), n)
        out["surface"] = se = D.surface_expansion(rep.L, rep.g)
        out["lead"] = D.leading_divergence(se)
        out["cs"] = D.cs_derivative(F)
        out["inverse"] = D.inverse_fourier_base(D.fourier_base(rep.g))
        out["value"] = D.eval_momentum(F, d["p"], 1.0)
        return out

    def check(self, op, out, exc) -> Outcome:
        # representable ops have a value to score; a failed one scores 0
        zero = 0.0 if op.kind == "representable" else None
        if exc is not None:
            return Outcome(failure=f"exception {type(exc).__name__}", digits=zero)
        if op.kind == "representable" and "not_representable" in out:
            return Outcome(failure="NotRepresentableError on a representable target",
                           digits=zero)
        wrong = self._wrong(op, out)
        if wrong:
            return Outcome(failure=f"check {wrong}", wrong=wrong, digits=zero)
        if op.kind == "mixed":
            return Outcome()
        ref = self._reference(op, out["rep"])
        if ref == 0:
            return Outcome()
        if rel_diff(momentum_value(out["F"], op.data["p"]), ref) > 1e-25:
            return Outcome(failure="check transform value", wrong="transform value",
                           digits=zero)
        return Outcome(digits=digits_of(rel_diff(out["value"], ref)))

    def _reference(self, op, rep):
        """The closed-form value of the transform at the op's p, memoised
        on the op and the representation found, since passes repeat ops."""
        seed = radial_dict(rep.g)
        key = (op.key, repr(rep.L.coeffs), repr(sorted(seed.items())))
        if key not in self._refs:
            self._refs[key] = reference_value(op.data["dim"], rep.L.coeffs, seed,
                                              op.data["p"])
        return self._refs[key]

    def _wrong(self, op, out) -> Optional[str]:
        n = op.data["dim"]
        target = out["target"]
        if radial_dict(target) != op.data["expected"] or target.local:
            return "parse"
        if out["reparsed"] != target:
            return "position round trip"
        if op.kind == "mixed":
            return None if "not_representable" in out else "mixed target represented"
        rep = out["rep"]
        if out["round_trip"].radial != target.radial:
            return "apply_operator(L, g) != target"
        if operator_terms(n, rep.L.coeffs, radial_dict(rep.g)) != op.data["expected"]:
            return "L g != target by the closed-form Laplacian"
        if rep.g.local or any(not (-n < t.rpow < 0 and t.logpow <= 3)
                              for t in rep.g.radial):
            return "seed not Fourier-safe"
        F = out["F"]
        if not _same(out["F_reparsed"], F):
            return "momentum round trip"
        sym = D.operator_symbol(rep.L, n)
        dg = D.cs_derivative_position(rep.g)
        if not _same(out["cs"], operators.multiply_by_symbol(D.fourier_base(dg), sym)):
            return "cs_derivative"
        if not self._surface_ok(out["surface"], D.surface_expansion(rep.L, dg),
                                out["lead"], n):
            return "surface"
        inv = out["inverse"]
        if inv.radial != rep.g.radial or inv.local != rep.g.local:
            return "inverse transform"
        return None

    @staticmethod
    def _surface_ok(se, se_d, lead, n) -> bool:
        """The seed enters the boundary terms only through log(eps M), so
        the expansion of d g / d log M^2 must equal the log-derivative of the
        expansion of g: E'[m, j] = (j + 1) / 2 * E[m, j + 1]."""
        E, Ed = dict(se.entries), dict(se_d.entries)
        zero = D.MomentumFunction.build(n)
        keys = set(Ed) | {(m, k - 1) for (m, k) in E if k >= 1}
        for m, j in keys:
            want = D.scale(Fraction(j + 1, 2), E.get((m, j + 1), zero))
            if not _same(Ed.get((m, j), zero), want):
                return False
        logs = [k for (m, k) in E if m == 0 and k >= 1]
        if not logs:
            return lead is None
        return lead is not None and lead.log_pow == max(logs) and _same(
            lead.value, E[(0, max(logs))])


# -- oracle -------------------------------------------------------------------


class Oracle:
    """One numeric transform per op across the documented momentum range."""

    dims = (2, 3, 4, 6)
    size = 44

    def generate(self, seed: int):
        """A log-uniform grid over the documented p range, one op per
        stratum.  Each (dim, exponent) class in the window and each log
        power recurs across the range by fixed strides, and the seed moves p
        within the middle fifth of its stratum and picks the coefficient, so
        every seed sees the same mix of tail costs and failure regions.  The
        ops run in order of p, so that the memory high-water mark of the
        largest-p ops falls at the same point of every run."""
        rng = random.Random(f"oracle:{seed}")
        classes = [(n, a) for n in self.dims for a in range(-n + 1, 0)]
        lo, hi = math.log10(P_RANGE[0]), math.log10(P_RANGE[1])
        ops = []
        for i in range(self.size):
            n, a = classes[(i * 7) % len(classes)]
            k = i % 3
            p = 10 ** (lo + (hi - lo) * (i + 0.4 + 0.2 * rng.random()) / self.size)
            q = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))) * rng.choice((1, -1))
            f = D.position_term(n, q, Fraction(a), k)
            ops.append(Op("oracle", f"{n}|{q}|{a}|{k}|{p!r}",
                          {"dim": n, "p": p, "f": f}))
        return ops

    def call(self, op):
        d = op.data
        return D.hankel_numeric(d["f"], d["p"], d["dim"])

    def check(self, op, out, exc) -> Outcome:
        if isinstance(exc, ConvergenceError):
            reason = "damped tail failed to decay" if "decay" in str(exc) else \
                "error estimate over budget"
            return Outcome(failure=f"ConvergenceError: {reason}", digits=0.0)
        if exc is not None:
            return Outcome(failure=f"exception {type(exc).__name__}", digits=0.0)
        value, err = out
        d = op.data
        return score_transform(value, err, D.eval_momentum(D.fourier_base(d["f"]), d["p"], 1.0))


# -- tour ---------------------------------------------------------------------

SCHEMA_PATH = Path(D.__file__).resolve().parent / "schemas" / "report_schema.json"
TOUR_COMMANDS = ("apply", "regulate", "transform", "surface", "verify", "cs",
                 "audit", "oracle")
MALFORMED = ("parse", "dim0", "max_box0", "eps_grid")
EPS_GRID = (0.2, 0.1, 0.05, 0.02)
# README-like representable targets (dim, rpow, logpow), odd parity included
TOUR_TARGETS = ((3, -3, 0), (3, -4, 0), (3, -5, 1), (4, -4, 0), (4, -5, 0),
                (4, -6, 1))
# Fourier-safe functions (dim, rpow, logpow)
TOUR_SAFE = ((3, -1, 0), (3, -2, 1), (4, -1, 1), (4, -2, 0), (4, -3, 0),
             (3, -2, 0))


def _fn_text(rng, a, k):
    """(text, coefficient) of a seeded multiple of r^a log^k(r^2 M^2)."""
    q = rng.choice((Fraction(1), Fraction(1), Fraction(3, 2), Fraction(1, 2),
                    Fraction(-2), Fraction(5, 3)))
    text = f"r^{a}" + ("*log(r^2*M^2)" if k else "")
    return (text if q == 1 else f"{q}*{text}"), q


class Tour:
    """The README command-line tour, one JSON envelope per op."""

    blocks = 3  # each block: 72 valid ops (9 per subcommand) + 8 malformed

    def __init__(self):
        import jsonschema

        schema = json.loads(SCHEMA_PATH.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def generate(self, seed: int):
        """Each subcommand's j-th op takes the j-th of its p strata over
        [0.5, 2] in ascending order, and fixed strides through the targets,
        functions, transform forms, verify grid sizes and surface eps
        values.  The seed moves p within its stratum and draws coefficients
        and the rest, so the costliest ops, which set op_ms_tail, have the
        same structure at every seed."""
        rng = random.Random(f"tour:{seed}")
        per_cmd = 9 * self.blocks
        plans = {c: [{"p": p, "target": TOUR_TARGETS[j % 6], "safe": TOUR_SAFE[j // 2 % 6],
                      "fn_form": j % 2 == 0, "grid_size": 2 + j % 3,
                      "eps": EPS_GRID[j % 4]}
                     for j, p in enumerate(sorted(strata(rng, per_cmd, 0.5, 2.0)))]
                 for c in TOUR_COMMANDS}
        bad = balanced(rng, MALFORMED * 2, 8 * self.blocks)
        ops, valid = [], 0
        for i in range(80 * self.blocks):
            if i % 10 == 9:
                ops.append(self._malformed(rng, bad[i // 10]))
                continue
            cmd = TOUR_COMMANDS[valid % len(TOUR_COMMANDS)]
            j = valid // len(TOUR_COMMANDS)
            valid += 1
            ops.append(self._valid(rng, cmd, plans[cmd][j]))
        return ops

    def _valid(self, rng, cmd, plan):
        n, a, k = plan["target"]
        target, _ = _fn_text(rng, a, k)
        sn, sa, sk = plan["safe"]
        safe, q = _fn_text(rng, sa, sk)
        p = f"{plan['p']:.4g}"
        # expressions go as --opt=value: a leading minus would read as a flag
        data = {"dim": n, "target": target}
        if cmd == "apply":
            m = rng.randint(1, 2)
            terms = {(sa, sk): {(0, 0, 0, 0): q}}
            for _ in range(m):
                terms = box_terms(sn, terms)
            data = {"dim": sn, "expected": terms}
            argv = ["apply", f"--op=box^{m}", f"--fn={safe}", "--dim", str(sn)]
        elif cmd == "regulate":
            argv = ["regulate", f"--target={target}", "--dim", str(n)]
        elif cmd == "transform":
            if plan["fn_form"]:
                argv = ["transform", f"--fn={safe}", "--at", p, "--dim", str(sn)]
                data = {"dim": sn, "fn": safe, "p": float(p)}
            else:
                argv = ["transform", f"--rep-target={target}", "--at", p, "--dim", str(n)]
        elif cmd == "surface":
            argv = ["surface", f"--target={target}", "--eps", str(plan["eps"]), "--p", p,
                    "--dim", str(n)]
        elif cmd == "verify":
            grid = sorted(rng.sample(EPS_GRID, plan["grid_size"]), reverse=True)
            argv = ["verify", f"--target={target}", "--p", p, "--eps-grid",
                    ",".join(map(str, grid)), "--dim", str(n)]
        elif cmd == "cs":
            argv = ["cs", f"--target={target}", "--p", p, "--dim", str(n)]
        elif cmd == "audit":
            other, _ = _fn_text(rng, *rng.choice([t[1:] for t in TOUR_SAFE if t[0] == sn]))
            argv = ["audit", f"--a={other}", f"--b={safe}", "--p0", p, "--dim", str(sn)]
        else:
            argv = ["oracle", f"--fn={safe}", "--p", p, "--dim", str(sn)]
            data = {"dim": sn, "fn": safe, "p": float(p)}
        data["expect_code"] = 0
        return Op(cmd, " ".join(argv), dict(data, argv=argv))

    def _malformed(self, rng, kind):
        n, a, k = rng.choice(TOUR_TARGETS)
        target, _ = _fn_text(rng, a, k)
        if kind == "parse":
            broken = rng.choice((target + " +", target.replace("^", "^^", 1),
                                 "(" + target, target + "*)"))
            argv = ["regulate", f"--target={broken}", "--dim", str(n)]
        elif kind == "dim0":
            cmd = rng.choice(("regulate", "cs"))
            argv = [cmd, f"--target={target}", "--dim", "0"]
            if cmd == "cs":
                argv += ["--p", "1"]
        elif kind == "max_box0":
            argv = ["regulate", f"--target={target}", "--max-box", "0", "--dim", str(n)]
        else:
            good = rng.choice(EPS_GRID)
            argv = ["verify", f"--target={target}", "--p", "1", "--eps-grid",
                    f"{good},{rng.choice(('abc', 'x', '0.1e'))}", "--dim", str(n)]
        return Op(f"malformed:{kind}", " ".join(argv),
                  {"dim": n, "argv": argv, "expect_code": 2})

    def call(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.data["argv"] + ["--json"])
        return code, buf.getvalue()

    def check(self, op, out, exc) -> Outcome:
        # ops whose envelope carries a numeric transform to score
        numeric = op.kind == "oracle" or (op.kind == "transform" and "fn" in op.data)
        zero = 0.0 if numeric else None
        if exc is not None:
            return Outcome(failure=f"traceback {type(exc).__name__}", digits=zero)
        code, text = out
        try:
            env = json.loads(text)
        except ValueError:
            return Outcome(failure="no JSON envelope", digits=zero)
        if not self.validator.is_valid(env):
            return Outcome(failure="schema", wrong="schema", digits=zero)
        if code != op.data["expect_code"]:
            return Outcome(failure=f"exit {code}", digits=zero)
        if code == 2:
            if env["status"] != "error" or env.get("error", {}).get("code") not in (
                    "parse", "domain"):
                return Outcome(failure="error envelope", wrong="error envelope")
            return Outcome()
        if env["status"] != "ok" or env["command"] != op.data["argv"][0]:
            return Outcome(failure="status", wrong="status", digits=zero)
        wrong = self._content(op, env)
        if wrong:
            return Outcome(failure=f"check {wrong}", wrong=wrong, digits=zero)
        if op.kind == "oracle":
            return self._oracle_value(op, env)
        if numeric:
            (chk,) = env["numeric_checks"]
            return Outcome(digits=digits_of(float(chk["rel_err"])))
        return Outcome()

    def _content(self, op, env) -> Optional[str]:
        n = op.data["dim"]
        sym = env["symbolic"]
        if op.kind == "apply":
            if radial_dict(D.parse_position(sym["text"], n)) != op.data["expected"]:
                return "apply result"
        elif op.kind == "regulate":
            terms = sym["terms"]
            L = D.parse_operator(terms["operator"], n)
            g = D.parse_position(terms["seed"], n)
            target = D.parse_position(op.data["target"], n)
            if D.apply_operator(L, g).radial != target.radial:
                return "representation"
        elif op.kind == "transform":
            if "fn" in op.data:
                F = D.fourier_base(D.parse_position(op.data["fn"], n))
            else:
                target = D.parse_position(op.data["target"], n)
                F = D.fourier_formal(D.find_representation(target))
            if not _same(D.parse_momentum(sym["text"], n), F):
                return "transform"
        return None

    def _oracle_value(self, op, env) -> Outcome:
        d = op.data
        terms = env["symbolic"]["terms"]
        value, err = float(terms["value"]), float(terms["err_estimate"])
        f = D.parse_position(d["fn"], d["dim"])
        return score_transform(value, err, D.eval_momentum(D.fourier_base(f), d["p"], 1.0))


WORKLOADS = {"exact": Exact, "oracle": Oracle, "tour": Tour}
