"""Command-line interface: every subcommand emits one report envelope,
as JSON (--json) or a readable text rendering (--text, default).

Exit codes: 0 ok, 1 numeric check failure, 2 usage or parse error,
3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Optional

from . import __version__
from .algebra import eval_momentum, scale
from .errors import ConvergenceError, DiffRegError, ParseError
from .fourier import cs_derivative, fourier_base, fourier_formal
from .numeric import finite_diff_lnM, hankel_numeric, truncated_ft_numeric
from .operators import apply_operator
from .parser import parse_operator, parse_position
from .printer import format_momentum, format_operator, format_position
from .quotient import Character, IdealElement, diagram_audit
from .regulate import find_representation
from .surface import leading_divergence, surface_expansion


def _fmt(x: Optional[float]) -> Optional[str]:
    if x is None:
        return None
    return format(x, ".17g")


class _NonFinite(str):
    """A float option given as nan or inf, kept as its text so that the
    envelope's inputs stay strict JSON; main() rejects it as a domain
    error."""


def _finite_float(text: str):
    """argparse type of every float option."""
    value = float(text)
    return value if math.isfinite(value) else _NonFinite(text)


def _check_finite(name: str, value):
    if isinstance(value, _NonFinite):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


class _Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.symbolic = {"text": "", "terms": []}
        self.checks: List[dict] = []
        self.flags: List[str] = []
        self.error: Optional[dict] = None

    def set_symbolic(self, text: str, terms=None):
        self.symbolic = {"text": text, "terms": terms or []}

    def _add_check(self, name: str, expected, actual, abs_err, rel_err, ok) -> None:
        """The one builder of a numeric check; each caller keeps its pass rule."""
        self.checks.append({"name": name, "expected": _fmt(expected), "actual": _fmt(actual),
                            "abs_err": _fmt(abs_err), "rel_err": _fmt(rel_err),
                            "pass": bool(ok)})

    def check(self, name: str, expected: Optional[float], actual: Optional[float],
              tol: float) -> None:
        abs_err = rel_err = None
        ok = True
        if expected is not None and actual is not None:
            abs_err = abs(actual - expected)
            rel_err = abs_err / max(abs(expected), 1e-300)
            ok = rel_err <= tol or abs_err <= tol * 1e-3
        self._add_check(name, expected, actual, abs_err, rel_err, ok)

    def defect_check(self, name: str, model: float, trunc: float, tol_defect: float,
                     prev: Optional[float] = None) -> float:
        """Record the defect |trunc - model| of the surface identity.  It
        passes within max(tol_defect, 5% of |trunc|) and, when the defect
        at the previous eps of a grid is given, no more than 20% above it.
        Returns the defect."""
        defect = abs(trunc - model)
        bound = max(tol_defect, abs(trunc) * 0.05)
        shrinking = prev is None or defect <= prev * 1.2
        self._add_check(name, model, trunc, defect, defect / max(abs(trunc), 1e-300),
                        defect <= bound and shrinking)
        return defect

    def as_dict(self) -> dict:
        ok = all(c["pass"] for c in self.checks) and self.error is None
        out = {
            "command": self.command,
            "version": __version__,
            "inputs": self.inputs,
            "symbolic": self.symbolic,
            "numeric_checks": self.checks,
            "flags": self.flags,
            "status": "ok" if ok else "error",
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def render_text(self) -> str:
        lines = [f"[{self.command}] {self.symbolic['text']}"]
        for c in self.checks:
            mark = "ok " if c["pass"] else "FAIL"
            lines.append(
                f"  {mark} {c['name']}: expected={c['expected']} "
                f"actual={c['actual']} rel_err={c['rel_err']}"
            )
        for fl in self.flags:
            lines.append(f"  flag: {fl}")
        if self.error is not None:
            lines.append(f"  error[{self.error['code']}]: {self.error['message']}")
            if self.error.get("partial") is not None:
                lines.append(f"  partial={self.error['partial']} "
                             f"err_estimate={self.error['err_estimate']}")
        return "\n".join(lines)


def _momentum_terms(F) -> list:
    out = []
    for t in F.terms:
        out.append(
            {"kind": "power", "coeff": str(t.coeff), "ppow": str(t.ppow), "logpow": t.logpow}
        )
    for c, j in F.local_poly:
        out.append({"kind": "poly", "coeff": str(c), "box_order": j})
    return out


def _position_terms(f) -> list:
    out = []
    for t in f.radial:
        out.append(
            {"kind": "radial", "coeff": str(t.coeff), "rpow": str(t.rpow), "logpow": t.logpow}
        )
    for t in f.local:
        out.append({"kind": "local", "coeff": str(t.coeff), "boxpow": t.boxpow})
    return out


# -- subcommand handlers -----------------------------------------------


def _cmd_apply(args, report):
    op = parse_operator(args.op, args.dim)
    fn = parse_position(args.fn, args.dim)
    result = apply_operator(op, fn)
    report.set_symbolic(format_position(result), _position_terms(result))
    report.flags.extend(result.flags)


def _cmd_regulate(args, report):
    target = parse_position(args.target, args.dim)
    rep = find_representation(target, args.max_box)
    report.set_symbolic(
        f"operator: {format_operator(rep.L)}; seed: {format_position(rep.g)}",
        {
            "operator": format_operator(rep.L),
            "seed": format_position(rep.g),
            "seed_terms": _position_terms(rep.g),
            "note": rep.note,
        },
    )
    round_trip = apply_operator(rep.L, rep.g)
    exact = round_trip.radial == target.radial
    report.check("round_trip_exact", 1.0, 1.0 if exact else 0.0, 0.0)


def _cmd_transform(args, report):
    if args.rep_target:
        target = parse_position(args.rep_target, args.dim)
        F = fourier_formal(find_representation(target, args.max_box))
        fn = None  # divergent target: no direct numeric oracle
    else:
        fn = parse_position(args.fn, args.dim)
        F = fourier_base(fn)
    report.set_symbolic(format_momentum(F), _momentum_terms(F))
    report.flags.extend(F.flags)
    if args.at is not None:
        sym_val = eval_momentum(F, args.at, args.mass)
        if fn is not None and not fn.local:
            num_val, _ = hankel_numeric(fn, args.at, args.dim, args.mass)
            report.check(f"oracle_at_p={args.at}", num_val, sym_val, args.tol)
        else:
            report.check(f"value_at_p={args.at}", None, sym_val, args.tol)


def _defect_table(args, report, name, eps_grid, symbolic):
    """The surface identity over a grid of eps: find the representation and
    surface expansion of --target, take its formal transform at --p, set the
    symbolic part to symbolic(se, formal), then check the defect of the
    truncated transform at each eps of the grid, against the previous one."""
    target = parse_position(args.target, args.dim)
    rep = find_representation(target, args.max_box)
    se = surface_expansion(rep.L, rep.g, order=args.order)
    formal = eval_momentum(fourier_formal(rep), args.p, args.mass)
    eps_grid = [_check_finite("--eps-grid entry", _finite_float(s)) for s in eps_grid]
    report.set_symbolic(*symbolic(se, formal))
    prev = None
    for eps in eps_grid:
        trunc, _ = truncated_ft_numeric(target, args.p, args.dim, args.mass, eps)
        model = formal + se.eval_at(eps, args.p, args.mass)
        prev = report.defect_check(f"{name}={eps}", model, trunc, args.tol_defect, prev)


def _cmd_surface(args, report):
    def symbolic(se, formal):
        entries = [{"eps_pow": str(m), "log_pow": k, "value": format_momentum(v)}
                   for (m, k), v in se.entries]
        lead = leading_divergence(se)
        lead_txt = (
            f"log^{lead.log_pow}(eps*M) x {format_momentum(lead.value)}" if lead else "finite"
        )
        return f"leading divergence: {lead_txt}", {"entries": entries, "leading": lead_txt}

    _defect_table(args, report, "defect_at_eps", [args.eps], symbolic)


def _cmd_verify(args, report):
    def symbolic(se, formal):
        return f"formal transform at p={args.p}: {formal!r}", {"formal": _fmt(formal)}

    _defect_table(args, report, "defect_eps", args.eps_grid.split(","), symbolic)


def _cmd_cs(args, report):
    target = parse_position(args.target, args.dim)
    rep = find_representation(target, args.max_box)
    F = fourier_formal(rep)
    mdm = scale(2, cs_derivative(F))
    report.set_symbolic(format_momentum(mdm), _momentum_terms(mdm))
    sym_val = eval_momentum(mdm, args.p, args.mass) if not mdm.is_zero() else 0.0
    num_val = finite_diff_lnM(
        lambda p, M: eval_momentum(F, p, M), args.p, args.mass, 1e-4
    )
    report.check("finite_difference", sym_val, num_val, args.tol)


def _cmd_audit(args, report):
    a = parse_position(args.a, args.dim)
    b = parse_position(args.b, args.dim)
    ch = Character(args.p0, args.dim, args.mass)
    rep = diagram_audit(IdealElement(a, b), ch)
    report.set_symbolic(
        f"residual |F[a*b](p0) - eps(b)*F[a](p0)| = {rep.residual!r} "
        f"(route: {rep.route_ab})",
        {
            "residual": _fmt(rep.residual),
            "value_ab": _fmt(rep.value_ab),
            "value_a": _fmt(rep.value_a),
            "character_value": _fmt(rep.character_value),
            "route": rep.route_ab,
        },
    )
    report.flags.append("kernel-claim residual reported, not asserted")


def _cmd_oracle(args, report):
    fn = parse_position(args.fn, args.dim)
    if args.eps is not None:
        val, err = truncated_ft_numeric(fn, args.p, args.dim, args.mass, args.eps)
    else:
        val, err = hankel_numeric(fn, args.p, args.dim, args.mass)
    report.set_symbolic(
        f"numeric transform at p={args.p}: {val!r}",
        {"value": _fmt(val), "err_estimate": _fmt(err)},
    )


# -- argument plumbing -------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: no action appends and no default is
    mutable, so parses leave no state behind."""
    ap = argparse.ArgumentParser(prog="diffreg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--dim", type=int, default=4)
        sp.add_argument("--mass", type=_finite_float, default=1.0)
        sp.add_argument("--tol", type=_finite_float, default=1e-5)
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true")
        fmt.add_argument("--text", action="store_true")

    sp = sub.add_parser("apply", help="apply an operator to a function")
    sp.add_argument("--op", required=True)
    sp.add_argument("--fn", required=True)
    common(sp)

    sp = sub.add_parser("regulate", help="find a representation (L, g)")
    sp.add_argument("--target", required=True)
    sp.add_argument("--max-box", type=int, default=4, dest="max_box")
    common(sp)

    sp = sub.add_parser("transform", help="exact Fourier transform")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rep-target", dest="rep_target")
    grp.add_argument("--fn")
    sp.add_argument("--at", type=_finite_float, default=None)
    sp.add_argument("--max-box", type=int, default=4, dest="max_box")
    common(sp)

    sp = sub.add_parser("surface", help="epsilon-ball surface expansion")
    sp.add_argument("--target", required=True)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--p", type=_finite_float, default=1.0)
    sp.add_argument("--max-box", type=int, default=4, dest="max_box")
    sp.add_argument("--tol-defect", type=_finite_float, default=1e-3, dest="tol_defect")
    common(sp)

    sp = sub.add_parser("verify", help="defect-identity table over an eps grid")
    sp.add_argument("--target", required=True)
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--eps-grid", required=True, dest="eps_grid")
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--max-box", type=int, default=4, dest="max_box")
    sp.add_argument("--tol-defect", type=_finite_float, default=1e-3, dest="tol_defect")
    common(sp)

    sp = sub.add_parser("cs", help="mass-scale derivative M dF/dM")
    sp.add_argument("--target", required=True)
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--max-box", type=int, default=4, dest="max_box")
    common(sp)

    sp = sub.add_parser("audit", help="commuting-diagram residual report")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p0", type=_finite_float, required=True)
    common(sp)

    sp = sub.add_parser("oracle", help="numeric transform only")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--eps", type=_finite_float, default=None)
    common(sp)

    return ap


_HANDLERS = {
    "apply": _cmd_apply,
    "regulate": _cmd_regulate,
    "transform": _cmd_transform,
    "surface": _cmd_surface,
    "verify": _cmd_verify,
    "cs": _cmd_cs,
    "audit": _cmd_audit,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("json", "text") and v is not None
    }
    report = _Report(args.command, inputs)
    code = 0
    try:
        for key, value in inputs.items():
            name = "--" + key.replace("_", "-")
            _check_finite(name, value)
            if key in ("tol", "tol_defect") and value < 0:
                raise ValueError(f"{name} must not be negative, got {value!r}")
        _HANDLERS[args.command](args, report)
        if not all(c["pass"] for c in report.checks):
            code = 1
    except ParseError as exc:
        report.error = {"code": "parse", "message": str(exc)}
        code = 2
    except ConvergenceError as exc:
        report.error = {
            "code": "numeric",
            "message": str(exc),
            "partial": _fmt(exc.partial),
            "err_estimate": _fmt(exc.err_estimate),
        }
        code = 3
    except (DiffRegError, ValueError) as exc:
        # ValueError comes from argument checks on out-of-range input
        report.error = {"code": "domain", "message": str(exc)}
        code = 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
