"""Command-line interface: every subcommand emits one report envelope,
as JSON (--json) or a readable text rendering (--text, default).

Exit codes: 0 ok, 1 numeric check failure, 2 usage or parse error,
3 internal numeric failure.
"""

from __future__ import annotations

import math
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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


def _fmt(x: float | None) -> str | None:
    if x is None:
        return None
    return format(x, ".17g")


class _NonFinite(str):
    """A float option given as nan or inf, kept as its text so that the
    envelope's inputs stay strict JSON; main() rejects it as a domain
    error."""


def _finite_float(text: str):
    """The type of every float option."""
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
        self.checks: list[dict] = []
        self.flags: list[str] = []
        self.error: dict | None = None

    def set_symbolic(self, text: str, terms=None):
        self.symbolic = {"text": text, "terms": terms or []}

    def _add_check(self, name: str, expected, actual, abs_err, rel_err, ok) -> None:
        """The one builder of a numeric check; each caller keeps its pass rule."""
        self.checks.append({"name": name, "expected": _fmt(expected), "actual": _fmt(actual),
                            "abs_err": _fmt(abs_err), "rel_err": _fmt(rel_err),
                            "pass": bool(ok)})

    def check(self, name: str, expected: float | None, actual: float | None,
              tol: float) -> None:
        abs_err = rel_err = None
        ok = True
        if expected is not None and actual is not None:
            abs_err = abs(actual - expected)
            rel_err = abs_err / max(abs(expected), 1e-300)
            ok = rel_err <= tol or abs_err <= tol * 1e-3
        self._add_check(name, expected, actual, abs_err, rel_err, ok)

    def defect_check(self, name: str, model: float, trunc: float, tol_defect: float,
                     prev: float | None = None) -> float:
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
    operator, seed = format_operator(rep.L), format_position(rep.g)
    report.set_symbolic(
        f"operator: {operator}; seed: {seed}",
        {
            "operator": operator,
            "seed": seed,
            "seed_terms": _position_terms(rep.g),
            "note": rep.note,
        },
    )
    round_trip = apply_operator(rep.L, rep.g)
    exact = round_trip.radial == target.radial
    report.check("round_trip_exact", 1.0, 1.0 if exact else 0.0, 0.0)


def _cmd_transform(args, report):
    if args.rep_target is not None:
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
    """The surface identity over a grid of eps: the truncated transforms of
    --target at --p come first, so that the oracle refuses before any exact
    work; then set the symbolic part to symbolic(se, formal) and check the
    defect at each eps of the grid, against the previous one."""
    target = parse_position(args.target, args.dim)
    eps_grid = [_check_finite("--eps-grid entry", _finite_float(s)) for s in eps_grid]
    truncs = [truncated_ft_numeric(target, args.p, args.dim, args.mass, eps)[0]
              for eps in eps_grid]
    rep = find_representation(target, args.max_box)
    se = surface_expansion(rep.L, rep.g)
    formal = eval_momentum(fourier_formal(rep), args.p, args.mass)
    report.set_symbolic(*symbolic(se, formal))
    prev = None
    for eps, trunc in zip(eps_grid, truncs):
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
            "err_estimate": _fmt(rep.err_estimate),
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


# -- the option table -----------------------------------------------------

_REQUIRED = object()

# subcommand -> (handler, help, {option: (type, default)}).  An option's
# dest is its name without the leading "--", each "-" read as "_"; a
# default of _REQUIRED makes the option required, and an option whose
# default is None stays out of the inputs when it is not given.  Every
# subcommand also takes one of the flags --json and --text, and transform
# takes exactly one of its _ONE_OF pair.
_DIM = {"--dim": (int, 4)}
_TABLE = {
    "apply": (_cmd_apply, "apply an operator to a function",
              {"--op": (str, _REQUIRED), "--fn": (str, _REQUIRED), **_DIM}),
    "regulate": (_cmd_regulate, "find a representation (L, g)",
                 {"--target": (str, _REQUIRED), "--max-box": (int, 4), **_DIM}),
    "transform": (_cmd_transform, "exact Fourier transform",
                  {"--fn": (str, None), "--rep-target": (str, None),
                   "--at": (_finite_float, None), "--max-box": (int, 4),
                   "--mass": (_finite_float, 1.0), "--tol": (_finite_float, 1e-5), **_DIM}),
    "surface": (_cmd_surface, "epsilon-ball surface expansion",
                {"--target": (str, _REQUIRED), "--eps": (_finite_float, _REQUIRED),
                 "--p": (_finite_float, 1.0), "--max-box": (int, 4),
                 "--tol-defect": (_finite_float, 1e-3), "--mass": (_finite_float, 1.0), **_DIM}),
    "verify": (_cmd_verify, "defect-identity table over an eps grid",
               {"--target": (str, _REQUIRED), "--p": (_finite_float, _REQUIRED),
                "--eps-grid": (str, _REQUIRED), "--max-box": (int, 4),
                "--tol-defect": (_finite_float, 1e-3), "--mass": (_finite_float, 1.0), **_DIM}),
    "cs": (_cmd_cs, "mass-scale derivative M dF/dM",
           {"--target": (str, _REQUIRED), "--p": (_finite_float, _REQUIRED),
            "--max-box": (int, 4), "--mass": (_finite_float, 1.0),
            "--tol": (_finite_float, 1e-5), **_DIM}),
    "audit": (_cmd_audit, "commuting-diagram residual report",
              {"--a": (str, _REQUIRED), "--b": (str, _REQUIRED),
               "--p0": (_finite_float, _REQUIRED), "--mass": (_finite_float, 1.0), **_DIM}),
    "oracle": (_cmd_oracle, "numeric transform only",
               {"--fn": (str, _REQUIRED), "--p": (_finite_float, _REQUIRED),
                "--eps": (_finite_float, None), "--mass": (_finite_float, 1.0), **_DIM}),
}
_ONE_OF = {"transform": ("--fn", "--rep-target")}
_EXCLUDES = {"--json": "--text", "--text": "--json", "--fn": "--rep-target", "--rep-target": "--fn"}
_KINDS = {int: "integer", _finite_float: "number"}


class _UsageError(Exception):
    """A command line that the option table does not read (exit 2)."""


def _read_args(command: str, argv: list[str]) -> dict:
    """The dest -> value map of one command line, read against the option
    table: "command", then every option of the subcommand, given or at its
    default.  An option takes its value as `--opt value` or `--opt=value`,
    and the last repeat wins; a separate value may not begin with "--".
    An abbreviated option is unrecognized."""
    if not command:
        named = argv and not argv[0].startswith("-")
        raise _UsageError((f"invalid subcommand {argv[0]!r}" if named else "no subcommand")
                          + f" (choose from {', '.join(_TABLE)})")
    options = _TABLE[command][2]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        if _EXCLUDES.get(name) in given:
            raise _UsageError(f"argument {name}: not allowed with argument {_EXCLUDES[name]}")
        if name in ("--json", "--text"):
            if eq:
                raise _UsageError(f"argument {name}: ignored explicit argument {text!r}")
            given[name] = True
            continue
        spec = options.get(name)
        if spec is None:
            raise _UsageError(f"unrecognized arguments: {token}")
        if not eq:
            text = next(tokens, "--")
            if text.startswith("--"):
                raise _UsageError(f"argument {name}: expected one argument")
        try:
            given[name] = spec[0](text)
        except ValueError:
            raise _UsageError(f"{name}: invalid {_KINDS[spec[0]]} {text!r}") from None
    if command in _ONE_OF and not any(name in given for name in _ONE_OF[command]):
        raise _UsageError(f"one of the arguments {' '.join(_ONE_OF[command])} is required")
    missing = [name for name, (_, default) in options.items()
               if default is _REQUIRED and name not in given]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    values = {"command": command}
    for name, (_, default) in options.items():
        values[name[2:].replace("-", "_")] = given.get(name, default)
    return values


def _usage(command: str) -> str:
    """The usage line of a subcommand, or of diffreg when command is empty."""
    if not command:
        return f"usage: diffreg {{{','.join(_TABLE)}}} [options]"
    words = ["usage: diffreg", command]
    for name, (_, default) in _TABLE[command][2].items():
        word = f"{name} {name[2:].upper().replace('-', '_')}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join([*words, "[--json | --text]"])


def _help(command: str) -> str:
    """The --help text of a subcommand, or of diffreg when command is empty."""
    if not command:
        rows = [f"  {name:<10} {text}" for name, (_, text, _) in _TABLE.items()]
        return "\n".join([_usage(""), "", __doc__.strip(), "", "subcommands:", *rows, "",
                          "diffreg <subcommand> --help lists the options of one."])
    _, text, options = _TABLE[command]
    rows = []
    for name, (_, default) in options.items():
        note = ("required" if default is _REQUIRED else "" if default is None
                else f"default {default:g}")
        rows.append(f"  {name:<16} {note}".rstrip())
    if command in _ONE_OF:
        rows.append(f"  (exactly one of {' and '.join(_ONE_OF[command])})")
    rows += ["  --json | --text  the envelope as JSON, or as text (the default)",
             "  -h, --help       print this help"]
    return "\n".join([_usage(command), "", text, "", "options:", *rows])


# -- the envelope writer ---------------------------------------------------


def _json(o, indent: str = "\n") -> str:
    """json.dumps(o, indent=2, sort_keys=True), byte for byte, for the
    values an envelope holds: str keys, and str, int, finite float, bool,
    None, list and dict values.  json.dumps runs its pure-Python encoder
    whenever indent is set; here only the strings go through the C
    encoder."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        return "{" + ",".join([f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
                               for k, v in sorted(o.items())]) + indent + "}"
    if isinstance(o, list):
        if not o:
            return "[]"
        inner = indent + "  "
        return "[" + ",".join([inner + _json(v, inner) for v in o]) + indent + "]"
    if o is None:
        return "null"
    if o is True or o is False:
        return "true" if o else "false"
    return int.__repr__(o) if isinstance(o, int) else float.__repr__(o)


def _emit(text: str, code: int) -> int:
    """Write text and a newline to sys.stdout, looked up at each call, and
    return code.  A reader that closed the pipe early gets no traceback:
    the rest of the output goes to the null device, and the exit code
    stays the command's."""
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _TABLE else ""
    as_json = "--json" in argv
    if "-h" in argv or "--help" in argv:
        return _emit(_help(command), 0)
    try:
        values = _read_args(command, argv)
    except _UsageError as exc:
        if not as_json:
            prog = f"diffreg {command}" if command else "diffreg"
            sys.stderr.write(f"{_usage(command)}\n{prog}: error: {exc}\n")
            return 2
        report = _Report(command, {})
        report.error = {"code": "usage", "message": str(exc)}
        return _emit(_json(report.as_dict()), 2)
    args = SimpleNamespace(**values)
    inputs = {k: v for k, v in sorted(values.items()) if v is not None}
    report = _Report(command, inputs)
    code = 0
    try:
        for key, value in inputs.items():
            name = "--" + key.replace("_", "-")
            _check_finite(name, value)
            if key in ("tol", "tol_defect") and value < 0:
                raise ValueError(f"{name} must not be negative, got {value!r}")
        _TABLE[command][0](args, report)
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
    return _emit(_json(report.as_dict()) if as_json else report.render_text(), code)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
