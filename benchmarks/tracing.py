"""Per-layer tracing for the diffreg benchmark, applied from outside the
package by wrapping module attributes.

A *layer span* wraps a public entry point of one diffreg module.  Spans
nest on a stack; when one closes, its duration minus the time of the spans
(and coefficient operations) it encloses is added to its layer's self time.
Coefficient arithmetic is counted and timed as the ``coeffs`` layer without
creating span objects, because it runs thousands of times per operation.
*Probes* time or count a private numeric helper without taking part in the
self-time tree, so ``numeric.self_ms`` still covers the main panels and the
tail.

diffreg modules import names with ``from .x import y``, so a function is
bound in several module namespaces; every binding of the original object is
replaced, and restored by :meth:`Tracer.uninstall`.  A helper that no longer
exists is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "diffreg"

# layer -> public entry points that get a span
LAYER_SPANS = {
    "parser": ("parse_position", "parse_momentum", "parse_operator"),
    "printer": ("format_position", "format_momentum", "format_operator",
                "format_coefficient"),
    "operators": ("apply_operator", "apply_laplacian", "laplacian_radial",
                  "operator_symbol", "multiply_by_symbol"),
    "regulate": ("find_representation", "mass_shift"),
    "fourier": ("fourier_base", "fourier_formal", "inverse_fourier_base",
                "cs_derivative", "cs_derivative_position"),
    "surface": ("surface_expansion", "leading_divergence"),
    "numeric": ("hankel_numeric", "truncated_ft_numeric", "finite_diff_lnM",
                "gauss_flux_numeric"),
    "quotient": ("diagram_audit", "character_eval", "reduce_mod_ideal",
                 "transform_value"),
    "cli": ("main",),
}

# Coefficient methods counted as ring arithmetic
COEFF_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "__pow__", "inverse", "divide")

# exception class name raised out of a span -> counter it increments
ERROR_COUNTERS = {
    ("numeric", "hankel_numeric", "ConvergenceError"): "numeric.fail",
    ("numeric", "truncated_ft_numeric", "ConvergenceError"): "numeric.fail",
    ("regulate", "find_representation", "NotRepresentableError"):
        "regulate.not_representable",
}

# span whose normal return increments a counter
RETURN_COUNTERS = {("cli", "main"): "cli.envelopes"}

# private numeric helper -> metrics that depend on it
PROBE_METRICS = {
    "_quad_panels": ("numeric.main.ms",),
    "_panel_points": ("numeric.main.panels",),
    "angular_kernel": ("numeric.main.evals",),
    "_tail": ("numeric.tail.ms",),
    "_vector_integrand": ("numeric.tail.evals",),
}


class Tracer:
    """Installs wrappers into the imported diffreg modules and aggregates
    what they record while :attr:`enabled` is true."""

    def __init__(self):
        self.enabled = False
        self.stack = []  # open layer spans: [start, enclosed child time]
        self.self_s = defaultdict(float)
        self.calls = Counter()  # "layer.function" -> calls
        self.counts = Counter()  # named counters
        self.timers = defaultdict(float)  # probe name -> seconds
        self.missing = []  # names that could not be wrapped
        self.absent = set()  # metrics whose helper no longer exists
        self._undo = []

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, replacement) -> None:
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for layer, names in LAYER_SPANS.items():
            mod = mods.get(layer)
            for name in names:
                fn = getattr(mod, name, None) if mod else None
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                self._rebind(fn, self._span(layer, name, fn))
        coeffs = mods.get("coeffs")
        cls = getattr(coeffs, "Coefficient", None)
        if cls is None:
            self.missing.append("coeffs.Coefficient")
            self.absent.update(("coeffs.ops", "coeffs.ms"))
        else:
            depth = [0]
            for meth in COEFF_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    self.missing.append(f"coeffs.Coefficient.{meth}")
                    continue
                setattr(cls, meth, self._coeff_op(fn, depth))
                self._undo.append((cls, meth, fn))
        numeric = mods.get("numeric")
        probes = {
            "_quad_panels": lambda fn: self._timer("numeric.main", fn),
            "_panel_points": self._panel_counter,
            "angular_kernel": self._eval_counter,
            "_tail": lambda fn: self._timer("numeric.tail", fn),
            "_vector_integrand": self._tail_eval_counter,
        }
        for name, make in probes.items():
            fn = getattr(numeric, name, None) if numeric else None
            if fn is None:
                self.missing.append(f"numeric.{name}")
                self.absent.update(PROBE_METRICS[name])
                continue
            self._rebind(fn, make(fn))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    # -- wrappers --------------------------------------------------------

    def _span(self, layer, name, fn):
        tracer, stack, clock = self, self.stack, time.perf_counter
        self_s, calls, counts = self.self_s, self.calls, self.counts
        key = f"{layer}.{name}"
        errors = {exc: counter for (lay, nm, exc), counter in ERROR_COUNTERS.items()
                  if lay == layer and nm == name}
        returned = RETURN_COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counter = errors.get(type(exc).__name__)
                if counter:
                    counts[counter] += 1
                raise
            else:
                if returned:
                    counts[returned] += 1
                return result
            finally:
                dur = clock() - frame[0]
                stack.pop()
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[key] += 1

        return wrapper

    def _coeff_op(self, fn, depth):
        tracer, stack, clock = self, self.stack, time.perf_counter
        counts, timers = self.counts, self.timers

        @functools.wraps(fn)
        def wrapper(*args):
            # only the outermost call is counted: __sub__ calls __add__
            if not tracer.enabled or depth[0]:
                return fn(*args)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                depth[0] = 0
                counts["coeffs.ops"] += 1
                timers["coeffs"] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _timer(self, key, fn):
        tracer, clock, timers = self, time.perf_counter, self.timers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[key] += clock() - start

        return wrapper

    def _panel_counter(self, fn):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pts = fn(*args, **kwargs)
            if tracer.enabled:
                counts["numeric.main.panels"] += max(len(pts) - 1, 1)
            return pts

        return wrapper

    def _eval_counter(self, fn):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts["numeric.main.evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _tail_eval_counter(self, fn):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            vec = fn(*args, **kwargs)

            def counted(r):
                if tracer.enabled:
                    counts["numeric.tail.evals"] += getattr(r, "size", 1)
                return vec(r)

            return counted

        return wrapper

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures for everything recorded while enabled; values
        are None for metrics whose helper is absent."""
        ms = 1e3
        calls_in = lambda layer: sum(n for k, n in self.calls.items()
                                     if k.startswith(layer + "."))
        out = {
            "numeric.calls": calls_in("numeric"),
            "numeric.self_ms": self.self_s["numeric"] * ms,
            "numeric.fail": self.counts["numeric.fail"],
            "numeric.main.ms": self.timers["numeric.main"] * ms,
            "numeric.main.panels": self.counts["numeric.main.panels"],
            "numeric.main.evals": self.counts["numeric.main.evals"],
            "numeric.tail.ms": self.timers["numeric.tail"] * ms,
            "numeric.tail.evals": self.counts["numeric.tail.evals"],
            "coeffs.ops": self.counts["coeffs.ops"],
            "coeffs.ms": self.timers["coeffs"] * ms,
            "regulate.calls": self.calls["regulate.find_representation"],
            "regulate.self_ms": self.self_s["regulate"] * ms,
            "regulate.not_representable": self.counts["regulate.not_representable"],
            "cli.envelopes": self.counts["cli.envelopes"],
        }
        for layer in ("operators", "fourier", "surface", "parser", "printer",
                      "quotient", "cli"):
            out[f"{layer}.self_ms"] = self.self_s[layer] * ms
        for name in self.absent:
            out[name] = None
        return out
