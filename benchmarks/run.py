"""diffreg benchmark: seeded single-client closed-loop workloads.

Run from the repository root; diffreg is imported from ``src/``:

    python3 benchmarks/run.py --workload exact --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --seed 1     # every workload, both modes

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.  ``--trace 0``
measures the end-to-end metrics with no tracing installed, with op times
scaled to a nominal host speed by the kernels in ``calibrate.py``.
``--trace 1`` runs the op list once untraced and once traced and reports the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact", "oracle", "tour")
SETUP_REPEATS = 7
# calibration schedule and window, in seconds of op time (see scaled_pass)
BLOCK_S, SAMPLE_S, MAX_SAMPLES, WINDOW_S = 0.02, 0.2, 9, 0.05
SETUP_CODE = ("import time; t = time.perf_counter(); import diffreg.cli; "
              "print(repr(time.perf_counter() - t))")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the
    order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


# -- measurement -------------------------------------------------------------


def measure_setup() -> list:
    """Wall time of ``import diffreg.cli`` in fresh child interpreters, each
    scaled by the host speed measured just before and just after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    before = calibrate.speed()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        after = calibrate.speed()
        times.append(float(done.stdout.strip()) * (before + after) / 2)
        before = after
    return times


def pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now.  The
    host's vCPUs change speed independently, so an op and the calibration
    kernels around it must run on the same one."""
    try:
        cpu = ctypes.CDLL(None).sched_getcpu()
        if cpu >= 0:
            os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError):
        pass  # no sched_getcpu or affinity call: run unpinned


def run_op(workload, op, tracer=None):
    """One op: latency of the calls into diffreg, then its checked outcome."""
    if tracer:
        tracer.enabled = True
    start = time.perf_counter()
    try:
        out, exc = workload.call(op), None
    except Exception as err:  # a failed op is data, not a fault
        out, exc = None, err
    latency = time.perf_counter() - start
    if tracer:
        tracer.enabled = False
    return latency, workload.check(op, out, exc)


def run_pass(workload, ops, tracer=None):
    """One closed-loop pass over the op list, in raw wall time."""
    latencies, outcomes = [], []
    for op in ops:
        latency, outcome = run_op(workload, op, tracer)
        latencies.append(latency)
        outcomes.append(outcome)
    return latencies, outcomes


def scaled_pass(workload, ops):
    """One pass with op latencies scaled by the host speed (see
    calibrate.py).  The kernels run after every block of ops that took at
    least BLOCK_S, once per SAMPLE_S of the block and at most MAX_SAMPLES
    times.  Each op takes the median of the speeds sampled within its own
    duration, but at least WINDOW_S, before its start and after its end,
    and of the samples right next to it: a short op follows the host's
    quick changes, and a long one is scaled by the speed around it over as
    long as it ran."""
    clock = time.perf_counter
    speeds = []  # (time, host speed)

    def calibrate_times(n):
        for _ in range(n):
            speeds.append((clock(), calibrate.speed()))

    spans, outcomes, busy = [], [], 0.0
    calibrate_times(1)
    for i, op in enumerate(ops):
        start = clock()
        latency, outcome = run_op(workload, op)
        spans.append((start, latency))
        outcomes.append(outcome)
        busy += latency
        if busy >= BLOCK_S or i == len(ops) - 1:
            calibrate_times(min(MAX_SAMPLES, 1 + int(busy / SAMPLE_S)))
            busy = 0.0
    times = [t for t, _ in speeds]
    latencies = []
    for start, latency in spans:
        end, reach = start + latency, max(latency, WINDOW_S)
        # the window always holds the last sample before the op and the
        # first one after it
        lo = min(bisect.bisect_right(times, start) - 1, bisect.bisect_left(times, start - reach))
        hi = max(bisect.bisect_left(times, end), bisect.bisect_right(times, end + reach) - 1)
        latencies.append(latency * statistics.median(v for _, v in speeds[lo:hi + 1]))
    return latencies, outcomes


def tail_index(n: int):
    """Index into n sorted samples of the highest percentile with at least
    ten samples beyond it, and that percentile."""
    if n <= 10:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


def summarize(outcomes) -> dict:
    failures = {}
    for o in outcomes:
        if o.failure:
            failures[o.failure] = failures.get(o.failure, 0) + 1
    scored = [o.digits for o in outcomes if o.digits is not None]
    failed = sum(1 for o in outcomes if o.failure)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "fail_frac": failed / len(outcomes),
        "digits_mean": statistics.fmean(scored) if scored else None,
        "digits_samples": len(scored),
        "wrong": sorted({o.wrong for o in outcomes if o.wrong}),
        "failures": dict(sorted(failures.items())),
        "err_underestimates": sum(1 for o in outcomes if o.underestimate),
    }


def end_to_end(workload, ops, seconds: float) -> dict:
    """Whole scaled passes over the op list until the next pass would
    overrun ``seconds``, and at least one.  Each op's latency is the
    median of its scaled latencies over the passes, which does not drift
    with the number of passes.  Throughput is the ops over the sum of
    those latencies."""
    setup = measure_setup()
    per_op = [[] for _ in ops]
    begin = time.perf_counter()
    passes, outcomes = 0, []
    while True:
        t0 = time.perf_counter()
        lat, outs = scaled_pass(workload, ops)
        passes += 1
        outcomes.extend(outs)
        for samples, x in zip(per_op, lat):
            samples.append(x)
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            break
    op_s = sorted(statistics.median(s) for s in per_op)
    idx, pct = tail_index(len(op_s))
    summary = summarize(outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(op_s) / sum(op_s),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "op_ms_tail": op_s[idx] * 1e3,
        "ok_frac": 1.0 - summary["fail_frac"],
        "digits_mean": summary["digits_mean"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"passes": passes, "op_samples": len(op_s), "tail_percentile": pct,
              "setup_samples_s": setup, "busy_s": sum(sum(s) for s in per_op)}
    units = metric_units("end_to_end")
    return {"metrics": {name: metrics[name] for name in units}, "units": units,
            "summary": summary, "detail": detail}


def traced(workload, ops) -> dict:
    """One untraced and one traced pass; per-layer metrics from the latter."""
    from tracing import Tracer

    plain, _ = run_pass(workload, ops)
    tracer = Tracer()
    tracer.install()
    try:
        lat, outcomes = run_pass(workload, ops, tracer)
    finally:
        tracer.uninstall()
    summary = summarize(outcomes)
    metrics = tracer.layer_metrics()
    metrics["numeric.err_underestimates"] = summary["err_underestimates"]
    metrics["trace.overhead_frac"] = sum(lat) / sum(plain) - 1.0
    units = metric_units("per_layer")
    metrics = {name: metrics.get(name) for name in units}
    detail = {"calls": dict(sorted(tracer.calls.items())), "missing": tracer.missing,
              "untraced_s": sum(plain), "traced_s": sum(lat)}
    return {"metrics": metrics, "units": units, "summary": summary, "detail": detail}


# -- reporting -----------------------------------------------------------------


def print_report(name, seed, digest, result) -> None:
    s, d = result["summary"], result["detail"]
    print(f"== {name}  seed={seed}  ops={s['attempted']}  op-list sha256={digest[:16]}")
    for key, value in result["metrics"].items():
        unit = result["units"][key]
        if value is None:
            shown = "absent"
        else:
            shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        note = ""
        if key == "op_ms_tail":
            note = f"  (p{d['tail_percentile']:.1f} of {d['op_samples']} ops)"
        elif key == "op_ms_p50":
            note = f"  ({d['op_samples']} ops, {d['passes']} passes)"
        elif key == "digits_mean":
            note = f"  ({s['digits_samples']} scored ops)"
        print(f"   {key:<28} {shown:>14} {unit}{note}")
    print(f"   fail_frac {s['fail_frac']:.4f}  ({s['failed']} of {s['attempted']})")
    for reason, count in s["failures"].items():
        print(f"     failed: {count:>5}  {reason}")
    if s["wrong"]:
        print(f"   INCORRECT outputs: {', '.join(s['wrong'])}")


def result_json(result) -> dict:
    s = result["summary"]
    metrics = {}
    for key, value in result["metrics"].items():
        entry = {"value": value, "unit": result["units"][key]}
        if value is None:
            entry["absent"] = True
        metrics[key] = entry
    return {"correct": not s["wrong"], "attempted": s["attempted"],
            "failed": s["failed"], "metrics": metrics}


def run_one(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    ops = workload.generate(args.seed)
    digest = hashlib.sha256("\n".join(op.key for op in ops).encode()).hexdigest()
    result = traced(workload, ops) if args.trace else end_to_end(workload, ops, args.seconds)
    print_report(args.workload, args.seed, digest, result)
    out = result_json(result)
    if args.out:
        report = dict(out, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, op_list_sha256=digest,
                      summary=result["summary"], detail=result["detail"])
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def run_all(args) -> dict:
    """Every workload in its own child process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} (trace {trace}) exited {done.returncode}")
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            if trace == 0:
                combined["attempted"] += res["attempted"]
                combined["failed"] += res["failed"]
            for key, entry in res["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = entry
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write a detailed JSON report")
    args = ap.parse_args(argv)
    if not (SRC / "diffreg" / "__init__.py").is_file():
        print(f"benchmark: no diffreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    pin_to_current_cpu()
    out = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
