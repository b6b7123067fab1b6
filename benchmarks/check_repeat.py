"""Check that a seed fixes the op list and every deterministic output.

Runs ``run.py --trace 1`` twice per workload, each in a fresh interpreter
with the same seed, and requires exact equality of the op-list digest,
fail_frac, digits_mean and every per-layer count (numeric.main.evals,
numeric.tail.evals, coeffs.ops among them).  Exits 1 on any difference.

    python3 benchmarks/check_repeat.py --seed 3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def deterministic(report: dict) -> dict:
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    out = {"op_list_sha256": report["op_list_sha256"],
           "fail_frac": report["summary"]["fail_frac"],
           "digits_mean": report["summary"]["digits_mean"]}
    for name, entry in report["metrics"].items():
        if units.get(name) == "count":
            out[name] = entry["value"]
    return out


def one_run(workload: str, seed: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1", "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return deterministic(json.loads(out.read_text()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bad = 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".repeat-") as tmp:
        for workload in ("exact", "oracle", "tour"):
            first = one_run(workload, args.seed, Path(tmp) / "a.json")
            second = one_run(workload, args.seed, Path(tmp) / "b.json")
            diff = sorted(k for k in first if first[k] != second.get(k))
            bad += bool(diff)
            verdict = "differs in " + ", ".join(diff) if diff else "repeats exactly"
            print(f"{workload} seed={args.seed}: {verdict}")
            for key in diff:
                print(f"   {key}: {first[key]!r} != {second.get(key)!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
