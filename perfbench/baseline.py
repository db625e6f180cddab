"""Measure a baseline: every workload over several seeds, untraced and traced.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1-3 \\
        --out perfbench/baseline.json

For each workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (quartile distance
over median). For each per-layer metric it records the median over the
traced seeds. ``run_seconds`` comes from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"correct {result['correct']}, {result['failed']}/{result['attempted']} "
          "failed", file=sys.stderr, flush=True)
    return result


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="1-3")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: those in BENCHMARK.json")
    ap.add_argument("--out", default="perfbench/baseline.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    path = ROOT / args.out
    # workloads not run this time keep their earlier numbers
    kept = json.loads(path.read_text(encoding="utf-8"))["workloads"] \
        if path.exists() else {}
    out = {
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": _seeds(args.seeds),
        "traced_seeds": _seeds(args.traced_seeds),
        "workloads": kept,
    }
    for workload in names:
        plain = [_run(workload, s, seconds, 0) for s in out["seeds"]]
        traced = [_run(workload, s, seconds, 1) for s in out["traced_seeds"]]
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain),
            "failed": sum(r["failed"] for r in plain),
            "end_to_end": {
                name: {"unit": plain[0]["metrics"][name]["unit"],
                       **_stats([r["metrics"][name]["value"] for r in plain])}
                for name in plain[0]["metrics"]},
            "per_layer": {
                name: {"unit": traced[0]["metrics"][name]["unit"],
                       "median": statistics.median(
                           r["metrics"][name]["value"] for r in traced)}
                for name in traced[0]["metrics"]},
        }
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if all(out["workloads"][w]["correct"] for w in names) else 1


if __name__ == "__main__":
    sys.exit(main())
