"""trimem benchmark: one command, three seeded offline workloads.

    python3 perfbench/run.py --workload ingest|answer-20k|eval-rtt \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, from a traced pass over the same operations as an untraced
pass (whose ratio gives ``trace.overhead_ratio``); the two passes take turns
operation by operation. A human-readable summary
goes to standard error. The exit code is 1 when an output check failed and
2 when the engine cannot be found.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "llm_calls_per_item": "count",
    "llm_tokens_per_item": "tokens",
    "store_bytes_per_entry": "B",
    "peak_rss_mb": "MB",
}
# per-workload names of the end-to-end metrics, used in the summary
ALIASES = {
    "ingest": {"throughput_per_s": "ingest_windows_per_s",
               "latency_p50_ms": "window_p50_ms", "latency_p90_ms": "window_p90_ms",
               "llm_calls_per_item": "llm_calls_per_window",
               "llm_tokens_per_item": "llm_tokens_per_window"},
    "answer-20k": {"throughput_per_s": "questions_per_s",
                   "latency_p50_ms": "question_p50_ms",
                   "latency_p90_ms": "question_p90_ms",
                   "llm_calls_per_item": "llm_calls_per_question",
                   "llm_tokens_per_item": "llm_tokens_per_question"},
    "eval-rtt": {"throughput_per_s": "eval_questions_per_s",
                 "latency_p50_ms": "question_p50_ms",
                 "latency_p90_ms": "question_p90_ms",
                 "llm_calls_per_item": "llm_calls_per_question",
                 "llm_tokens_per_item": "llm_tokens_per_question"},
}


def _locate_engine() -> None:
    if not (SRC / "trimem" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trimem sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import trimem
    if Path(trimem.__file__).resolve().parent != (SRC / "trimem").resolve():
        raise SystemExit(f"perfbench: imported trimem from {trimem.__file__}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Pass:
    """Totals of one run of numbered operations."""

    def __init__(self):
        self.ops = self.items = self.failed = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.calls = self.prompt_tokens = self.completion_tokens = 0
        self.outputs: list = []
        self.errors: list[str] = []
        self.proposed = 0
        self.turns = 0
        self.logs: dict[str, int] = {}
        self.walls: dict[str, float] = {}  # request ID -> busy seconds


def run_op(wl, i: int, p: Pass, tracer=None) -> None:
    """Run operation ``i`` into ``p``; traced only when a tracer is given.

    The tracer's wrappers are installed around the operation alone, so
    untraced operations and the output checks run on the bare engine.
    """
    import spans as tr

    usage = wl.backend.usage
    calls, prompt, completion = usage.calls, usage.prompt_tokens, usage.completion_tokens
    logs = dict(wl.logs.counts)
    uninstall = None
    if tracer is not None:
        tracer.request = str(i)
        uninstall = tr.install(tracer)
        tracer.active = True
    try:
        op = wl.op(i)
    finally:
        if uninstall is not None:
            tracer.active = False
            uninstall()
    p.calls += usage.calls - calls
    p.prompt_tokens += usage.prompt_tokens - prompt
    p.completion_tokens += usage.completion_tokens - completion
    for key, value in wl.logs.counts.items():
        p.logs[key] = p.logs.get(key, 0) + value - logs[key]
    if op.check is not None:
        op.errors += op.check()
    p.walls[str(i)] = op.busy_s
    p.ops += 1
    p.items += op.items
    p.busy += op.busy_s
    p.latencies += op.latencies_ms
    p.proposed += op.proposed
    p.turns += op.turns
    p.outputs.append(op.output)
    if op.errors:
        p.failed += op.items
        p.errors += op.errors


def timed_pass(wl, seconds: float) -> Pass:
    p = Pass()
    deadline = time.perf_counter() + seconds
    while p.ops == 0 or time.perf_counter() < deadline:
        run_op(wl, p.ops, p)
    return p


def paired_passes(wl, seconds: float, tracer) -> tuple[Pass, Pass]:
    """(untraced, traced) passes over the same operations. Each operation
    runs once in each pass; which pass goes first alternates, so neither
    gains from caches the other warmed or from drift in host speed."""
    plain, traced = Pass(), Pass()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        order = [(traced, tracer), (plain, None)]
        if i % 2:
            order.reverse()
        for p, t in order:
            run_op(wl, i, p, t)
        i += 1
    return plain, traced


def end_to_end(wl, setup_times: list[float], p: Pass) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": p.items / p.busy,
        "latency_p50_ms": percentile(p.latencies, 50),
        "latency_p90_ms": percentile(p.latencies, 90),
        "llm_calls_per_item": p.calls / p.items,
        "llm_tokens_per_item": (p.prompt_tokens + p.completion_tokens) / p.items,
        "store_bytes_per_entry": wl.bytes_per_entry,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        trace_out: Path | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, summary lines)."""
    from workloads import WORKLOADS
    import spans as tr

    wl = WORKLOADS[workload](seed, workdir)
    try:
        wl.prepare()
        errors: list[str] = []
        if not trace:
            setup_times = []
            for _ in range(wl.setups):
                t0 = time.perf_counter()
                wl_errors = wl.setup()
                setup_times.append(time.perf_counter() - t0)
                errors += wl_errors
            p = timed_pass(wl, seconds)
            metrics = end_to_end(wl, setup_times, p)
            units = E2E_UNITS
            summary = _summary(workload, metrics, p, setup_times)
        else:
            tracer = tr.Tracer()
            wl.backend.tracer = tracer
            uninstall = tr.install(tracer)
            try:
                errors += wl.setup()
            finally:
                tracer.active = False
                uninstall()
            tracer.phase = "measure"
            plain, p = paired_passes(wl, seconds, tracer)
            wl.backend.tracer = None
            if plain.outputs != p.outputs:
                errors.append("traced and untraced passes gave different outputs")
            errors += plain.errors
            overhead = p.busy / plain.busy - 1
            metrics = tr.layer_metrics(tracer, p.items, 1, p.walls,
                                       (p.prompt_tokens, p.completion_tokens),
                                       p.logs, overhead, p.proposed)
            units = {name: tr.unit_of(name) for name in metrics}
            summary = [f"{workload}: traced {p.ops} ops / {p.items} items, "
                       f"{len(tracer.spans)} spans, overhead {overhead:+.3f}"]
            if trace_out is not None:
                tracer.dump(trace_out)
                summary.append(f"spans written to {trace_out}")
        errors += p.errors
        failed = p.failed + (p.items if errors and not p.failed else 0)
        result = {
            "correct": not errors,
            "attempted": p.items,
            "failed": min(failed, p.items),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        summary += [f"check failed: {e}" for e in errors[:20]]
        return result, summary
    finally:
        wl.close()


def _summary(workload, metrics, p: Pass, setup_times) -> list[str]:
    aliases = ALIASES[workload]
    lines = [f"{workload}: {p.ops} ops, {p.items} items, {len(p.latencies)} latency "
             f"samples, setups {', '.join(f'{t:.3f}' for t in setup_times)} s"]
    for name, value in metrics.items():
        label = aliases.get(name, name)
        lines.append(f"  {label:28s} {value:14.4f} {E2E_UNITS[name]}")
    if workload == "ingest":
        lines.append(f"  {'ingest_turns_per_s':28s} {p.turns / p.busy:14.4f} 1/s")
    lines.append(f"  {'failure_ratio':28s} {p.failed / p.items:14.4f} ratio")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "answer-20k", "eval-rtt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        _locate_engine()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_out = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    try:
        result, summary = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir, trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    for line in summary:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
