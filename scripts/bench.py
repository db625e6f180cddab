#!/usr/bin/env python3
"""End-to-end timings of two source trees, alternating parent and change.

Mode ``eval`` times ``run_eval`` as perfbench's ``eval-rtt`` workload
drives it, offline. It imports perfbench's ``workloads`` and ``provider``
read-only. Per process, ``EvalRtt`` makes its seeded corpus and QA set and
builds, persists and loads its store once, with no delay per call (the
store does not depend on it). Then one ``run_eval`` answers the first
QUESTIONS questions at ``workloads.CHAT_DELAY`` per chat call and
``workloads.EMBED_DELAY`` per embed. A pass reports questions/s, LLM calls
and tokens per question, and the sha256 of the detailed records as
``trimem eval`` writes them.

Every pass runs in a fresh process that imports trimem from ``--parent``
or ``--change``. Passes run one at a time: PAIRS pairs of a parent and a
change pass, the parent first in every other pair. The run goes under
``--run`` in the ``--out`` JSON file, next to the runs already there,
with every pass, each pair's change/parent ratios and their median,
minimum and maximum, and ``records_equal``: whether every change pass
wrote its parent's records. The run
``parent_over_parent`` measures one tree against itself, so its ratios are
the host's spread. Every other run gets, per metric, the verdict "higher"
or "lower" when all its pair ratios lie above or below that spread, and
"unresolved" otherwise:

    python scripts/bench.py eval --parent ../parent/src --change ../parent/src \\
        --run parent_over_parent
    python scripts/bench.py eval --parent ../parent/src --change src
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"
SEED = 1
QUESTIONS = 100
TURNS = 0  # corpus turns; 0 keeps EvalRtt's
DELAY = True  # wait per call as eval-rtt does
PAIRS = 10
METRICS = ("questions_per_s", "calls_per_question", "tokens_per_question")
SAME_TREE_RUN = "parent_over_parent"


def measure_eval(workdir: Path, questions: int, turns: int, delay: bool) -> dict:
    """One eval pass with the trimem and perfbench already on ``sys.path``;
    ``turns`` other than 0 replaces ``EvalRtt``'s corpus size."""
    import trimem
    import workloads

    wl = workloads.EvalRtt(SEED, workdir)
    try:
        wl.turns = turns or wl.turns
        wl.questions = questions
        wl.prepare()
        wl.backend.chat_delay = wl.backend.embed_delay = 0.0
        problems = wl.setup()
        if problems:
            raise SystemExit(f"eval set-up failed: {problems}")
        if delay:
            wl.backend.chat_delay = workloads.CHAT_DELAY
            wl.backend.embed_delay = workloads.EMBED_DELAY
        qa = wl.qa[:questions]
        usage = wl.backend.usage
        calls, tokens = usage.calls, usage.total_tokens
        t0 = time.perf_counter()
        records = wl.pipeline.run_eval(qa, wl.store, wl.prompts, wl.router, wl.config)
        wall = time.perf_counter() - t0
    finally:
        wl.close()
    detailed = "".join(json.dumps(r.detailed_record(), sort_keys=True) + "\n" for r in records)
    return {"trimem": str(Path(trimem.__file__).resolve().parent),
            "questions": len(qa), "entries": len(wl.store), "wall_s": round(wall, 4),
            "questions_per_s": round(len(qa) / wall, 4),
            "calls_per_question": (usage.calls - calls) / len(qa),
            "tokens_per_question": (usage.total_tokens - tokens) / len(qa),
            "records_sha256": hashlib.sha256(detailed.encode("utf-8")).hexdigest()}


def run_pass(src: str, workdir: str) -> dict:
    """``measure_eval`` in a fresh process that imports trimem from src."""
    proc = subprocess.run([sys.executable, __file__, "--pass", src, str(QUESTIONS), str(TURNS),
                           str(int(DELAY)), workdir], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the eval pass over {src} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    imported = Path(result.pop("trimem"))
    if imported != (Path(src) / "trimem").resolve():
        raise SystemExit(f"the pass over {src} imported trimem from {imported}")
    return result


def alternate(parent: str, change: str, pairs: int, workdir: str) -> dict:
    """``pairs`` pairs of a parent and a change pass, the parent first in
    every other pair, with each pair's change/parent ratios, their median
    and range, and whether every change pass wrote its parent's records."""
    passes, sides = [], [("parent", parent), ("change", change)]
    for pair in range(pairs):
        for side, src in sides if pair % 2 == 0 else sides[::-1]:
            passes.append({"pair": pair, "side": side, **run_pass(src, workdir)})
            print(json.dumps({key: passes[-1][key] for key in ("pair", "side", *METRICS)}),
                  flush=True)
    by_pair = [{p["side"]: p for p in passes if p["pair"] == pair} for pair in range(pairs)]
    ratios = {key: [round(two["change"][key] / two["parent"][key], 4) for two in by_pair]
              for key in METRICS}
    return {"passes": passes, "pair_ratios": ratios,
            "change_over_parent": {key: {"median": statistics.median(values),
                                         "min": min(values), "max": max(values)}
                                   for key, values in ratios.items()},
            "records_equal": all(two["change"]["records_sha256"] ==
                                 two["parent"]["records_sha256"] for two in by_pair)}


def verdict(ratios: dict, same_tree: dict) -> str:
    """"higher" or "lower" when all of a run's pair ratios lie above or below
    a parent_over_parent run's range of them, else "unresolved"."""
    if ratios["min"] > same_tree["max"]:
        return "higher"
    return "lower" if ratios["max"] < same_tree["min"] else "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["eval"])
    parser.add_argument("--parent", required=True, help="the parent's source tree")
    parser.add_argument("--change", default=str(REPO / "src"),
                        help="the changed source tree (default: this checkout's)")
    parser.add_argument("--run", default="change_over_parent",
                        help=f"the run's name in --out; {SAME_TREE_RUN} for a tree "
                             f"against itself")
    parser.add_argument("--out", default=str(REPO / "BENCH_eval.json"))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        result = alternate(args.parent, args.change, PAIRS, tmp)
    out = Path(args.out)
    runs = json.loads(out.read_text()).get("runs", {}) if out.exists() else {}
    runs[args.run] = {"pairs": PAIRS, "questions": QUESTIONS, "turns": TURNS or None,
                      "delay": DELAY, **result}
    same_tree = runs.get(SAME_TREE_RUN, {}).get("change_over_parent")
    for name, run in runs.items():
        if name != SAME_TREE_RUN and same_tree:
            run["verdicts"] = {key: verdict(run["change_over_parent"][key], same_tree[key])
                               for key in METRICS}
    doc = {"python": platform.python_version(), "machine": platform.machine(),
           "seed": SEED, "runs": runs}
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--pass"]:  # one pass here: SRC QUESTIONS TURNS DELAY WORKDIR
        src, questions, turns, delay, workdir = sys.argv[2:]
        sys.path[:0] = [src, str(PERFBENCH)]
        print(json.dumps(measure_eval(Path(workdir), int(questions), int(turns),
                                      delay == "1")))
        sys.exit(0)
    sys.exit(main())
