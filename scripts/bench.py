#!/usr/bin/env python3
"""End-to-end and layer timings of two source trees, alternating parent and change.

A mode is a pass function, its cases and the metrics its pairs compare.
Mode ``eval`` times ``run_eval`` offline, in one case, as perfbench's
``eval-rtt`` workload drives it, importing perfbench's ``workloads`` and
``provider`` read-only. Per process, ``EvalRtt`` makes its seeded corpus
and QA set and builds, persists and loads its store once with no delay per
call (the store does not depend on it); then one ``run_eval`` answers the
first QUESTIONS questions at ``workloads.CHAT_DELAY`` per chat call and
``workloads.EMBED_DELAY`` per embed. A pass reports questions/s, LLM calls
and tokens per question, and the sha256 of the detailed records as
``trimem eval`` writes them.

Mode ``store`` times ``MemoryStore.persist`` and ``MemoryStore.load``, one
case per size in SIZES (1k, 10k and 50k entries), each a seeded store at
dim DIM: entries with keywords, persons and anchors, two turns per three
entries, a profile version per 25 entries, and unit-norm Gaussian
embeddings from a stub backend with no delay. A pass persists and loads
it REPEAT times and reports the median and every run of each time in ms,
the bytes of each file and the sha256 of the files, which equal stores
write byte for byte. Each timed run frees the previous run's loaded store
and runs a full GC before its clock starts; the last load must equal the
persisted store in entries, turns, profile history with each profile's
section order, and vector bytes.

Every pass runs in a fresh process that must import trimem from
``--parent`` or ``--change``. Passes run one at a time: per case, PAIRS
pairs of a parent and a change pass, the parent first in every other pair.
The run goes under ``--run`` in the ``--out`` JSON file
(``BENCH_<mode>.json``), next to the runs already there, with every pass,
per case each pair's change/parent ratios, and ``outputs_equal``: whether
every change pass wrote its parent's outputs. Per case and metric, the run
records each side's quartiles (median included), the pairs in which the
change was above and below the parent (ties count for neither), and a
verdict from this run's pairs alone: "higher" or "lower" when the change
is so in at least 9 of every 10 pairs and the two medians differ by more
than the parent's interquartile range, "unresolved" otherwise:

    python scripts/bench.py store --parent ../parent/src --change src
    python scripts/bench.py eval --parent ../parent/src --change src
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"
SEED = 1
PAIRS = 10
QUESTIONS = 100
TURNS = 0  # corpus turns; 0 keeps EvalRtt's
DELAY = True  # wait per call as eval-rtt does
SIZES = (1_000, 10_000, 50_000)
REPEAT = 5
DIM = 384
PERSONS = [f"Person{i:02d}" for i in range(40)]
PLACES = ["Rome", "Lisbon", "the harbor", "the library", "Oslo", "the gym", None]
TOPICS = ["travel", "work", "family", "sports", "books", "food", "music"]
WORDS = ("visited bought painted learned cooked watched wrote repaired planned "
         "sold borrowed joined trained booked finished started").split()


def measure_eval(workdir: Path, questions: int, turns: int, delay: bool) -> dict:
    """One eval pass with the trimem and perfbench already on ``sys.path``;
    ``turns`` other than 0 replaces ``EvalRtt``'s corpus size."""
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
    return {"questions": len(qa), "entries": len(wl.store), "wall_s": round(wall, 4),
            "questions_per_s": round(len(qa) / wall, 4),
            "calls_per_question": (usage.calls - calls) / len(qa),
            "tokens_per_question": (usage.total_tokens - tokens) / len(qa),
            "outputs_sha256": hashlib.sha256(detailed.encode("utf-8")).hexdigest()}


class StubBackend:
    """Seeded Gaussian embeddings, returned at once."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def embed(self, texts):
        return self.rng.standard_normal((len(texts), DIM)).astype(np.float32)


def make_store(trimem, n: int, seed: int):
    from trimem.corpus import DialogueTurn
    from trimem.extraction import MemoryEntry
    from trimem.profiles import EntityProfile, parse_profile_text

    rng = np.random.default_rng(seed)
    turn_count = max(1, 2 * n // 3)
    store = trimem.MemoryStore(turns=[
        DialogueTurn(turn_id=t, session_id=t // 50,
                     speaker=PERSONS[t % 2], text=f"turn {t} says {WORDS[t % len(WORDS)]}",
                     timestamp=f"2024-{1 + t % 12:02d}-{1 + t % 28:02d}T10:00:00")
        for t in range(1, turn_count + 1)])
    entries = []
    for i in range(n):
        person = PERSONS[int(rng.integers(len(PERSONS)))]
        verb = WORDS[int(rng.integers(len(WORDS)))]
        place = PLACES[int(rng.integers(len(PLACES)))]
        anchor = int(rng.integers(1, turn_count + 1))
        entries.append(MemoryEntry(
            lossless_restatement=f"{person} {verb} item {i} in {place or 'town'} "
                                 f"on day {i % 365}.",
            keywords=frozenset({verb, f"item {i}"}),
            event_time=f"2024-{1 + i % 12:02d}-{1 + i % 28:02d}T09:30:00",
            location=place,
            persons=frozenset({person}),
            entities=frozenset({f"item {i}"}),
            topic=TOPICS[i % len(TOPICS)],
            source_dialogue_ids=frozenset({anchor, min(turn_count, anchor + 1)}),
            origin_window=1 + i // 40))
    store.insert_entries(entries, StubBackend(seed))
    versions: dict[str, int] = {}
    for i in range(max(1, n // 25)):
        person = PERSONS[i % len(PERSONS)]
        versions[person] = versions.get(person, 0) + 1
        # parsed sections and these keywords suit every EntityProfile form
        # this script may import; the window keeps its default
        name, sections = parse_profile_text(
            f"Entity: {person}\n[Identity] {person}, version {versions[person]}\n"
            f"[Interests] {', '.join(WORDS[:1 + i % 5])}")
        store.add_profile(EntityProfile(entity_key=person.lower(), display_name=name,
                                        version=versions[person], sections=sections))
    store.seal()
    return store


def measure(n: int, workdir: Path) -> dict:
    """One store pass of ``n`` entries with the trimem already on ``sys.path``."""
    import trimem

    store = make_store(trimem, n, SEED)
    path = workdir / f"store-{n}"
    persist_ms, load_ms = [], []
    for _ in range(REPEAT):
        shutil.rmtree(path, ignore_errors=True)
        loaded = None
        gc.collect()
        t0 = time.perf_counter()
        store.persist(path)
        t1 = time.perf_counter()
        loaded = trimem.MemoryStore.load(path)
        t2 = time.perf_counter()
        persist_ms.append(round((t1 - t0) * 1e3, 2))
        load_ms.append(round((t2 - t1) * 1e3, 2))
    if loaded.insertion_order != store.insertion_order or \
            loaded.entries != store.entries or loaded.turns != store.turns or \
            loaded.profile_history != store.profile_history or \
            [list(p.sections.items()) for p in loaded.profile_history] != \
            [list(p.sections.items()) for p in store.profile_history] or \
            any(loaded.vector_of(e).tobytes() != store.vector_of(e).tobytes()
                for e in store.insertion_order):
        raise SystemExit(f"{n} entries: the loaded store differs from the persisted one")
    files = {p.name: p.stat().st_size for p in sorted(path.iterdir())}
    digest = hashlib.sha256(b"".join(name.encode("utf-8") + b"\0" + (path / name).read_bytes()
                                     for name in files))
    shutil.rmtree(path)
    return {"entries": len(store), "turns": len(store.turns),
            "profile_versions": len(store.profile_history),
            "persist_ms": statistics.median(persist_ms),
            "load_ms": statistics.median(load_ms),
            "persist_runs_ms": persist_ms, "load_runs_ms": load_ms,
            "file_bytes": files, "store_bytes": sum(files.values()),
            "bytes_per_entry": round(sum(files.values()) / len(store), 1),
            "outputs_sha256": digest.hexdigest()}


class Mode(NamedTuple):
    measure: Callable[..., dict]  # called with workdir= and one case's arguments
    cases: Callable[[], dict]  # case name -> measure's other arguments
    metrics: tuple


MODES = {
    "eval": Mode(measure_eval,
                 lambda: {str(QUESTIONS): {"questions": QUESTIONS, "turns": TURNS,
                                           "delay": DELAY}},
                 ("questions_per_s", "calls_per_question", "tokens_per_question")),
    "store": Mode(measure, lambda: {str(n): {"n": n} for n in SIZES},
                  ("persist_ms", "load_ms", "store_bytes")),
}


def run_pass(mode: str, src: str, case: dict, workdir: str) -> dict:
    """One pass of ``mode`` in a fresh process that imports trimem from src,
    refused when trimem came from anywhere else."""
    proc = subprocess.run([sys.executable, __file__, "--pass", mode, src, workdir,
                           json.dumps(case)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the {mode} pass over {src} at {case} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(parent: list, change: list) -> dict:
    """Each side's quartiles, the pairs in which the change was above and
    below the parent, and the verdict by the rule above."""
    sides = {side: dict(zip(("q1", "median", "q3"), statistics.quantiles(values, n=4)))
             for side, values in (("parent", parent), ("change", change))}
    above = sum(c > p for p, c in zip(parent, change))
    below = sum(c < p for p, c in zip(parent, change))
    gap = sides["change"]["median"] - sides["parent"]["median"]
    spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    verdict = "unresolved"
    if 10 * above >= 9 * len(parent) and gap > spread:
        verdict = "higher"
    elif 10 * below >= 9 * len(parent) and -gap > spread:
        verdict = "lower"
    return {**sides, "above": above, "below": below, "verdict": verdict}


def alternate(mode: str, parent: str, change: str, workdir: str) -> dict:
    """Per case, PAIRS pairs of a parent and a change pass, the parent first
    in every other pair, with each pair's change/parent ratios, each
    metric's ``compare``, and whether every change pass wrote its parent's
    outputs."""
    metrics, cases, equal = MODES[mode].metrics, {}, True
    sides = [("parent", parent), ("change", change)]
    for name, case in MODES[mode].cases().items():
        passes = []
        for pair in range(PAIRS):
            for side, src in sides if pair % 2 == 0 else sides[::-1]:
                passes.append({"pair": pair, "side": side,
                               **run_pass(mode, src, case, workdir)})
                print(json.dumps({"case": name, **{key: passes[-1][key] for key in
                                                   ("pair", "side", *metrics)}}), flush=True)
        by_pair = [{p["side"]: p for p in passes if p["pair"] == pair}
                   for pair in range(PAIRS)]
        cases[name] = {
            "case": case, "passes": passes,
            "pair_ratios": {key: [round(two["change"][key] / two["parent"][key], 4)
                                  for two in by_pair] for key in metrics},
            "metrics": {key: compare([two["parent"][key] for two in by_pair],
                                     [two["change"][key] for two in by_pair])
                        for key in metrics}}
        equal &= all(two["change"]["outputs_sha256"] == two["parent"]["outputs_sha256"]
                     for two in by_pair)
    return {"cases": cases, "outputs_equal": equal}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--parent", required=True, help="the parent's source tree")
    parser.add_argument("--change", default=str(REPO / "src"),
                        help="the changed source tree (default: this checkout's)")
    parser.add_argument("--run", default="change_over_parent", help="the run's name in --out")
    parser.add_argument("--out", help="the runs' JSON file (default: BENCH_<mode>.json)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        result = alternate(args.mode, args.parent, args.change, tmp)
    out = Path(args.out or REPO / f"BENCH_{args.mode}.json")
    runs = json.loads(out.read_text()).get("runs", {}) if out.exists() else {}
    runs[args.run] = {"pairs": PAIRS, **result}
    doc = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "seed": SEED, "runs": runs}
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--pass"]:  # one pass here: MODE SRC WORKDIR CASE
        mode, src, workdir, case = sys.argv[2:]
        sys.path[:0] = [src, str(PERFBENCH)]
        import trimem

        imported = Path(trimem.__file__).resolve().parent
        if imported != (Path(src) / "trimem").resolve():
            sys.exit(f"the pass over {src} imported trimem from {imported}")
        print(json.dumps(MODES[mode].measure(workdir=Path(workdir), **json.loads(case))))
        sys.exit(0)
    sys.exit(main())
