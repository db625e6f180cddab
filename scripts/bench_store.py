#!/usr/bin/env python3
"""Time MemoryStore.persist and MemoryStore.load of two source trees, alternating.

The layer view of the store's persist/load path, offline. For each size
(1k, 10k and 50k entries) it builds one seeded store at dim 384: entries
with keywords, persons and anchors, two turns per three entries, a profile
version per 25 entries, and unit-norm Gaussian embeddings from a stub
backend with no delay. One pass persists and loads that store REPEAT times
and keeps the median and every run of each wall-clock time in ms, and the
bytes of each store file. Each timed run frees the previous run's loaded
store and runs a full GC before its clock starts, so no run times the
freeing of another; the last load must equal the persisted store in
entries, turns, profile history with each profile's section order, and
vector bytes.

Every pass runs in a fresh process that imports trimem from ``--parent``
or ``--change``. Per size the passes alternate, parent then change,
PAIRS times, so host drift falls on both sides alike. The run goes
under ``--run`` in the ``--out`` JSON file, next to the runs already
there, with every pass and, per size, each pair's change/parent ratio and
their median, minimum and maximum. The run ``parent_over_parent`` measures
one tree against itself, so its ratios are the host's spread. Every other
run gets, per size and time, the verdict "faster" or "slower" when all its
pair ratios lie below or above that spread, and "unresolved" otherwise:

    python scripts/bench_store.py --parent ../parent/src --change ../parent/src \\
        --run parent_over_parent
    python scripts/bench_store.py --parent ../parent/src --change src
"""
from __future__ import annotations

import argparse
import gc
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SIZES = (1_000, 10_000, 50_000)
REPEAT = 5
PAIRS = 5
SEED = 1
DIM = 384
TIMED = ("persist_ms", "load_ms")
SAME_TREE_RUN = "parent_over_parent"
PERSONS = [f"Person{i:02d}" for i in range(40)]
PLACES = ["Rome", "Lisbon", "the harbor", "the library", "Oslo", "the gym", None]
TOPICS = ["travel", "work", "family", "sports", "books", "food", "music"]
WORDS = ("visited bought painted learned cooked watched wrote repaired planned "
         "sold borrowed joined trained booked finished started").split()


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


def measure(trimem, n: int, workdir: Path) -> dict:
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
    shutil.rmtree(path)
    return {"entries": len(store), "turns": len(store.turns),
            "profile_versions": len(store.profile_history),
            "persist_ms": statistics.median(persist_ms),
            "load_ms": statistics.median(load_ms),
            "persist_runs_ms": persist_ms, "load_runs_ms": load_ms,
            "file_bytes": files, "store_bytes": sum(files.values()),
            "bytes_per_entry": round(sum(files.values()) / len(store), 1)}


def run_pass(src: str, size: int, workdir: str) -> dict:
    """``measure`` in a fresh process that imports trimem from src."""
    proc = subprocess.run([sys.executable, __file__, "--pass", src, str(size), workdir],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the pass over {src} at {size} entries failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def alternate(parent: str, change: str, pairs: int, sizes, workdir: str) -> dict:
    """Per size, ``pairs`` pairs of a parent pass then a change pass, with
    each pair's change/parent ratios and their median and range."""
    out = {}
    for size in sizes:
        passes = []
        for _ in range(pairs):
            for side, src in (("parent", parent), ("change", change)):
                passes.append({"side": side, **run_pass(src, size, workdir)})
                print(json.dumps({"size": size, "side": side,
                                  **{key: passes[-1][key] for key in TIMED}}), flush=True)
        ratios = {key: [round(new[key] / old[key], 3)
                        for old, new in zip(passes[::2], passes[1::2])]
                  for key in (*TIMED, "store_bytes")}
        out[str(size)] = {
            "passes": passes, "pair_ratios": ratios,
            "change_over_parent": {key: {"median": statistics.median(values),
                                         "min": min(values), "max": max(values)}
                                   for key, values in ratios.items()}}
    return out


def verdict(ratios: dict, same_tree: dict) -> str:
    """"faster" or "slower" when all of a run's pair ratios lie on one side
    of a parent_over_parent run's range of them, else "unresolved"."""
    if ratios["max"] < same_tree["min"]:
        return "faster"
    return "slower" if ratios["min"] > same_tree["max"] else "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's source tree")
    parser.add_argument("--change", default=str(REPO / "src"),
                        help="the changed source tree (default: this checkout's)")
    parser.add_argument("--run", default="change_over_parent",
                        help=f"the run's name in --out; {SAME_TREE_RUN} for a tree "
                             f"against itself")
    parser.add_argument("--out", default=str(REPO / "BENCH_store.json"))
    parser.add_argument("--workdir", default=None,
                        help="where stores are written (default: a temp dir)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        sizes = alternate(args.parent, args.change, PAIRS, SIZES, tmp)
    out = Path(args.out)
    runs = json.loads(out.read_text()).get("runs", {}) if out.exists() else {}
    runs[args.run] = {"pairs": PAIRS, "sizes": sizes}
    same_tree = runs.get(SAME_TREE_RUN, {}).get("sizes", {})
    for name, run in runs.items():
        if name != SAME_TREE_RUN:
            run["verdicts"] = {
                size: {key: verdict(result["change_over_parent"][key],
                                    same_tree[size]["change_over_parent"][key])
                       for key in TIMED}
                for size, result in run["sizes"].items() if size in same_tree}
    doc = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "seed": SEED, "repeat": REPEAT, "dim": DIM,
           "runs": runs}
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--pass"]:  # one pass in this process: SRC SIZE WORKDIR
        sys.path.insert(0, sys.argv[2])
        import trimem

        print(json.dumps(measure(trimem, int(sys.argv[3]), Path(sys.argv[4]))))
        sys.exit(0)
    sys.exit(main())
