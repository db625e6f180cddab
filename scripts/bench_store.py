#!/usr/bin/env python3
"""Time MemoryStore.persist and MemoryStore.load at 1k, 10k and 50k entries.

The layer view of the store's persist/load path, offline. For each size it
builds one seeded store at dim 384: entries with keywords, persons and
anchors, two turns per three entries, a profile version per 25 entries,
and unit-norm Gaussian embeddings from a stub backend with no delay. It
then persists and loads that store REPEAT times into ``--workdir``
and records, per size, the median and every run of the persist and load
wall-clock time in ms, and the bytes of each store file. Each pass frees
the previous pass's loaded store and runs a full GC before its clock
starts, so no pass times the freeing of another; the last load must equal
the persisted store in entries, turns, profile history and vector bytes.

The results go under ``--label`` in the ``--out`` JSON file, next to what
other labels hold there. When the file holds both ``parent`` and
``change``, it also gets each size's change/parent ratios. Measure two
commits with the same script by pointing ``--src`` at each checkout:

    python scripts/bench_store.py --src ../parent/src --label parent
    python scripts/bench_store.py --label change
"""
from __future__ import annotations

import argparse
import gc
import json
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SIZES = (1_000, 10_000, 50_000)
REPEAT = 5
SEED = 1
DIM = 384
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
    from trimem.profiles import EntityProfile

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
        store.add_profile(EntityProfile(
            entity_key=person.lower(), display_name=person,
            version=versions[person], last_updated_window=1 + i,
            sections=(("Identity", f"{person}, version {versions[person]}"),
                      ("Interests", ", ".join(WORDS[:1 + i % 5])))))
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


def ratios(parent: dict, change: dict) -> dict:
    out = {}
    for size, new in change["sizes"].items():
        old = parent["sizes"].get(size)
        if old:
            out[size] = {key: round(new[key] / old[key], 3)
                         for key in ("store_bytes", "persist_ms", "load_ms")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="the source tree whose trimem to measure")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", default=str(REPO / "BENCH_store.json"))
    parser.add_argument("--workdir", default=None,
                        help="where stores are written (default: a temp dir)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import trimem

    run = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "seed": SEED, "repeat": REPEAT,
           "dim": DIM, "sizes": {}}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        for size in SIZES:
            run["sizes"][str(size)] = measure(trimem, size, Path(tmp))
            print(json.dumps({"label": args.label, "size": size,
                              **{k: run["sizes"][str(size)][k] for k in
                                 ("persist_ms", "load_ms", "store_bytes")}}),
                  flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.label] = run
    if "parent" in doc and "change" in doc:
        doc["change_over_parent"] = ratios(doc["parent"], doc["change"])
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
