"""The three workloads: ingest, answer-20k and eval-rtt.

Each workload generates its inputs from the seed (``prepare``, untimed),
builds its starting state (``setup``, timed as ``setup_s``), and then runs
numbered operations (``op``), one closed-loop client in one process. An
operation times only its calls into trimem and returns what the output
checks found; checks and the ranking oracle run outside the timed region.
"""
from __future__ import annotations

import json
import logging
import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import gen
from spans import dir_bytes
from provider import (BenchBackend, Provider, answer_for, build_profile,
                      expected_plan_queries)

CHAT_DELAY = 0.020   # seconds per chat call on the delayed paths
EMBED_DELAY = 0.005  # seconds per embedding call on the delayed paths


@dataclass
class Op:
    items: int                       # windows or questions done
    busy_s: float                    # time inside trimem calls
    latencies_ms: list[float]        # one per item
    errors: list[str] = field(default_factory=list)
    output: object = None            # compared between traced and untraced passes
    proposed: int = 0                # entries the provider proposed (ingest)
    turns: int = 0                   # corpus turns ingested (ingest)
    check: object = None             # () -> errors; run untimed and untraced


class LogCounter(logging.Handler):
    """Counts the engine's degradation warnings; keeps them off stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = {"dropped": 0, "plan_fallbacks": 0}
        logger = logging.getLogger("trimem")
        logger.addHandler(self)
        logger.propagate = False

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("dropping entry"):
            self.counts["dropped"] += 1
        elif record.name == "trimem.retrieval":
            self.counts["plan_fallbacks"] += 1


def _item_latencies(t0: float, marks: list[tuple[float, str]], t_end: float):
    """Per-item times from the provider's item-start marks."""
    bounds = [t0] + [t for t, _ in marks[1:]] + [t_end]
    return [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]


class Oracle:
    """Brute-force ranking over a store's entries, kept apart from the engine.

    Its index is the provider's embedding of each restatement, normalized as
    the store does it, so a wrong stored vector shows as a wrong ranking too.
    """

    def __init__(self, provider: Provider, config, ids: list[str], texts: list[str]):
        self.provider, self.config = provider, config
        self.ids = ids
        self.texts = dict(zip(ids, texts))
        rows = [provider.embed_one(t) for t in texts]
        self.matrix = np.stack([v / float(np.linalg.norm(v)) for v in rows])

    def rank(self, question: str) -> list[tuple[str, float]]:
        """Max cosine over the plan queries, ties by insertion order, top_k."""
        queries = expected_plan_queries(question, self.config.query_cap)
        qv = self.provider.embed_texts(queries)
        best = np.maximum.reduce([self.matrix @ q for q in qv])
        order = np.lexsort((np.arange(len(best)), -best))[:self.config.top_k]
        return [(self.ids[i], float(best[i])) for i in order]


class Workload:
    setups = 3

    def __init__(self, seed: int, workdir: Path):
        import trimem
        from trimem import pipeline
        from trimem.prompts import seed_prompts

        self.trimem, self.pipeline = trimem, pipeline
        self.seed = seed
        self.workdir = workdir
        self.prompts = seed_prompts()
        self.provider = Provider(seed)
        self.backend = BenchBackend(self.provider)
        self.router = trimem.BackendRouter(pipeline=self.backend)
        self.logs = LogCounter()
        self.bytes_per_entry = 0.0

    def close(self):
        logging.getLogger("trimem").removeHandler(self.logs)

    def _persist_and_load(self, store, name: str):
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        store.persist(path)
        loaded = self.trimem.MemoryStore.load(path)
        return path, loaded


# -- ingest ------------------------------------------------------------------

class Ingest(Workload):
    """build_store + persist over multi-session corpora, 20 ms / 5 ms waits."""

    setups = 5
    corpora = 48
    turns = 200
    stored_bytes = stored_entries = 0

    def prepare(self):
        self.paths = []
        for i in range(self.corpora):
            doc = gen.make_corpus_doc(self.seed * 1000 + i, self.turns)
            path = self.workdir / f"corpus-{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths.append(path)
        self.backend.chat_delay = CHAT_DELAY
        self.backend.embed_delay = EMBED_DELAY

    def setup(self):
        # read and validate the corpora as `trimem build` does, then warm the
        # write path with one build, persist and load. The build waits on the
        # provider like the measured ones, so that host CPU-speed swings,
        # which reach 1.5x on a shared 2-core machine, move set-up time only
        # by their share of it.
        self.docs = [self.trimem.load_corpus(p) for p in self.paths]
        store = self.pipeline.build_store(self.docs[0], self.prompts, self.router)
        self._persist_and_load(store, "warmup")
        return []

    def op(self, i: int) -> Op:
        from trimem import SegmentationConfig

        corpus = self.docs[i % len(self.docs)]
        windows = self.trimem.window_count(corpus.turn_count, 40, 38)
        out = self.workdir / "store"
        shutil.rmtree(out, ignore_errors=True)
        self.backend.reset_log()
        dropped = self.logs.counts["dropped"]
        t0 = time.perf_counter()
        try:
            store = self.pipeline.build_store(corpus, self.prompts, self.router,
                                              SegmentationConfig())
            t_built = time.perf_counter()
            store.persist(out)
            t_end = time.perf_counter()
        except Exception as exc:  # an engine failure fails every window
            return Op(windows, time.perf_counter() - t0, [], [f"ingest: {exc!r}"])
        marks = self.backend.marks
        op = Op(len(marks), t_end - t0, _item_latencies(t0, marks, t_built),
                turns=corpus.turn_count)
        infos = self.backend.infos
        op.proposed = sum(len(x["valid"]) + x["invalid"] for x in infos["extraction"])
        op.check = partial(self._check, store, out, windows, marks, infos,
                           self.logs.counts["dropped"] - dropped)
        op.output = ([store.entries[e] for e in store.insertion_order],
                     store.profile_history)
        self.stored_bytes += dir_bytes(out)
        self.stored_entries += len(store)
        self.bytes_per_entry = self.stored_bytes / max(1, self.stored_entries)
        return op

    def _check(self, store, path, windows, marks, infos, dropped) -> list[str]:
        errors = []
        if len(marks) != windows:
            errors.append(f"{len(marks)} extraction calls for {windows} windows")
        expected, seen = [], set()
        for info in infos["extraction"]:
            for text in info["valid"]:
                if text not in seen:
                    seen.add(text)
                    expected.append(text)
        got = [store.entries[e].lossless_restatement for e in store.insertion_order]
        if got != expected:
            errors.append(f"entries: {len(got)} stored, {len(expected)} emitted")
        invalid = sum(x["invalid"] for x in infos["extraction"])
        if dropped != invalid:
            errors.append(f"dropped {dropped} entries, provider emitted {invalid} bad")
        versions: dict[str, int] = {}
        for profile in store.profile_history:
            versions[profile.entity_key] = versions.get(profile.entity_key, 0) + 1
            if profile.version != versions[profile.entity_key]:
                errors.append(f"profile chain of {profile.entity_key} broken")
        for entry_id in store.insertion_order:
            vec = self.provider.embed_one(store.entries[entry_id].lossless_restatement)
            vec = vec / float(np.linalg.norm(vec))
            if store.vector_of(entry_id).tobytes() != vec.tobytes():
                errors.append(f"{entry_id} is not stored with its own embedding")
                break
        if len(store.profile_history) != len(infos["profile"]):
            errors.append(f"{len(store.profile_history)} profile versions, "
                          f"provider sent {len(infos['profile'])}")
        try:
            store.verify_anchors()
            loaded = self.trimem.MemoryStore.load(path)
        except Exception as exc:
            return errors + [f"anchors or load: {exc!r}"]
        if [loaded.entries[e] for e in loaded.insertion_order] != \
                [store.entries[e] for e in store.insertion_order]:
            errors.append("persist/load changed the entries")
        if any(loaded.vector_of(e).tobytes() != store.vector_of(e).tobytes()
               for e in store.insertion_order):
            errors.append("persist/load changed vector bytes")
        if loaded.profile_history != store.profile_history:
            errors.append("persist/load changed the profiles")
        return errors


# -- answer-20k --------------------------------------------------------------

class Answer20k(Workload):
    """answer_question over a 20,000-entry store at dim 384, no provider delay."""

    entries = 20_000
    turns = 10_000
    questions = 400
    batch = 20

    def prepare(self):
        doc = gen.make_corpus_doc(self.seed, self.turns)
        self.corpus_path = self.workdir / "corpus.json"
        self.corpus_path.write_text(json.dumps(doc), encoding="utf-8")
        self.facts = gen.make_entry_facts(self.seed, self.entries, self.turns,
                                          self.batch)
        self.qa = gen.make_questions(self.seed + 1, self.facts, self.questions)
        self.config = self.trimem.RetrievalConfig()
        # the oracle's index is built from the generated facts, not the store:
        # unique restatements in insertion order, under the IDs the store gives
        texts = list(dict.fromkeys(fact.text for fact in self.facts))
        self.oracle = Oracle(self.provider, self.config,
                             [f"e{i + 1:06d}" for i in range(len(texts))], texts)
        self.profiles = self._profiles()

    def _profiles(self):
        from trimem.profiles import EntityProfile, parse_profile_text

        out = []
        for person in gen.PERSONS:
            facts = [f.text for f in self.facts[:400] if f.person == person]
            name, sections = parse_profile_text(build_profile(person, facts))
            out.append(EntityProfile(entity_key=person.casefold(), display_name=name,
                                     sections=sections, version=1))
        return out

    def _entry(self, fact: gen.Fact, index: int):
        from trimem import MemoryEntry

        persons = {fact.person} | ({fact.partner} if fact.partner else set())
        sources = {fact.turn_id} | ({fact.turn_id + 1} if fact.turn_id < self.turns
                                    else set())
        return MemoryEntry(
            lossless_restatement=fact.text,
            keywords=frozenset({fact.person, fact.obj, fact.place}),
            event_time=f"{fact.date}T12:00:00", location=fact.place,
            persons=frozenset(persons), entities=frozenset({fact.obj}),
            topic=f"{fact.verb} {fact.obj}", source_dialogue_ids=frozenset(sources),
            origin_window=index // self.batch + 1)

    def setup(self):
        # the `trimem build` -> `trimem answer` path: insert, persist, load
        store = self.trimem.MemoryStore.for_corpus(
            self.trimem.load_corpus(self.corpus_path))
        entries = [self._entry(f, i) for i, f in enumerate(self.facts)]
        for start in range(0, len(entries), self.batch):
            store.insert_entries(entries[start:start + self.batch], self.backend)
        for profile in self.profiles:
            store.add_profile(profile)
        store.seal()
        path, self.store = self._persist_and_load(store, "store")
        self.bytes_per_entry = dir_bytes(path) / len(self.store)
        errors = []
        if len(self.store) != len(self.oracle.ids):
            errors.append(f"store has {len(self.store)} entries, "
                          f"{len(self.oracle.ids)} distinct were inserted")
        return errors

    def op(self, i: int) -> Op:
        item = self.qa[i % len(self.qa)]
        question = item["question"]
        t0 = time.perf_counter()
        try:
            result, ctx = self.pipeline.answer_question(
                question, self.store, self.prompts, self.router, self.config)
        except Exception as exc:
            return Op(1, time.perf_counter() - t0, [], [f"answer: {exc!r}"])
        busy = time.perf_counter() - t0
        ranked = [(e.entry_id, score) for e, score in ctx.ranked_entries]
        op = Op(1, busy, [busy * 1e3], output=(ranked, result.answer_text))
        op.check = partial(self._check, question, ranked, result.answer_text,
                           ctx.token_cost, list(self.backend.last_embed))
        return op

    def _check(self, question, ranked, answer_text, token_cost, searched):
        want = self.oracle.rank(question)
        errors = check_ranking(ranked, want)
        queries = expected_plan_queries(question, self.config.query_cap)
        if searched != queries:
            errors.append(f"searched {searched}, planned {queries}")
        if answer_text != answer_for(question, self.oracle.texts[want[0][0]]):
            errors.append(f"answer {answer_text!r} for {question!r}")
        if token_cost <= 0:
            errors.append("empty context")
        return errors


def check_ranking(got, want, tol: float = 1e-6) -> list[str]:
    """Compare a ranked (entry_id, score) list with the oracle's."""
    if [e for e, _ in got] != [e for e, _ in want]:
        for rank, (g, w) in enumerate(zip(got, want)):
            if g[0] != w[0]:
                return [f"rank {rank}: {g[0]} where the oracle has {w[0]}"]
        return [f"{len(got)} ranked entries, the oracle has {len(want)}"]
    for (e, g), (_, w) in zip(got, want):
        if abs(g - w) > tol:
            return [f"{e}: score {g!r}, the oracle has {w!r}"]
    return []


# -- eval-rtt ----------------------------------------------------------------

class EvalRtt(Workload):
    """run_eval over a QA set against a ~600-entry store, 20 ms / 5 ms waits."""

    setups = 3
    turns = 1200
    questions = 400
    batch = 20

    def prepare(self):
        doc = gen.make_corpus_doc(self.seed, self.turns)
        self.corpus_path = self.workdir / "corpus.json"
        self.corpus_path.write_text(json.dumps(doc), encoding="utf-8")
        qa = gen.make_questions(self.seed + 1, gen.corpus_facts(doc), self.questions)
        self.qa = [self.pipeline.QaItem.from_dict(rec) for rec in qa]
        self.config = self.trimem.RetrievalConfig()
        self.backend.chat_delay = CHAT_DELAY
        self.backend.embed_delay = EMBED_DELAY

    def setup(self):
        # build, persist and load as `trimem build` + `trimem eval` do; the
        # build waits on the provider, as in ingest, to keep set-up steady
        corpus = self.trimem.load_corpus(self.corpus_path)
        store = self.pipeline.build_store(corpus, self.prompts, self.router)
        path, self.store = self._persist_and_load(store, "store")
        self.bytes_per_entry = dir_bytes(path) / len(self.store)
        self.oracle = None  # built untimed, at the first check
        return [] if len(self.store) > 0 else ["empty store"]

    def op(self, i: int) -> Op:
        from trimem import metrics

        nbatch = len(self.qa) // self.batch
        batch = self.qa[(i % nbatch) * self.batch:][:self.batch]
        evidence = {item.question: set(item.evidence) for item in batch}
        self.backend.reset_log()
        t0 = time.perf_counter()
        try:
            records = self.pipeline.run_eval(batch, self.store, self.prompts,
                                             self.router, self.config)
            t_eval = time.perf_counter()
            report = metrics.build_report(records, evidence=evidence)
            t_end = time.perf_counter()
        except Exception as exc:
            return Op(len(batch), time.perf_counter() - t0, [], [f"eval: {exc!r}"])
        marks = self.backend.marks
        op = Op(len(batch), t_end - t0, _item_latencies(t0, marks, t_eval))
        op.output = ([r.detailed_record() for r in records], report)
        verdicts = [x["verdict"] for x in self.backend.infos["judge"]]
        op.check = partial(self._check, batch, records, report, len(marks), verdicts)
        return op

    def _check(self, batch, records, report, started, verdicts) -> list[str]:
        if len(records) != len(batch) or started != len(batch):
            return [f"{len(records)} records, {started} questions started, "
                    f"for {len(batch)} questions"]
        if self.oracle is None:
            ids = list(self.store.insertion_order)
            self.oracle = Oracle(self.provider, self.config, ids,
                                 [self.store.entries[e].lossless_restatement
                                  for e in ids])
        errors = []
        for item, record in zip(batch, records):
            want = [e for e, _ in self.oracle.rank(item.question)]
            sources = [sorted(self.store.entries[e].source_dialogue_ids) for e in want]
            if record.retrieved_src_sets != sources:
                errors.append(f"retrieved sources for {item.question!r} differ "
                              "from the oracle's ranking")
            if record.prediction != answer_for(item.question,
                                               self.oracle.texts[want[0]]):
                errors.append(f"answer {record.prediction!r} for {item.question!r}")
        if [r.judge_score for r in records] != verdicts:
            errors.append("judge scores differ from the provider's verdicts")
        counts = sum(c["count"] for c in report["per_category"].values())
        if counts != len(batch) or report["overall"]["count"] != len(batch):
            errors.append(f"report counts {counts} for {len(batch)} questions")
        return errors


WORKLOADS = {"ingest": Ingest, "answer-20k": Answer20k, "eval-rtt": EvalRtt}
