"""The benchmark's own tests.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

They run on small inputs in a scratch directory inside the checkout.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from provider import KINDS, BenchBackend, Provider, classify  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


class SmallAnswer(workloads.Answer20k):
    entries, turns, questions = 600, 400, 12


class SmallEval(workloads.EvalRtt):
    turns, questions, batch = 240, 12, 4


class SmallIngest(workloads.Ingest):
    corpora, turns = 2, 120


def _workdir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class GeneratedInputs(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for seed in (0, 7):
            self.assertEqual(json.dumps(gen.make_corpus_doc(seed, 300)),
                             json.dumps(gen.make_corpus_doc(seed, 300)))
            facts = gen.make_entry_facts(seed, 500, 200)
            self.assertEqual(facts, gen.make_entry_facts(seed, 500, 200))
            self.assertEqual(json.dumps(gen.make_questions(seed, facts, 50)),
                             json.dumps(gen.make_questions(seed, facts, 50)))
            a, b = Provider(seed, dim=32), Provider(seed, dim=32)
            self.assertEqual(a.table.tobytes(), b.table.tobytes())
            self.assertEqual(a.embed_one(facts[0].text).tobytes(),
                             b.embed_one(facts[0].text).tobytes())
        self.assertNotEqual(json.dumps(gen.make_corpus_doc(0, 300)),
                            json.dumps(gen.make_corpus_doc(1, 300)))

    def test_entry_facts_repeat_some_restatements(self):
        facts = gen.make_entry_facts(3, 2000, 500)
        self.assertLess(len({f.text for f in facts}), len(facts))


class ProviderReplies(unittest.TestCase):
    """Every reply the provider sends parses with trimem's own parsers."""

    @classmethod
    def setUpClass(cls):
        from trimem import load_corpus, segment, SegmentationConfig
        from trimem.prompts import render, seed_prompts

        cls.prompts = seed_prompts()
        cls.render = staticmethod(render)
        wd = _workdir("replies")
        doc = gen.make_corpus_doc(5, 80)
        (wd / "c.json").write_text(json.dumps(doc), encoding="utf-8")
        cls.window = segment(load_corpus(wd / "c.json"), SegmentationConfig())[0]
        cls.fact = gen.corpus_facts(doc)[0]

    def _prompt(self, kind: str) -> str:
        from trimem.corpus import render_window

        p, r = self.prompts, self.render
        question, reference, _ = gen.question_for(self.fact, 0)
        return {
            "extraction": r(p["extraction"], context="",
                            dialogue_text=render_window(self.window)),
            "profile": r(p["profile"], entity_name="ava",
                         facts=f"- {self.fact.text}", existing_profile="No profile yet."),
            "analysis": r(p["question_analysis"], query=question),
            "queries": r(p["query_generation"], original_query=question,
                         question_type="factual", key_entities="[]",
                         required_info="[]", relationships="[]",
                         minimal_queries_needed="2"),
            "key_info": r(p["key_info"], query=question),
            "answer": r(p["answer"], query=question,
                        context=f"[Structured Memory Entries]\n1. {self.fact.text}"),
            "judge": r(p["judge"], question=question, reference=reference,
                       prediction=reference),
        }[kind]

    def _parser(self, kind: str):
        from trimem import evolution, extraction, profiles, qa, retrieval

        return {
            "extraction": extraction.parse_entry_payload,
            "profile": profiles.parse_profile_text,
            "analysis": retrieval._parse_json_object,
            "queries": retrieval._parse_json_object,
            "key_info": retrieval._parse_json_object,
            "answer": qa._parse_answer_payload,
            "judge": evolution._parse_json_object,
        }[kind]

    def test_templates_classify_to_their_kind(self):
        for kind, _ in KINDS:
            self.assertEqual(classify(self._prompt(kind)), kind)

    def test_valid_replies_parse_and_garbled_ones_do_not(self):
        from trimem.errors import ParseFailure

        provider = Provider(1, dim=32)
        for kind, _ in KINDS:
            prompt = self._prompt(kind)
            text, faulted, _ = provider.reply(prompt, kind, repair=True)
            self.assertFalse(faulted)
            self.assertTrue(self._parser(kind)(text), kind)
            with self.assertRaises(ParseFailure, msg=kind):
                self._parser(kind)(provider._garbled(kind))

    def test_extraction_entries_validate_unless_faulted(self):
        from trimem.extraction import entry_from_record, parse_entry_payload, validate_entry

        provider = Provider(2, dim=32, entry_fault=0.5)
        text, _, info = provider.reply(self._prompt("extraction"), "extraction", True)
        records = parse_entry_payload(text)
        ok = [validate_entry(entry_from_record(r, 1), self.window)[0] is not None
              for r in records]
        self.assertEqual(sum(ok), len(info["valid"]))
        self.assertEqual(len(ok) - sum(ok), info["invalid"])
        self.assertGreater(info["invalid"], 0)

    def test_engine_accounting_counts_provider_calls(self):
        from trimem import ChatRequest

        backend = BenchBackend(Provider(1, dim=32))
        backend.complete(ChatRequest(prompt=self._prompt("judge")))
        backend.embed(["a b", "c d"])
        self.assertEqual(backend.usage.calls, 2)
        self.assertGreater(backend.usage.prompt_tokens, 0)


class EngineDefects(unittest.TestCase):
    """Known engine defects the workloads steer around; each test fails today."""

    @unittest.expectedFailure
    def test_repeat_inside_one_insert_batch_keeps_vectors_aligned(self):
        # MemoryStore.insert_entries embeds every not-yet-stored entry of a
        # batch, but a second copy of a restatement new in the same batch
        # skips its vector row, so each later entry of the batch is stored
        # with its predecessor's vector.
        from trimem import MemoryEntry, MemoryStore

        provider = Provider(1, dim=32)
        backend = BenchBackend(provider)
        texts = ["Ava sold the red kite at Maple Park on 2024-01-02.",
                 "Ben built the old clock at Pine Hollow on 2024-01-03."]
        store = MemoryStore()
        ids = store.insert_entries(
            [MemoryEntry(lossless_restatement=t, source_dialogue_ids=frozenset({1}))
             for t in (texts[0], texts[0], texts[1])], backend)
        want = provider.embed_one(texts[1])
        self.assertEqual(store.vector_of(ids[2]).tobytes(),
                         (want / float(np.linalg.norm(want))).tobytes())


class Oracle(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = SmallAnswer(4, _workdir("oracle"))
        cls.wl.prepare()
        cls.wl.setup()

    @classmethod
    def tearDownClass(cls):
        cls.wl.close()

    def test_engine_matches_oracle(self):
        op = self.wl.op(0)
        self.assertEqual(op.check(), [])

    def test_swapped_rank_is_flagged(self):
        op = self.wl.op(1)
        ranked, answer = op.output
        swapped = [ranked[1], ranked[0]] + ranked[2:]
        question = self.wl.qa[1]["question"]
        errors = self.wl._check(question, swapped, answer, 100,
                                list(self.wl.backend.last_embed))
        self.assertTrue(any("rank 0" in e for e in errors), errors)


class EvalOracle(unittest.TestCase):
    """eval-rtt checks each record's retrieval and answer against the oracle."""

    @classmethod
    def setUpClass(cls):
        cls.wl = SmallEval(4, _workdir("eval-oracle"))
        cls.wl.prepare()
        cls.wl.setup()
        cls.op = cls.wl.op(0)

    @classmethod
    def tearDownClass(cls):
        cls.wl.close()

    def _records(self):
        return self.op.check.args[1]

    def test_engine_matches_oracle(self):
        self.assertEqual(self.op.check(), [])

    def test_swapped_rank_is_flagged(self):
        record = self._records()[0]
        kept = record.retrieved_src_sets
        record.retrieved_src_sets = [kept[1], kept[0]] + kept[2:]
        try:
            errors = self.op.check()
        finally:
            record.retrieved_src_sets = kept
        self.assertTrue(any("retrieved sources" in e for e in errors), errors)

    def test_wrong_answer_is_flagged(self):
        record = self._records()[0]
        kept = record.prediction
        record.prediction = "nowhere in particular"
        try:
            errors = self.op.check()
        finally:
            record.prediction = kept
        self.assertTrue(any("answer" in e for e in errors), errors)


class Tracing(unittest.TestCase):
    """Tracing on and off give identical outputs, and spans add up."""

    def _both(self, cls, name):
        plain = cls(6, _workdir(name))
        plain.prepare()
        plain.setup()
        ops = [plain.op(i) for i in range(2)]
        plain.close()
        traced = cls(6, _workdir(name + "-traced"))
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        traced.backend.tracer = tracer
        try:
            traced.prepare()
            traced.setup()
            tracer.phase = "measure"
            traced_ops = [traced.op(i) for i in range(2)]
        finally:
            uninstall()
            traced.close()
        for a, b in zip(ops, traced_ops):
            self.assertEqual(a.output, b.output)
            self.assertEqual(a.errors, [])
        return tracer, traced_ops

    def test_eval_outputs_identical(self):
        tracer, ops = self._both(SmallEval, "eval")
        names = {s.name for s in tracer.spans}
        for name in ("pipeline.run_eval", "evolution.judge", "store.similarity_search",
                     "store.load", "backend.complete"):
            self.assertIn(name, names)
        busy = sum(op.busy_s for op in ops)
        roll = spans.Rollup(tracer.spans, "measure")
        covered = sum(roll.layers.values()) + sum(roll.glue.values())
        self.assertAlmostEqual(covered / busy, 1.0, delta=0.02)
        share = roll.unattributed({None: busy})
        self.assertAlmostEqual(share, sum(roll.glue.values()) / busy, delta=0.02)
        self.assertGreater(share, 0.0)

    def test_ingest_outputs_identical(self):
        tracer, _ = self._both(SmallIngest, "ingest")
        self.assertIn("extraction.extract_entries", {s.name for s in tracer.spans})

    def test_uninstall_restores_the_engine(self):
        from trimem import pipeline
        from trimem.store import MemoryStore

        before = (pipeline.build_store, MemoryStore.__dict__["load"],
                  MemoryStore.similarity_search)
        spans.install(spans.Tracer())()
        self.assertEqual(before, (pipeline.build_store, MemoryStore.__dict__["load"],
                                  MemoryStore.similarity_search))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.E2E_UNITS)
        self.assertLessEqual({w["name"] for w in bench["workloads"]},
                             set(workloads.WORKLOADS))
        tracer = spans.Tracer()
        names = spans.layer_metrics(tracer, 1, 1, {"0": 1.0}, (0, 0), {}, 0.0, 0)
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(names))
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], spans.unit_of(m["name"]))

    def test_exits_nonzero_without_the_engine(self):
        bare = _workdir("bare")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ingest",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)


if __name__ == "__main__":
    unittest.main()
