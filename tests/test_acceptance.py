"""Acceptance suite: the eight release gates, fully offline.

Each criterion is one test (or a small group), with independent oracles
implemented here rather than imported from the package under test.
"""
import json
import math
import os
import random
import re
import string
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trimem.backend import BackendRouter, ScriptedBackend, hash_embedding
from trimem.cli import main as cli_main
from trimem.corpus import (
    DialogueCorpus,
    DialogueTurn,
    SegmentationConfig,
    segment,
)
from trimem.errors import EmptyRequiredSet
from trimem.evolution import PromptSet, replay_gradients, evolve
from trimem.extraction import MemoryEntry
from trimem.metrics import bleu, coverage, hit_at_k, token_f1
from trimem.prompts import load_stopwords, slots
from trimem.retrieval import SearchPlan, retrieve
from trimem.store import MemoryStore, RetrievalConfig

DATA = Path(__file__).parent / "data"


# =====================================================================
# Criterion 1: segmentation conformance (randomized property suite)
# =====================================================================

def test_criterion_1_segmentation_conformance():
    started = time.monotonic()
    big = tuple(DialogueTurn(turn_id=i, session_id=0, speaker="A", text=str(i))
                for i in range(1, 2001))
    rng = random.Random(11)
    cases = [(300, 40, 38), (40, 40, 38), (1, 40, 38), (39, 40, 38)]
    while len(cases) < 1000:
        t = rng.randint(1, 2000)
        l = rng.randint(1, 120)
        s = rng.randint(1, l)
        cases.append((t, l, s))

    for t, l, s in cases:
        corpus = DialogueCorpus(corpus_id="c", turns=big[:t])
        windows = segment(corpus, SegmentationConfig(window_size=l, stride=s))
        expected = max(math.ceil((t - l) / s) + 1, 1)
        assert len(windows) == expected, (t, l, s)
        # coverage: every turn appears in at least one window, ends align
        assert windows[0].first_turn == 1
        assert windows[-1].last_turn == t
        covered = 0
        for i, w in enumerate(windows, 1):
            assert w.first_turn == (i - 1) * s + 1
            assert w.last_turn == min(t, (i - 1) * s + l)
            assert w.last_turn - w.first_turn + 1 <= l
            assert covered >= w.first_turn - 1  # no gap before this window
            covered = max(covered, w.last_turn)
        assert covered == t
        # overlap: every non-final window is full, so consecutive windows
        # share exactly l - s turns
        for prev, nxt in zip(windows, windows[1:]):
            assert prev.last_turn - prev.first_turn + 1 == l
            assert prev.last_turn - nxt.first_turn + 1 == l - s

    # fixed cases restated explicitly
    corpus = DialogueCorpus(corpus_id="c", turns=big[:300])
    assert len(segment(corpus, SegmentationConfig(40, 38))) == 8
    corpus = DialogueCorpus(corpus_id="c", turns=big[:40])
    assert len(segment(corpus, SegmentationConfig(40, 38))) == 1
    assert time.monotonic() - started < 5.0


# =====================================================================
# Criterion 2: retrieval oracle equivalence
# =====================================================================

def oracle_merge(store, queries, per_query_k, top_k):
    """Exhaustive per-query top-k with max-merge; pure python loops.

    Scores reuse the store's matrix product so the comparison is exact to
    the bit: the logic under test is the ranking, truncation, and
    max-merge, which this oracle re-derives independently.
    """
    matrix = np.stack([store.vector_of(e) for e in store.insertion_order])
    best = {}
    for q in queries:
        row_scores = matrix @ hash_embedding(q)
        scored = [(entry_id, float(row_scores[row]), row)
                  for row, entry_id in enumerate(store.insertion_order)]
        scored.sort(key=lambda item: (-item[1], item[2]))
        for entry_id, score, _ in scored[:per_query_k]:
            if entry_id not in best or score > best[entry_id]:
                best[entry_id] = score
    position = {e: i for i, e in enumerate(store.insertion_order)}
    return sorted(best, key=lambda e: (-best[e], position[e]))[:top_k]


def test_criterion_2_retrieval_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(23)
    vocabulary = [f"w{i}" for i in range(400)]
    backend = ScriptedBackend()
    for case in range(200):
        n_entries = rng.randint(3, 200)
        n_turns = rng.randint(n_entries, n_entries + 20)
        turns = [DialogueTurn(turn_id=i, session_id=0, speaker="A", text=f"t{i}")
                 for i in range(1, n_turns + 1)]
        store = MemoryStore(turns=turns)
        texts = set()
        entries = []
        while len(entries) < n_entries:
            text = " ".join(rng.choices(vocabulary, k=rng.randint(3, 8)))
            if text in texts:
                continue
            texts.add(text)
            entries.append(MemoryEntry(
                lossless_restatement=text,
                source_dialogue_ids=frozenset({rng.randint(1, n_turns)})))
        store.insert_entries(entries, backend)
        # inject exact-duplicate vectors in a third of the cases to force ties
        if case % 3 == 0 and n_entries >= 4:
            src = rng.randrange(n_entries - 1)
            store._vectors[src + 1] = store._vectors[src].copy()

        queries = [" ".join(rng.choices(vocabulary, k=4))
                   for _ in range(rng.randint(1, 3))]
        top_k = rng.randint(1, 40)
        per_query_k = rng.randint(1, top_k)
        config = RetrievalConfig(top_k=top_k, per_query_k=per_query_k,
                                 anchor_count=rng.randint(1, 5))
        plan = SearchPlan(original_question=queries[0], queries=tuple(queries))
        ctx = retrieve(plan, store, config, backend)

        expected = oracle_merge(store, queries, per_query_k, top_k)
        assert [e.entry_id for e, _ in ctx.ranked_entries] == expected, case
        # scores are non-increasing and match the oracle's arithmetic
        scores = [s for _, s in ctx.ranked_entries]
        assert scores == sorted(scores, reverse=True)
    assert time.monotonic() - started < 30.0


# =====================================================================
# Criterion 3: metric oracles
# =====================================================================

def _tokens(text):
    return re.findall(r"\w+", text.lower())


def _oracle_f1(pred, ref):
    p, r = Counter(_tokens(pred)), Counter(_tokens(ref))
    if not p and not r:
        return 1.0
    if not p or not r:
        return 0.0
    overlap = sum(min(c, r[t]) for t, c in p.items())
    if overlap == 0:
        return 0.0
    precision, recall = overlap / sum(p.values()), overlap / sum(r.values())
    return 2 * precision * recall / (precision + recall)


def _oracle_coverage(ref, hay, stop):
    required = {t for t in _tokens(ref) if t not in stop}
    if not required:
        return None
    return len(required & set(_tokens(hay))) / len(required)


BLEU_GOLDENS = [
    ("the cat sat on the mat", "the cat sat on the mat", 1.0),
    ("the cat sat", "the cat sat on the mat", 0.36787944117144233),
    ("a b c d e f", "a c b d f e", 0.3021375397356768),
    ("hello", "hello world", 0.36787944117144233),
    ("completely different words", "nothing in common here", 0.24840753130578647),
    ("Pale sage green", "pale sage green!", 1.0),
    ("No, she dislikes the outdoors", "Likely yes", 0.2295748846661433),
]


def test_criterion_3_metric_oracles():
    started = time.monotonic()
    rng = random.Random(37)
    alphabet = string.ascii_lowercase + string.digits + "    .,!?'"
    stop = load_stopwords()
    for _ in range(500):
        a = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
        b = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
        assert token_f1(a, b) == _oracle_f1(a, b)
        expected_cov = _oracle_coverage(a, b, stop)
        if expected_cov is None:
            with pytest.raises(EmptyRequiredSet):
                coverage(a, b)
        else:
            assert coverage(a, b) == expected_cov

    # hit@k against the nested-loop oracle on randomized logs
    for _ in range(100):
        questions = [f"q{i}" for i in range(rng.randint(1, 10))]
        log = {q: [[rng.randint(1, 30) for _ in range(rng.randint(0, 3))]
                   for _ in range(rng.randint(1, 8))] for q in questions}
        evidence = {q: [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
                    for q in questions}
        k = rng.randint(1, 8)
        hits = 0
        for q in questions:
            covered = set()
            for src in log[q][:k]:
                for t in src:
                    covered.add(t)
            if any(t in covered for t in evidence[q]):
                hits += 1
        assert hit_at_k(log, evidence, k) == hits / len(questions)

    for pred, ref, expected in BLEU_GOLDENS:
        assert bleu(pred, ref) == pytest.approx(expected, abs=1e-6)
    assert time.monotonic() - started < 10.0


# =====================================================================
# Criterion 4: anchor fidelity on the fixture corpus
# =====================================================================

def test_criterion_4_anchor_fidelity(built_store, fixture_corpus, tmp_path):
    source = {t.turn_id: t for t in fixture_corpus.turns}

    def check(store):
        store.verify_anchors()  # zero dangling anchors
        for entry_id, turns in store.recover_dialogue(store.insertion_order):
            for turn in turns:
                original = source[turn.turn_id]
                assert turn == original
                assert turn.text.encode() == original.text.encode()

    assert len(built_store) == 60
    check(built_store)
    built_store.persist(tmp_path / "s")
    check(MemoryStore.load(tmp_path / "s"))


# =====================================================================
# Criterion 5: end-to-end golden run, byte-for-byte
# =====================================================================

def test_criterion_5_golden_run(work_dir):
    started = time.monotonic()
    assert cli_main(["build", "--corpus", "corpus.json", "--store", "store",
                     "--scripted", "fixture.jsonl"]) == 0
    manifest = json.loads((work_dir / "store" / "manifest.json").read_text())
    assert manifest["entry_count"] == 60
    assert manifest["profile_versions"] == 16
    assert cli_main(["eval", "--store", "store", "--qa", "qa.jsonl",
                     "--scripted", "fixture.jsonl", "--out", "eval"]) == 0
    got = (work_dir / "eval" / "report.json").read_bytes()
    assert got == (DATA / "golden_report.json").read_bytes()
    detailed = (work_dir / "eval" / "detailed_results.jsonl").read_bytes()
    assert detailed == (DATA / "golden_detailed.jsonl").read_bytes()
    assert time.monotonic() - started < 60.0


# =====================================================================
# Criterion 6: evolution loop
# =====================================================================

def test_criterion_6_evolution_loop(fixture_corpus, qa_items, tmp_path):
    backend = ScriptedBackend.from_fixture_file(DATA / "evolve_fixture.jsonl")
    router = BackendRouter(pipeline=backend)
    prompt_dir = tmp_path / "prompts"
    trajectory = evolve(fixture_corpus, qa_items, rounds=2, router=router,
                        prompt_dir=prompt_dir)

    losses = [loss for _, loss in trajectory]
    assert len(trajectory) == 3
    assert losses[1] < losses[0]  # strictly decreasing round 0 -> 1
    rounds = [ps.round for ps, _ in trajectory]
    parents = [ps.parent_round for ps, _ in trajectory]
    assert rounds == [0, 1, 2]
    assert parents == [None, 0, 1]
    for ps, _ in trajectory:
        for ph in slots(PromptSet.seed().extraction):
            assert ph in ps.extraction
        for ph in slots(PromptSet.seed().profile):
            assert ph in ps.profile

    # byte-exact replay of the full chain from round 0 + the gradient log
    replayed = replay_gradients(prompt_dir)
    assert len(replayed) == 3
    for ps in replayed:
        persisted = PromptSet.load_round(prompt_dir, ps.round)
        assert ps.extraction.encode() == persisted.extraction.encode()
        assert ps.profile.encode() == persisted.profile.encode()
        assert ps.answer.encode() == persisted.answer.encode()


# =====================================================================
# Criterion 7: token-budget sanity
# =====================================================================

def test_criterion_7_token_budget():
    report = json.loads((DATA / "golden_report.json").read_text())
    mean_cost = report["overall"]["mean_token_cost"]
    # wide tolerance by design: the estimator is approximate, and the gate
    # only needs the default context (K=25, 5 anchors, 2 profiles) to land
    # in the ~1.2k-token regime rather than match an exact tokenizer
    assert 600 <= mean_cost <= 2000


def test_criterion_7_token_budget_live(built_store, qa_items):
    backend = ScriptedBackend.from_fixture_file(DATA / "fixture.jsonl")
    costs = []
    for item in qa_items:
        plan = SearchPlan(original_question=item.question,
                          queries=(item.question,))
        ctx = retrieve(plan, built_store, RetrievalConfig(), backend)
        costs.append(ctx.token_cost)
    assert 600 <= sum(costs) / len(costs) <= 2000


# =====================================================================
# Criterion 8: optional live reproduction (not gated)
# =====================================================================

@pytest.mark.skipif(not os.environ.get("TRIMEM_API_BASE"),
                    reason="live reproduction requires a real backend; "
                           "see the manual protocol in README.md")
def test_criterion_8_live_ablation_protocol(tmp_path):
    """Manual protocol, run only when TRIMEM_API_BASE is configured.

    With a real corpus at $TRIMEM_LIVE_CORPUS and QA set at
    $TRIMEM_LIVE_QA, sweep K and inspect the qualitative shape: quality
    should peak near K=25, and evolution gains should flatten near
    rounds=4.
    """
    corpus = os.environ["TRIMEM_LIVE_CORPUS"]
    qa = os.environ["TRIMEM_LIVE_QA"]
    assert cli_main(["build", "--corpus", corpus,
                     "--store", str(tmp_path / "store")]) == 0
    assert cli_main(["ablate", "--store", str(tmp_path / "store"), "--qa", qa,
                     "--knob", "top_k", "--values", "5,15,25,50",
                     "--out", str(tmp_path / "sweep")]) == 0
