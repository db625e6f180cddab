import math
import re
import string
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from trimem.errors import EmptyRecordSet, EmptyRequiredSet, KeyMismatch
from trimem.metrics import (
    CATEGORY_NAMES,
    EvalRecord,
    bleu,
    build_report,
    coverage,
    hit_at_k,
    stopword_list_hash,
    token_f1,
    write_report,
)
from trimem.prompts import load_stopwords

words = st.lists(st.sampled_from("cat dog sat mat ran 42 the a".split()),
                 min_size=0, max_size=12).map(" ".join)
noisy = st.text(alphabet=string.ascii_lowercase + string.digits + " .,!?'",
                min_size=0, max_size=60)


# -- independent oracles ----------------------------------------------

def oracle_tokens(s):
    return re.findall(r"\w+", s.lower())


def oracle_f1(pred, ref):
    p, r = Counter(oracle_tokens(pred)), Counter(oracle_tokens(ref))
    if not p and not r:
        return 1.0
    if not p or not r:
        return 0.0
    overlap = sum(min(c, r[t]) for t, c in p.items())
    if overlap == 0:
        return 0.0
    precision, recall = overlap / sum(p.values()), overlap / sum(r.values())
    return 2 * precision * recall / (precision + recall)


def oracle_bleu(pred, ref, max_n=4):
    p, r = oracle_tokens(pred), oracle_tokens(ref)
    if not p or not r:
        return 0.0
    top_n = min(max_n, len(p))
    prod = 1.0
    for n in range(1, top_n + 1):
        pg = Counter(tuple(p[i:i + n]) for i in range(len(p) - n + 1))
        rg = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
        total = sum(pg.values())
        matches = sum(min(c, rg[g]) for g, c in pg.items())
        p_n = matches / total if matches > 0 else 1.0 / (total + 1)
        prod *= p_n ** (1.0 / top_n)
    brevity = 1.0 if len(p) > len(r) else math.exp(1 - len(r) / len(p))
    return brevity * prod


def oracle_coverage(ref, haystack, stop):
    required = {t for t in oracle_tokens(ref) if t not in stop}
    hay = set(oracle_tokens(haystack))
    return len(required & hay) / len(required)


# -- token f1 ----------------------------------------------------------

def test_f1_edge_cases():
    assert token_f1("", "") == 1.0
    assert token_f1("x", "") == 0.0
    assert token_f1("", "x") == 0.0
    assert token_f1("same words", "same words") == 1.0
    assert token_f1("abc", "xyz") == 0.0


def test_f1_is_multiset():
    # "the the" vs "the": overlap 1, precision 1/2, recall 1
    assert token_f1("the the", "the") == pytest.approx(2 / 3)


@settings(max_examples=300, deadline=None)
@given(words, words)
def test_f1_matches_oracle(a, b):
    assert token_f1(a, b) == pytest.approx(oracle_f1(a, b), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(noisy, noisy)
def test_f1_matches_oracle_noisy(a, b):
    assert token_f1(a, b) == pytest.approx(oracle_f1(a, b), abs=1e-12)


# -- bleu --------------------------------------------------------------

BLEU_GOLDENS = [
    ("the cat sat on the mat", "the cat sat on the mat", 1.0),
    ("the cat sat", "the cat sat on the mat", 0.36787944117144233),
    ("a b c d e f", "a c b d f e", 0.3021375397356768),
    ("hello", "hello world", 0.36787944117144233),
    ("completely different words", "nothing in common here", 0.24840753130578647),
    ("Pale sage green", "pale sage green!", 1.0),
    ("No, she dislikes the outdoors", "Likely yes", 0.2295748846661433),
]


@pytest.mark.parametrize("pred,ref,expected", BLEU_GOLDENS)
def test_bleu_frozen_goldens(pred, ref, expected):
    assert bleu(pred, ref) == pytest.approx(expected, abs=1e-6)


def test_bleu_empty_sides():
    assert bleu("", "reference") == 0.0
    assert bleu("prediction", "") == 0.0


def test_bleu_short_prediction_limits_order():
    # |pred| = 2 < 4 -> only unigrams and bigrams are used
    assert bleu("the cat", "the cat sat") == pytest.approx(
        oracle_bleu("the cat", "the cat sat"), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(words, words)
def test_bleu_matches_oracle(a, b):
    assert bleu(a, b) == pytest.approx(oracle_bleu(a, b), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(words, words)
def test_bleu_bounded(a, b):
    assert 0.0 <= bleu(a, b) <= 1.0


# -- hit@k -------------------------------------------------------------

def test_hit_at_k_nested_loop_oracle():
    log = {
        "q1": [[1, 2], [3], [4]],
        "q2": [[10], [11], [12]],
        "q3": [[7], [8]],
    }
    evidence = {"q1": [3], "q2": [99], "q3": [8]}

    def oracle(log, evidence, k):
        hits = 0
        for q in log:
            covered = set()
            for src in log[q][:k]:
                for t in src:
                    covered.add(t)
            if any(t in covered for t in evidence[q]):
                hits += 1
        return hits / len(log)

    for k in (1, 2, 3, 5):
        assert hit_at_k(log, evidence, k) == oracle(log, evidence, k)
    assert hit_at_k(log, evidence, 1) == pytest.approx(0.0)
    assert hit_at_k(log, evidence, 2) == pytest.approx(2 / 3)


def test_hit_at_k_key_mismatch():
    with pytest.raises(KeyMismatch):
        hit_at_k({"a": []}, {"b": []})
    with pytest.raises(EmptyRecordSet):
        hit_at_k({}, {})


# -- coverage ----------------------------------------------------------

def test_coverage_basics():
    stop = load_stopwords()
    assert coverage("Paris marathon", "She ran the Paris marathon.") == 1.0
    assert coverage("Paris marathon", "no relevant text") == 0.0
    assert coverage("Paris marathon", "only Paris appears") == 0.5


def test_coverage_requires_content_tokens():
    with pytest.raises(EmptyRequiredSet):
        coverage("the of and", "anything")


@settings(max_examples=200, deadline=None)
@given(noisy, noisy)
def test_coverage_matches_oracle(ref, hay):
    stop = load_stopwords()
    required = {t for t in oracle_tokens(ref) if t not in stop}
    if not required:
        with pytest.raises(EmptyRequiredSet):
            coverage(ref, hay)
    else:
        assert coverage(ref, hay) == pytest.approx(
            oracle_coverage(ref, hay, stop), abs=1e-12)


def test_stopword_hash_is_stable():
    assert stopword_list_hash() == "e1f0f73947115a4e"
    assert len(load_stopwords()) >= 100


# -- report ------------------------------------------------------------

def make_records():
    records = []
    for i, cat in enumerate([1, 1, 2, 3, 4]):
        records.append(EvalRecord(
            question=f"q{i}", prediction="a b", reference="a b", category=cat,
            f1=1.0 - 0.1 * i, bleu=0.5, judge_score=float(i % 2),
            token_cost=100 + i, context_coverage=0.5,
            retrieved_src_sets=[[i + 1]]))
    return records


def test_category_names():
    assert CATEGORY_NAMES == {1: "multi_hop", 2: "temporal",
                              3: "open_domain", 4: "single_hop"}


def test_build_report_means():
    records = make_records()
    report = build_report(records)
    assert report["overall"]["count"] == 5
    assert report["overall"]["f1"] == pytest.approx(
        sum(r.f1 for r in records) / 5)
    assert report["per_category"]["multi_hop"]["count"] == 2
    assert report["overall"]["mean_token_cost"] == pytest.approx(102.0)
    assert report["coverage"]["mean"] == pytest.approx(0.5)
    # overall mean equals the question-weighted average of category means
    weighted = sum(c["f1"] * c["count"] for c in report["per_category"].values())
    assert report["overall"]["f1"] == pytest.approx(weighted / 5)


def test_build_report_with_evidence_includes_hit_at_k():
    records = make_records()
    evidence = {r.question: [1] for r in records}
    report = build_report(records, evidence=evidence, hit_k=5)
    assert report["hit_at_k"]["k"] == 5
    assert report["hit_at_k"]["value"] == pytest.approx(1 / 5)


def test_build_report_empty_raises():
    with pytest.raises(EmptyRecordSet):
        build_report([])


def test_write_report_deterministic(tmp_path):
    records = make_records()
    report = build_report(records)
    write_report(report, records, tmp_path / "r1.json", tmp_path / "d1.jsonl")
    write_report(report, records, tmp_path / "r2.json", tmp_path / "d2.jsonl")
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "d1.jsonl").read_bytes() == (tmp_path / "d2.jsonl").read_bytes()


def test_detailed_record_shape():
    rec = make_records()[0]
    detailed = rec.detailed_record()
    assert set(detailed) == {"question", "answer", "reference", "category", "metrics"}
    assert set(detailed["metrics"]) == {"f1", "bleu", "rougeL_f", "bert_f1",
                                        "llm_judge_score", "llm_reasoning"}
    assert detailed["metrics"]["rougeL_f"] is None
