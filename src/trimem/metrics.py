"""Deterministic evaluation metrics and the per-category report.

Normalization for token-level metrics is frozen by golden tests:
lowercase, unicode word boundaries, digits kept, punctuation dropped.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import EmptyRecordSet, EmptyRequiredSet, KeyMismatch
from .prompts import load_stopwords
from .store import write_json, write_text

CATEGORY_NAMES = {1: "multi_hop", 2: "temporal", 3: "open_domain", 4: "single_hop"}

_WORD_RE = re.compile(r"\w+", re.UNICODE)


def normalize_tokens(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def token_f1(prediction: str, reference: str) -> float:
    """Multiset token-overlap F1. Both empty -> 1.0; exactly one empty -> 0.0."""
    pred = Counter(normalize_tokens(prediction))
    ref = Counter(normalize_tokens(reference))
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    overlap = sum((pred & ref).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(pred.values())
    recall = overlap / sum(ref.values())
    return 2 * precision * recall / (precision + recall)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(prediction: str, reference: str, max_n: int = 4) -> float:
    """Smoothed sentence BLEU with add-one smoothing on zero n-gram counts.

    Uniform weights over n = 1..min(max_n, |prediction|); standard brevity
    penalty. Empty prediction scores 0.0.
    """
    pred = normalize_tokens(prediction)
    ref = normalize_tokens(reference)
    if not pred or not ref:
        return 0.0
    top_n = min(max_n, len(pred))
    log_precision = 0.0
    for n in range(1, top_n + 1):
        pred_ngrams = _ngram_counts(pred, n)
        ref_ngrams = _ngram_counts(ref, n)
        total = sum(pred_ngrams.values())
        matches = sum((pred_ngrams & ref_ngrams).values())
        if matches == 0:
            p_n = 1.0 / (total + 1)
        else:
            p_n = matches / total
        log_precision += math.log(p_n) / top_n
    brevity = 1.0 if len(pred) > len(ref) else math.exp(1 - len(ref) / len(pred))
    return brevity * math.exp(log_precision)


def hit_at_k(retrieval_log: dict, evidence: dict, k: int = 5) -> float:
    """Fraction of questions whose top-k retrieved entries cover gold evidence.

    ``retrieval_log`` maps each question to its ranked list of per-entry
    source turn-id sets; ``evidence`` maps each question to its gold
    turn-id set. Coverage at k is the union of the first k sets.
    """
    if set(retrieval_log) != set(evidence):
        raise KeyMismatch("retrieval log and evidence keys differ")
    if not retrieval_log:
        raise EmptyRecordSet("no questions")
    hits = 0
    for question, ranked_src_sets in retrieval_log.items():
        covered: set[int] = set()
        for src in list(ranked_src_sets)[:k]:
            covered |= set(src)
        if covered & set(evidence[question]):
            hits += 1
    return hits / len(retrieval_log)


def coverage(reference_answer: str, haystack_text: str) -> float:
    """Set coverage of the reference's content tokens by the haystack."""
    stopwords = load_stopwords()
    required = {t for t in normalize_tokens(reference_answer) if t not in stopwords}
    if not required:
        raise EmptyRequiredSet("reference has no content tokens after stopword removal")
    haystack = set(normalize_tokens(haystack_text))
    return len(required & haystack) / len(required)


def stopword_list_hash() -> str:
    return hashlib.sha256(
        "\n".join(sorted(load_stopwords())).encode("utf-8")).hexdigest()[:16]


@dataclass
class EvalRecord:
    question: str
    prediction: str
    reference: str
    category: int
    f1: float = 0.0
    bleu: float = 0.0
    judge_score: float = 0.0
    judge_reasoning: str = ""
    token_cost: int = 0
    context_coverage: Optional[float] = None
    retrieved_src_sets: list = field(default_factory=list)

    def detailed_record(self) -> dict:
        return {
            "question": self.question,
            "answer": self.prediction,
            "reference": self.reference,
            "category": self.category,
            "metrics": {
                "f1": self.f1,
                "bleu": self.bleu,
                "rougeL_f": None,
                "bert_f1": None,
                "llm_judge_score": self.judge_score,
                "llm_reasoning": self.judge_reasoning,
            },
        }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _scores(rows: Sequence[EvalRecord]) -> dict:
    """The count of rows and their mean bleu, f1 and judge score."""
    return {"count": len(rows), **{name: _mean([getattr(r, name) for r in rows])
                                   for name in ("bleu", "f1", "judge_score")}}


def build_report(records: Sequence[EvalRecord],
                 evidence: Optional[dict] = None,
                 hit_k: int = 5,
                 metadata: Optional[dict] = None) -> dict:
    """Aggregate per-category and overall means into the report document.

    Overall means are question-weighted, so they equal the weighted average
    of per-category means by construction.
    """
    if not records:
        raise EmptyRecordSet("no evaluation records")
    per_category = {}
    for cat_id, cat_name in sorted(CATEGORY_NAMES.items()):
        rows = [r for r in records if r.category == cat_id]
        if rows:
            per_category[cat_name] = _scores(rows)
    report = {
        "per_category": per_category,
        "overall": {**_scores(records),
                    "mean_token_cost": _mean([r.token_cost for r in records])},
        "stopword_list_hash": stopword_list_hash(),
    }
    covs = [r.context_coverage for r in records if r.context_coverage is not None]
    if covs:
        report["coverage"] = {"mean": _mean(covs), "min": min(covs), "max": max(covs)}
    if evidence is not None:
        log = {r.question: r.retrieved_src_sets for r in records}
        report["hit_at_k"] = {"k": hit_k, "value": hit_at_k(log, evidence, hit_k)}
    report["metadata"] = metadata or {}
    return report


def write_report(report: dict, records: Sequence[EvalRecord],
                 report_path, detailed_path) -> None:
    write_json(report_path, report)
    write_text(detailed_path, "".join(json.dumps(record.detailed_record(), sort_keys=True)
                                      + "\n" for record in records))
