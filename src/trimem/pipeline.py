"""End-to-end orchestration: memory build, question answering, evaluation."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .backend import BackendRouter, call_scope, fields_of, read_object, run_items
from .corpus import DialogueCorpus, SegmentationConfig, segment
from .errors import EmptyRecordSet, EmptyRequiredSet
from .extraction import MemoryEntry, extract_entries, restatement_key
from .metrics import CATEGORY_NAMES, EvalRecord, bleu, coverage, token_f1
from .profiles import group_by_person, update_profile
from .qa import Answer, RetrievedContext, answer as generate_answer
from .qa import assemble_context  # noqa: F401  perfbench/spans.py wraps this name
from .retrieval import plan_for_question, retrieve
from .store import MemoryStore, RetrievalConfig


@dataclass
class QaItem:
    question: str
    reference: str
    category: int = 4
    evidence: frozenset[int] = frozenset()

    @classmethod
    def from_dict(cls, rec: dict) -> "QaItem":
        """The item a QA record holds, read through ``_QA_FIELDS``; a fault,
        an empty question or reference, or a category that is not a key of
        ``CATEGORY_NAMES`` is a ValueError."""
        if isinstance(rec, dict) and "reference" not in rec and "answer" in rec:
            rec = {**rec, "reference": rec["answer"]}
        item = read_object(rec, _QA_FIELDS)
        for name in ("question", "reference"):
            if not item[name]:
                raise ValueError(f"{name} must be a non-empty string")
        if item["category"] not in CATEGORY_NAMES:
            raise ValueError(f"category must be one of {sorted(CATEGORY_NAMES)}, "
                             f"got {item['category']!r}")
        return cls(**{**item, "evidence": frozenset(item["evidence"])})


# a QA record's fields; a record without a reference may give it as "answer"
_QA_FIELDS = fields_of(QaItem)


def build_store(corpus: DialogueCorpus, prompts: dict[str, str],
                router: BackendRouter,
                seg_config: Optional[SegmentationConfig] = None) -> MemoryStore:
    """Extract and profile per window; index once per build, in slices of
    ``EMBED_BATCH``. The returned store is sealed.

    Window k runs as item k of stage "build", in order; the closing embeds
    are item 0. A window's fresh entries are the first copy of each
    restatement (by ``restatement_key``) that no earlier window gave, and
    only they feed its profile updates. After the last window every fresh
    entry goes to the store in one ``insert_entries`` call, which gives the
    ids, rows and dedup map that window-by-window inserts would, with one
    embed round-trip per ``EMBED_BATCH`` restatements instead of one per
    window.

    Extraction drops each invalid entry with a logged diagnostic, so a
    window contributes its survivors. A reply that stays unreadable after
    its one repair raises ParseFailure and aborts the build, and a zero-norm
    or non-finite embedding raises DimensionMismatch after the last window.
    """
    seg_config = seg_config or SegmentationConfig()
    store = MemoryStore.for_corpus(corpus)
    backend = router.pipeline
    kept: dict[str, MemoryEntry] = {}  # restatement key -> its first copy

    def add_window(window) -> None:
        fresh = []
        for entry in extract_entries(window, prompts["extraction"], backend):
            key = restatement_key(entry.lossless_restatement)
            if key not in kept:
                kept[key] = entry
                fresh.append(entry)
        for person_key, person_entries in sorted(group_by_person(fresh).items()):
            existing = store.latest_profile(person_key)
            profile = update_profile(
                person_key, person_entries, existing, prompts["profile"],
                backend, window_index=window.index)
            store.add_profile(profile)
    run_items("build", segment(corpus, seg_config), add_window)
    with call_scope(stage="build"):
        store.insert_entries(list(kept.values()), backend)
    store.seal()
    return store


def answer_question(question: str, store: MemoryStore, prompts: dict[str, str],
                    router: BackendRouter, config: RetrievalConfig,
                    ) -> tuple[Answer, RetrievedContext]:
    backend = router.pipeline
    plan = plan_for_question(question, prompts, backend, config)
    ctx = retrieve(plan, store, config, backend)
    result = generate_answer(question, ctx, prompts["answer"], backend)
    return result, ctx


def run_eval(qa_set: Sequence[QaItem], store: MemoryStore,
             prompts: dict[str, str], router: BackendRouter,
             config: RetrievalConfig) -> list[EvalRecord]:
    """Answer every question, judge it with the LLM judge and score it;
    returns per-question records. Question k is item k of stage "eval"."""
    from .evolution import judge  # read at call time: perfbench/spans.py wraps it

    if not qa_set:
        raise EmptyRecordSet("empty qa set")

    def evaluate(item: QaItem) -> EvalRecord:
        result, ctx = answer_question(item.question, store, prompts, router, config)
        score, reasoning = judge(item.question, result.answer_text, item.reference,
                                 prompts["judge"], router.pipeline)
        record = EvalRecord(
            question=item.question,
            prediction=result.answer_text,
            reference=item.reference,
            category=item.category,
            f1=token_f1(result.answer_text, item.reference),
            bleu=bleu(result.answer_text, item.reference),
            judge_score=score,
            judge_reasoning=reasoning,
            token_cost=ctx.token_cost,
            retrieved_src_sets=[sorted(e.source_dialogue_ids)
                                for e, _ in ctx.ranked_entries],
        )
        try:
            record.context_coverage = coverage(item.reference, ctx.text)
        except EmptyRequiredSet:
            record.context_coverage = None
        return record
    return run_items("eval", qa_set, evaluate)
