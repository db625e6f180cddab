"""Question analysis, search planning, and top-K retrieval with anchor expansion.

The search plan is produced by two LLM steps (required-information
analysis, then targeted query generation), each reply read through its
field table by ``read_reply``. A step whose reply stays unreadable or
wrong-typed after its one repair degrades: analysis to the degenerate
plan, query generation to the original question alone, so retrieval never
fails on output shape. Backend errors (budget, auth, transport) surface.
``retrieve`` builds the ``RetrievedContext``, which the qa module renders.
"""
from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass

from .backend import Backend, complete_parsed, read_reply
from .errors import ParseFailure
from .extraction import normalize_person_key
from .prompts import render
from .qa import RetrievedContext
from .store import MemoryStore, RetrievalConfig

logger = logging.getLogger(__name__)

# each analysis field's type and its value when absent; a plan is this
# table's dict, and the all-absent one is the degenerate plan
_ANALYSIS_FIELDS = {
    "question_type": (str, "general"), "key_entities": ([str], ()),
    "required_info": ([dict], ()), "relationships": ([str], ()),
    "minimal_queries_needed": (int, 1),
}
DEGENERATE_PLAN = {name: absent for name, (_, absent) in _ANALYSIS_FIELDS.items()}
_QUERY_FIELDS = {"queries": ([str], ())}


@dataclass(frozen=True)
class SearchPlan:
    original_question: str
    queries: tuple[str, ...]

    def __post_init__(self):
        if not self.queries:
            raise ValueError("queries must be non-empty")
        if self.original_question not in self.queries:
            raise ValueError("queries must contain the original question")


def analyze_question(question: str, analysis_prompt: str, backend: Backend) -> dict:
    """Derive the required-information plan; falls back to a degenerate plan."""
    if not question:
        raise ValueError("question must be non-empty")
    prompt = render(analysis_prompt, query=question)
    try:
        return complete_parsed(backend, prompt,
                               lambda text: read_reply(text, _ANALYSIS_FIELDS),
                               "Return ONLY the JSON.")
    except ParseFailure as exc:
        logger.warning("question analysis fell back to degenerate plan: %s", exc)
        return dict(DEGENERATE_PLAN)


def generate_queries(question: str, plan: dict, query_prompt: str,
                     backend: Backend, query_cap: int) -> SearchPlan:
    """Produce the deduplicated, capped query list.

    The original question is always present and first; the fallback plan
    is simply ``[question]``. ``query_cap`` is at least 1, as
    ``RetrievalConfig`` checks.
    """
    prompt = render(
        query_prompt,
        original_query=question,
        question_type=plan["question_type"],
        key_entities=json.dumps(plan["key_entities"]),
        required_info=json.dumps(plan["required_info"]),
        relationships=json.dumps(plan["relationships"]),
        minimal_queries_needed=str(plan["minimal_queries_needed"]),
    )
    try:
        raw_queries = complete_parsed(backend, prompt,
                                      lambda text: read_reply(text, _QUERY_FIELDS),
                                      "Return ONLY the JSON.")["queries"]
    except ParseFailure as exc:
        logger.warning("query generation fell back to the question: %s", exc)
        raw_queries = ()

    queries = {question.casefold(): question}  # casefolded query -> its first copy
    for q in raw_queries:
        if q.strip():
            queries.setdefault(q.casefold(), q)
    return SearchPlan(original_question=question,
                      queries=tuple(queries.values())[:query_cap])


def retrieve(plan: SearchPlan, store: MemoryStore, config: RetrievalConfig,
             backend: Backend) -> RetrievedContext:
    """Execute the plan: multi-query top-K merge, then anchor expansion.

    Per-entry scores are the max across queries; the merged list is sorted
    descending with ties by insertion order and truncated to top_k. The top
    ``anchor_count`` entries contribute their source turns, each once, in
    turn-id order. Profiles of the persons named by ranked entries are
    attached most-named first, ties by first appearance (``most_common``
    sorts stably over the Counter's first-seen order).
    """
    best: dict[str, float] = {}
    for vector in backend.embed(list(plan.queries)):
        for entry_id, score in store.similarity_search(vector, config.effective_per_query_k):
            best[entry_id] = max(score, best.get(entry_id, score))
    ranked_ids = sorted(best, key=lambda e: (-best[e], store.row_of(e)))[:config.top_k]
    ranked = [(store.entries[e], best[e]) for e in ranked_ids]

    turns = {turn.turn_id: turn
             for _, anchored in store.recover_dialogue(ranked_ids[:config.anchor_count])
             for turn in anchored}
    person_counts = Counter(normalize_person_key(person) for entry, _ in ranked
                            for person in sorted(entry.persons))
    persons = [person for person, _ in person_counts.most_common()]
    profiles = store.profiles_for(persons)[:config.profile_count]

    return RetrievedContext(ranked_entries=ranked,
                            recovered_turns=[turns[t] for t in sorted(turns)],
                            profiles=profiles)


def plan_for_question(question: str, prompts: dict[str, str], backend: Backend,
                      config: RetrievalConfig) -> SearchPlan:
    """Full planning path, or at a query cap of 1 the question alone, with no model call."""
    if config.query_cap == 1:
        return SearchPlan(original_question=question, queries=(question,))
    plan = analyze_question(question, prompts["question_analysis"], backend)
    return generate_queries(question, plan, prompts["query_generation"],
                            backend, query_cap=config.query_cap)
