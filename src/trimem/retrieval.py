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
from .corpus import DialogueTurn
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
                     backend: Backend, query_cap: int = 3) -> SearchPlan:
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

    queries: list[str] = [question]
    seen = {question.casefold()}
    for q in raw_queries:
        key = q.casefold()
        if key in seen or not q.strip():
            continue
        seen.add(key)
        queries.append(q)
    return SearchPlan(original_question=question,
                      queries=tuple(queries[:query_cap]))


def retrieve(plan: SearchPlan, store: MemoryStore, config: RetrievalConfig,
             backend: Backend) -> RetrievedContext:
    """Execute the plan: multi-query top-K merge, then anchor expansion.

    Per-entry scores are the max across queries; the merged list is sorted
    descending with ties by insertion order and truncated to top_k. The top
    ``anchor_count`` entries contribute recovered source turns; profiles of
    the persons named by ranked entries are attached most-frequent first.
    """
    vectors = backend.embed(list(plan.queries))
    per_query_k = config.effective_per_query_k
    best: dict[str, float] = {}
    for row in range(len(plan.queries)):
        for entry_id, score in store.similarity_search(vectors[row], per_query_k):
            if entry_id not in best or score > best[entry_id]:
                best[entry_id] = score
    ranked_ids = sorted(best, key=lambda e: (-best[e], store.row_of(e)))[:config.top_k]
    ranked = [(store.entries[e], best[e]) for e in ranked_ids]

    anchor_ids = ranked_ids[:config.anchor_count]
    seen_turns: set[int] = set()
    recovered: list[DialogueTurn] = []
    for _, turns in store.recover_dialogue(anchor_ids):
        for turn in turns:
            if turn.turn_id not in seen_turns:
                seen_turns.add(turn.turn_id)
                recovered.append(turn)
    recovered.sort(key=lambda t: t.turn_id)

    person_counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    for rank, (entry, _) in enumerate(ranked):
        for person in sorted(entry.persons):
            key = normalize_person_key(person)
            person_counts[key] += 1
            first_seen.setdefault(key, rank)
    ordered_persons = sorted(person_counts,
                             key=lambda p: (-person_counts[p], first_seen[p]))
    profiles = store.profiles_for(ordered_persons)[:config.profile_count]

    return RetrievedContext(ranked_entries=ranked, recovered_turns=recovered,
                            profiles=profiles)


def plan_for_question(question: str, prompts: dict[str, str], backend: Backend,
                      config: RetrievalConfig) -> SearchPlan:
    """Full planning path, or the bare single-query plan when disabled."""
    if not config.use_search_plan:
        return SearchPlan(original_question=question, queries=(question,))
    plan = analyze_question(question, prompts["question_analysis"], backend)
    return generate_queries(question, plan, prompts["query_generation"],
                            backend, query_cap=config.query_cap)
