import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from trimem.backend import BackendRouter, FixtureRule, ScriptedBackend, hash_embedding
from trimem.errors import BudgetExceeded, DimensionMismatch
from trimem.extraction import MemoryEntry
from trimem.profiles import EntityProfile
from trimem.pipeline import answer_question
from trimem.prompts import seed_prompts
from trimem.retrieval import (
    DEGENERATE_PLAN,
    SearchPlan,
    analyze_question,
    generate_queries,
    plan_for_question,
    retrieve,
)
from trimem.store import MemoryStore, RetrievalConfig
from trimem.corpus import DialogueTurn

ANALYSIS_PROMPT = "determine what specific information is required\nQuestion: {query}"
QUERY_PROMPT = ("targeted search queries\nOriginal Question: {original_query}\n"
                "{question_type} {key_entities} {required_info} {relationships} "
                "{minimal_queries_needed}")

PROMPTS = {
    "question_analysis": ANALYSIS_PROMPT,
    "query_generation": QUERY_PROMPT,
}


def make_store(texts, persons_of=None, backend=None):
    backend = backend or ScriptedBackend()
    turns = [DialogueTurn(turn_id=i, session_id=0, speaker="A", text=f"t{i}")
             for i in range(1, 100)]
    store = MemoryStore(turns=turns)
    entries = []
    for i, text in enumerate(texts, 1):
        persons = (persons_of or {}).get(text, ())
        entries.append(MemoryEntry(lossless_restatement=text,
                                   persons=frozenset(persons),
                                   source_dialogue_ids=frozenset({i})))
    store.insert_entries(entries, backend)
    return store


# -- search plan -------------------------------------------------------

def test_search_plan_requires_original_question():
    with pytest.raises(ValueError):
        SearchPlan(original_question="q", queries=("other",))
    with pytest.raises(ValueError):
        SearchPlan(original_question="q", queries=())
    plan = SearchPlan(original_question="q", queries=("q", "other"))
    assert plan.queries[0] == "q"


def test_analyze_question_parses_reply():
    backend = ScriptedBackend(rules=[FixtureRule(
        response=json.dumps({"question_type": "temporal",
                             "key_entities": ["Alice"],
                             "required_info": [{"info_type": "date"}],
                             "relationships": ["Alice-event"],
                             "minimal_queries_needed": 2}),
        contains=("information is required",))])
    plan = analyze_question("when?", ANALYSIS_PROMPT, backend)
    assert plan == {"question_type": "temporal", "key_entities": ["Alice"],
                    "required_info": [{"info_type": "date"}],
                    "relationships": ["Alice-event"], "minimal_queries_needed": 2}


def test_analyze_question_falls_back_on_garbage():
    backend = ScriptedBackend(rules=[
        FixtureRule(response="not json", contains=("information",), sticky=True)])
    plan = analyze_question("when?", ANALYSIS_PROMPT, backend)
    assert plan == DEGENERATE_PLAN


@pytest.mark.parametrize("field,value", [
    ("minimal_queries_needed", "many"),
    ("minimal_queries_needed", float("inf")),
    ("minimal_queries_needed", 2.0),
    ("key_entities", 5),
    ("required_info", ["a string"]),
])
def test_analyze_question_falls_back_on_malformed_field(field, value):
    backend = ScriptedBackend(rules=[FixtureRule(
        response=json.dumps({"question_type": "temporal", field: value}),
        contains=("information",), sticky=True)])
    plan = analyze_question("when?", ANALYSIS_PROMPT, backend)
    assert plan == DEGENERATE_PLAN
    assert len(backend.request_log) == 2  # the reply and its one repair


def test_generate_queries_falls_back_on_malformed_field():
    backend = ScriptedBackend(rules=[FixtureRule(
        response='{"queries": ["a", 5]}', contains=("targeted",), sticky=True)])
    plan = generate_queries("who?", DEGENERATE_PLAN, QUERY_PROMPT, backend, query_cap=3)
    assert plan.queries == ("who?",)
    assert len(backend.request_log) == 2  # the reply and its one repair


def test_plan_for_question_surfaces_budget_exhaustion(caplog):
    backend = ScriptedBackend(max_calls=0)
    with pytest.raises(BudgetExceeded):
        plan_for_question("when?", PROMPTS, backend, RetrievalConfig())
    assert not [r for r in caplog.records if r.name == "trimem.retrieval"]


def test_generate_queries_dedup_and_cap():
    backend = ScriptedBackend(rules=[
        FixtureRule(response=json.dumps({
            "queries": ["WHEN?", "alpha", "beta", "gamma"]}),
            contains=("targeted search queries",)),
    ])
    plan = generate_queries("when?", DEGENERATE_PLAN, QUERY_PROMPT,
                            backend, query_cap=3)
    # original first, case-insensitive dedup of "WHEN?", capped at 3
    assert plan.queries == ("when?", "alpha", "beta")
    # query generation is the only model call; no key-info step follows
    assert backend.usage.calls == 1


@pytest.mark.parametrize("cap,queries", [
    (1, ("When did Ann move?",)),
    (3, ("When did Ann move?", "alpha", "beta")),
    (9, ("When did Ann move?", "alpha", "beta", "gamma")),
])
def test_generate_queries_keeps_first_copies_in_order(cap, queries):
    raw = ["  ", "alpha", "WHEN DID ANN MOVE?", "Alpha", "beta", "\t", "gamma", "BETA", "alpha"]
    backend = ScriptedBackend(rules=[
        FixtureRule(response=json.dumps({"queries": raw}),
                    contains=("targeted search queries",))])
    plan = generate_queries("When did Ann move?", DEGENERATE_PLAN, QUERY_PROMPT,
                            backend, query_cap=cap)
    assert plan.queries == queries


def test_generate_queries_full_fallback():
    backend = ScriptedBackend(rules=[
        FixtureRule(response="garbage", contains=("",), sticky=True)])
    plan = generate_queries("who?", DEGENERATE_PLAN, QUERY_PROMPT,
                            backend, query_cap=3)
    assert plan.queries == ("who?",)
    # the first reply and its one repair; nothing else is asked
    assert backend.usage.calls == 2


def test_plan_for_question_at_query_cap_1_makes_no_call():
    # a cap of 1 keeps only the question, so neither planning call is made
    backend = ScriptedBackend()  # would raise on any chat call
    plan = plan_for_question("q?", PROMPTS, backend, RetrievalConfig(query_cap=1))
    assert plan.queries == ("q?",)
    assert backend.usage.calls == 0


def test_planned_question_makes_three_chat_calls_and_one_embed(built_store, data_dir):
    backend = ScriptedBackend.from_fixture_file(data_dir / "fixture.jsonl")
    result, _ = answer_question("What museum did Ethan visit in March 2024?",
                                built_store, seed_prompts(),
                                BackendRouter(pipeline=backend), RetrievalConfig())
    assert result.answer_text == "The Harbor Museum"
    # analysis, query generation, answer; the rest of usage is the embed call
    assert len(backend.request_log) == 3
    assert backend.usage.calls - len(backend.request_log) == 1
    assert not any("extract key information" in p for p in backend.request_log)


# -- retrieve ----------------------------------------------------------

def brute_force_merge(store, queries, per_query_k, top_k):
    """Independent oracle: per-query exhaustive top-k, max-merge, stable sort."""
    best = {}
    for q in queries:
        qv = hash_embedding(q)
        scored = []
        for row, entry_id in enumerate(store.insertion_order):
            scored.append((entry_id, float(store.vector_of(entry_id) @ qv), row))
        scored.sort(key=lambda t: (-t[1], t[2]))
        for entry_id, score, _ in scored[:per_query_k]:
            if entry_id not in best or score > best[entry_id]:
                best[entry_id] = score
    position = {e: i for i, e in enumerate(store.insertion_order)}
    ranked = sorted(best, key=lambda e: (-best[e], position[e]))[:top_k]
    return [(e, best[e]) for e in ranked]


def test_retrieve_matches_brute_force_merge():
    store = make_store([f"distinct fact {i}" for i in range(30)])
    plan = SearchPlan(original_question="fact 7",
                      queries=("fact 7", "distinct fact 12"))
    config = RetrievalConfig(top_k=10, per_query_k=6, anchor_count=3)
    ctx = retrieve(plan, store, config, ScriptedBackend())
    expected = brute_force_merge(store, plan.queries, 6, 10)
    assert [e.entry_id for e, _ in ctx.ranked_entries] == [e for e, _ in expected]
    for (_, got), (_, want) in zip(ctx.ranked_entries, expected):
        assert got == pytest.approx(want, abs=1e-5)


def test_retrieve_anchor_expansion_dedups_turns():
    store = make_store(["alpha fact", "beta fact", "gamma fact"])
    # give entries overlapping source ids
    backend = ScriptedBackend()
    turns = [DialogueTurn(turn_id=i, session_id=0, speaker="A", text=f"t{i}")
             for i in range(1, 10)]
    store = MemoryStore(turns=turns)
    store.insert_entries([
        MemoryEntry(lossless_restatement="alpha fact",
                    source_dialogue_ids=frozenset({3, 4})),
        MemoryEntry(lossless_restatement="beta fact",
                    source_dialogue_ids=frozenset({4, 5})),
    ], backend)
    plan = SearchPlan(original_question="alpha fact", queries=("alpha fact",))
    ctx = retrieve(plan, store, RetrievalConfig(top_k=5, anchor_count=5),
                   ScriptedBackend())
    assert [t.turn_id for t in ctx.recovered_turns] == [3, 4, 5]


def test_retrieve_profiles_by_person_frequency():
    persons_of = {
        "alice a": ("Alice",), "alice b": ("Alice",),
        "bob a": ("Bob",), "carol a": ("Carol",),
    }
    store = make_store(list(persons_of), persons_of)
    for key in ("alice", "bob", "carol"):
        store.add_profile(EntityProfile(entity_key=key, display_name=key.title(),
                                        sections={"Identity": "x"}, version=1))
    plan = SearchPlan(original_question="alice", queries=("alice",))
    ctx = retrieve(plan, store, RetrievalConfig(top_k=25, profile_count=2),
                   ScriptedBackend())
    assert len(ctx.profiles) == 2
    assert ctx.profiles[0].entity_key == "alice"  # named by 2 of 4 entries


class RankedBackend(ScriptedBackend):
    """Embeds ``"rank N"`` so that every other text, as a query, ranks the
    entries by N: the cosine of (1, N/10) with (1, 0) falls as N grows."""

    def _embed(self, texts):
        return [[1.0, int(t.split()[1]) / 10 if t.startswith("rank ") else 0.0]
                for t in texts]


def ranked_store(sources, persons=None):
    """A store whose entry i (from 0) ranks i-th for any query."""
    store = MemoryStore(turns=[DialogueTurn(turn_id=i, session_id=0, speaker="A",
                                            text=f"t{i}") for i in range(1, 20)])
    store.insert_entries([
        MemoryEntry(lossless_restatement=f"rank {i}", source_dialogue_ids=frozenset(src),
                    persons=frozenset((persons or {}).get(i, ())))
        for i, src in enumerate(sources)], RankedBackend())
    return store


def test_retrieve_profiles_tie_by_first_appearance():
    persons = {0: ("Zed", "Amy"), 1: ("Bob",), 2: ("bob",), 3: ("Carl",), 4: ("Amy",),
               5: ("Yan", "Xia"), 6: ("Carl",), 7: ("Carl",)}
    store = ranked_store([{1}] * 8, persons)
    for key in ("amy", "bob", "carl", "xia", "yan", "zed"):
        store.add_profile(EntityProfile(entity_key=key, display_name=key.title(),
                                        sections={"Identity": "x"}, version=1))
    plan = SearchPlan(original_question="q", queries=("q",))
    ctx = retrieve(plan, store, RetrievalConfig(profile_count=6), RankedBackend())
    assert [e.lossless_restatement for e, _ in ctx.ranked_entries] == \
        [f"rank {i}" for i in range(8)]
    # carl is named most; amy and bob tie, as do zed and the later-ranked
    # xia and yan; amy and zed, first named together, go in name order
    assert [p.entity_key for p in ctx.profiles] == ["carl", "amy", "bob", "zed", "xia", "yan"]


@pytest.mark.parametrize("anchor_count,turn_ids", [(0, []), (1, [2, 7]), (2, [2, 5, 7]),
                                                   (3, [1, 2, 5, 7, 9])])
def test_retrieve_anchors_that_share_turns_out_of_id_order(anchor_count, turn_ids):
    store = ranked_store([{7, 2}, {5, 2}, {9, 1, 7}, {3}])
    plan = SearchPlan(original_question="q", queries=("q",))
    ctx = retrieve(plan, store, RetrievalConfig(anchor_count=anchor_count), RankedBackend())
    assert [t.turn_id for t in ctx.recovered_turns] == turn_ids


def test_retrieve_sets_token_cost():
    store = make_store(["some fact here"])
    plan = SearchPlan(original_question="q", queries=("q",))
    ctx = retrieve(plan, store, RetrievalConfig(), ScriptedBackend())
    assert ctx.token_cost > 0


@pytest.mark.parametrize("value", [float("nan"), 0.0], ids=["nan", "zero"])
def test_retrieve_refuses_a_query_vector_that_is_not_finite_or_is_zero(
        built_store, monkeypatch, value):
    # such a query scored nothing (NaN) or every entry 0.0 (zero), and the
    # question was still answered from that context
    backend = ScriptedBackend()
    monkeypatch.setattr(backend, "_embed", lambda texts: [[value] * built_store.dim] * len(texts))
    plan = SearchPlan(original_question="Where did Ethan go?", queries=("Where did Ethan go?",))
    with pytest.raises(DimensionMismatch):
        retrieve(plan, built_store, RetrievalConfig(), backend)
    assert backend.usage.as_dict() == {"calls": 0, "prompt_tokens": 0,
                                       "completion_tokens": 0, "total_tokens": 0}


def test_retrieve_from_threads_over_a_sealed_store_matches_serial(built_store, qa_items):
    # reads of a sealed store write nothing, so threads can share one
    backend = ScriptedBackend()
    config = RetrievalConfig(top_k=10, per_query_k=5)
    plans = [SearchPlan(original_question=item.question,
                        queries=(item.question, " ".join(reversed(item.question.split()))))
             for item in qa_items] * 4
    blocks = list(built_store._blocks)

    def run(plan):
        return retrieve(plan, built_store, config, backend)

    serial = list(map(run, plans))
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(run, plans))
    assert threaded == serial
    assert len(built_store._blocks) == len(blocks) == 1
    assert built_store._blocks[0] is blocks[0]
