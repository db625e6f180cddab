import json

from trimem import pipeline, qa
from trimem.backend import BackendRouter, FixtureRule, ScriptedBackend
from trimem.corpus import DialogueTurn
from trimem.extraction import MemoryEntry
from trimem.profiles import EntityProfile
from trimem.prompts import seed_prompts
from trimem.qa import answer, assemble_context, estimate_tokens
from trimem.retrieval import RetrievedContext
from trimem.store import RetrievalConfig

ANSWER_PROMPT = "Answer.\nQuestion: {query}\n{context}\nReturn JSON."


def make_ctx(entries=True, turns=True, profiles=True):
    ranked = []
    if entries:
        ranked = [
            (MemoryEntry(lossless_restatement="Alice visited Rome.",
                         event_time="2024-01-01T09:00:00",
                         source_dialogue_ids=frozenset({1})), 0.9),
            (MemoryEntry(lossless_restatement="Bob plays chess.",
                         source_dialogue_ids=frozenset({2})), 0.8),
        ]
    recovered = []
    if turns:
        recovered = [
            DialogueTurn(turn_id=1, session_id=0, speaker="Alice",
                         text="I went to Rome!", timestamp="2024-01-01T09:00:00"),
            DialogueTurn(turn_id=2, session_id=0, speaker="Bob",
                         text="I play chess."),
        ]
    profs = []
    if profiles:
        profs = [EntityProfile(entity_key="alice", display_name="Alice",
                               sections={"Identity": "Traveler."}, version=1)]
    return RetrievedContext(ranked_entries=ranked, recovered_turns=recovered,
                            profiles=profs)


# -- token estimation --------------------------------------------------

def test_estimate_tokens_hello_world():
    assert estimate_tokens("hello world") == 3


def test_estimate_tokens_empty():
    assert estimate_tokens("") == 0


def test_estimate_tokens_counts_punctuation_clusters():
    # pieces: ["don't", "stop", "!!"] -> round(3 * 1.3) == 4
    assert estimate_tokens("don't stop!!") == 4


# -- context assembly --------------------------------------------------

def test_assemble_context_sections_and_order():
    text = assemble_context(make_ctx())
    i_entries = text.index("[Structured Memory Entries]")
    i_turns = text.index("[Source Dialogues]")
    i_profiles = text.index("[Entity Profiles]")
    assert i_entries < i_turns < i_profiles
    assert "1. Alice visited Rome. (event time: 2024-01-01T09:00:00)" in text
    assert "2. Bob plays chess." in text
    assert "[ID:1] [2024-01-01T09:00:00] Alice: I went to Rome!" in text
    assert "[ID:2] Bob: I play chess." in text  # no timestamp bracket
    assert "Entity: Alice" in text


def test_assemble_context_omits_empty_sections():
    text = assemble_context(make_ctx(turns=False, profiles=False))
    assert "[Structured Memory Entries]" in text
    assert "[Source Dialogues]" not in text
    assert "[Entity Profiles]" not in text
    assert assemble_context(make_ctx(entries=False, turns=False,
                                     profiles=False)) == ""


# -- answering ---------------------------------------------------------

def test_answer_happy_path():
    backend = ScriptedBackend(rules=[FixtureRule(
        response=json.dumps({"reasoning": "entry 1", "answer": "Rome"}),
        contains=("Question: where?",))])
    ctx = make_ctx()
    result = answer("where?", ctx, ANSWER_PROMPT, backend)
    assert result.answer_text == "Rome"
    assert result.reasoning == "entry 1"
    assert ctx.token_cost == estimate_tokens(assemble_context(make_ctx()))


def test_a_question_holding_a_slot_gets_the_context_once():
    backend = ScriptedBackend(rules=[FixtureRule(
        response=json.dumps({"reasoning": "entry 1", "answer": "Rome"}),
        contains=("Question:",))])
    ctx = make_ctx()
    answer("Where is {context}?", ctx, seed_prompts()["answer"], backend)
    (prompt,) = backend.request_log
    assert "\nQuestion: Where is {context}?\n" in prompt
    assert prompt.count(ctx.text) == 1


def test_answer_repair_then_parse():
    backend = ScriptedBackend(rules=[
        FixtureRule(response="no json", contains=("where?",)),
        FixtureRule(response='{"reasoning": "r", "answer": "Rome"}',
                    contains=("where?",)),
    ])
    result = answer("where?", make_ctx(), ANSWER_PROMPT, backend)
    assert result.answer_text == "Rome"
    assert backend.usage.calls == 2


def test_answer_unparsed_fallback_is_total():
    backend = ScriptedBackend(rules=[
        FixtureRule(response="free text answer", contains=("where?",)),
        FixtureRule(response="still free text", contains=("where?",)),
    ])
    result = answer("where?", make_ctx(), ANSWER_PROMPT, backend)
    assert result.reasoning == "(unparsed)"
    assert result.answer_text == "free text answer"  # first reply, verbatim


def test_answer_never_empty():
    backend = ScriptedBackend(rules=[
        FixtureRule(response='{"reasoning": "r", "answer": "  "}',
                    contains=("where?",), sticky=True)])
    result = answer("where?", make_ctx(), ANSWER_PROMPT, backend)
    assert result.answer_text.strip()


# -- one rendering per question ----------------------------------------

def test_eval_renders_each_context_once(monkeypatch, built_store, qa_items, data_dir):
    calls = {"assemble_context": 0, "estimate_tokens": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((qa, "assemble_context"), (qa, "estimate_tokens"),
                         (pipeline, "assemble_context")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    backend = ScriptedBackend.from_fixture_file(data_dir / "fixture.jsonl")
    records = pipeline.run_eval(qa_items[:1], built_store, seed_prompts(),
                                BackendRouter(pipeline=backend), RetrievalConfig())
    # answer, token cost and coverage all read the one rendered text
    assert records[0].context_coverage is not None
    assert records[0].token_cost > 0
    assert calls == {"assemble_context": 1, "estimate_tokens": 1}


def test_eval_coverage_is_none_for_a_stopword_reference(built_store, qa_items, data_dir):
    backend = ScriptedBackend.from_fixture_file(data_dir / "fixture.jsonl")
    item = pipeline.QaItem(question=qa_items[0].question, reference="the",
                           category=4)
    records = pipeline.run_eval([item], built_store, seed_prompts(),
                                BackendRouter(pipeline=backend), RetrievalConfig())
    assert records[0].context_coverage is None
