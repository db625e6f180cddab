"""The write path: extract and profile per window, index once per build;
and the eval loop over a built store."""
import json

import numpy as np
import pytest

from trimem.backend import (
    EMBED_BATCH,
    BackendRouter,
    FixtureRule,
    ScriptedBackend,
    hash_embedding,
)
from trimem.corpus import DialogueCorpus, DialogueTurn, SegmentationConfig, segment
from trimem.errors import BudgetExceeded, EmptyRecordSet
from trimem.extraction import MemoryEntry, extract_entries
from trimem.pipeline import QaItem, build_store, run_eval
from trimem.profiles import group_by_person, update_profile
from trimem.prompts import seed_prompts
from trimem.store import DATA_FILES, MemoryStore, RetrievalConfig

STORE_FILES = (*DATA_FILES, "manifest.json")


class EmbedLog(ScriptedBackend):
    """A scripted backend that records the texts of each embed round-trip."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.embeds = []

    def _embed(self, texts):
        self.embeds.append(list(texts))
        return super()._embed(texts)


def fixture_backend(data_dir):
    backend = EmbedLog()
    backend.rules = ScriptedBackend.from_fixture_file(data_dir / "fixture.jsonl").rules
    return backend


def build_window_by_window(corpus, prompts, backend):
    """The reference build: insert each window's entries before its profiles."""
    store = MemoryStore.for_corpus(corpus)
    for window in segment(corpus, SegmentationConfig()):
        entries = extract_entries(window, prompts["extraction"], backend)
        if not entries:
            continue
        before = len(store)
        store.insert_entries(entries, backend)
        fresh = [store.entries[i] for i in store.insertion_order[before:]]
        for person_key, person_entries in sorted(group_by_person(fresh).items()):
            store.add_profile(update_profile(
                person_key, person_entries, store.latest_profile(person_key),
                prompts["profile"], backend, window_index=window.index))
    store.verify_anchors()
    store.seal()
    return store


def test_one_insert_per_build_matches_window_by_window_inserts(
        data_dir, fixture_corpus, tmp_path):
    reference_backend = fixture_backend(data_dir)
    reference = build_window_by_window(fixture_corpus, seed_prompts(),
                                       reference_backend)
    backend = fixture_backend(data_dir)
    store = build_store(fixture_corpus, seed_prompts(), BackendRouter(pipeline=backend))

    reference.persist(tmp_path / "reference")
    store.persist(tmp_path / "built")
    for name in STORE_FILES:
        assert (tmp_path / "built" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes(), name
    assert store._by_restatement == reference._by_restatement
    # the same chat prompts in the same order; the embeds collapse into one
    assert backend.request_log == reference_backend.request_log
    assert len(reference_backend.embeds) == 8
    assert backend.embeds == [sum(reference_backend.embeds, [])]


def test_a_fixture_build_costs_24_chat_calls_and_1_embed(data_dir, fixture_corpus):
    # a guard on the serial round-trips of the write path: each new one
    # adds wall time under a real provider
    backend = fixture_backend(data_dir)
    build_store(fixture_corpus, seed_prompts(), BackendRouter(pipeline=backend))
    assert len(backend.request_log) == 24
    assert len(backend.embeds) == 1
    assert backend.usage.calls == 25


def extraction_reply(*facts):
    return json.dumps([{"lossless_restatement": text, "persons": ["Alice"],
                        "source_dialogue_ids": [turn]} for text, turn in facts])


def test_the_profile_prompt_names_the_person_as_the_facts_do():
    # build groups facts by the casefolded key, "ava"; the prompt reads "Ava"
    corpus = DialogueCorpus("c", (DialogueTurn(turn_id=1, session_id=0, speaker="Ava",
                                               text="I moved to Rome."),))
    backend = ScriptedBackend(rules=[
        FixtureRule(json.dumps([{"lossless_restatement": "Ava moved to Rome.",
                                 "persons": ["Ava"], "source_dialogue_ids": [1]}]),
                    contains=("Extract.",)),
        FixtureRule("Entity: Ava\n[Identity] Lives in Rome.",
                    contains=("Update the persona profile for Ava based on",)),
    ])
    prompts = {"extraction": "Extract.\n{dialogue_text}", "profile": seed_prompts()["profile"]}
    store = build_store(corpus, prompts, BackendRouter(pipeline=backend))
    (profile,) = store.profile_history
    assert (profile.entity_key, profile.display_name) == ("ava", "Ava")


def test_a_repeated_restatement_feeds_its_profile_only_in_its_first_window():
    corpus = DialogueCorpus("c", tuple(
        DialogueTurn(turn_id=i, session_id=0, speaker="Alice", text=f"t{i}")
        for i in range(1, 7)))
    backend = ScriptedBackend(rules=[
        FixtureRule(extraction_reply(("Alice moved to Rome.", 1)),
                    contains=("Extract.", "[ID:1]")),
        FixtureRule(extraction_reply(("Alice  moved to\nRome.", 3),
                                     ("Alice adopted a cat.", 4)),
                    contains=("Extract.", "[ID:3]")),
        FixtureRule(extraction_reply(("Alice adopted a cat.", 6)),
                    contains=("Extract.", "[ID:5]")),
        FixtureRule("Entity: Alice\n[Identity] Lives in Rome.",
                    contains=("Profile Alice",), sticky=True),
    ])
    prompts = {"extraction": "Extract.\n{dialogue_text}",
               "profile": "Profile {entity_name}.\n{facts}"}
    store = build_store(corpus, prompts, BackendRouter(pipeline=backend),
                        SegmentationConfig(window_size=2, stride=2))

    profile_prompts = [p for p in backend.request_log if p.startswith("Profile")]
    assert profile_prompts == ["Profile Alice.\n- Alice moved to Rome.",
                               "Profile Alice.\n- Alice adopted a cat."]
    assert [(p.version, p.window) for p in store.profile_history] == \
        [(1, 1), (2, 2)]
    assert [(e.lossless_restatement, e.origin_window, sorted(e.source_dialogue_ids))
            for e in (store.entries[i] for i in store.insertion_order)] == \
        [("Alice moved to Rome.", 1, [1]), ("Alice adopted a cat.", 2, [4])]
    assert backend.usage.calls == len(backend.request_log) + 1


def test_a_profile_that_repeats_a_label_loads_as_it_was_built(tmp_path):
    corpus = DialogueCorpus("c", (DialogueTurn(1, 0, "Alice", "t1"),))
    backend = ScriptedBackend(rules=[
        FixtureRule(extraction_reply(("Alice plays chess.", 1)), contains=("Extract.",)),
        FixtureRule("Entity: Alice\n[Interests] chess\n[Career] nurse\n"
                    "[Interests] hiking", contains=("Profile Alice",)),
    ])
    prompts = {"extraction": "Extract.\n{dialogue_text}",
               "profile": "Profile {entity_name}.\n{facts}"}
    store = build_store(corpus, prompts, BackendRouter(pipeline=backend))
    store.persist(tmp_path / "store")
    loaded = MemoryStore.load(tmp_path / "store")
    built = [[("Interests", "chess\nhiking"), ("Career", "nurse")]]
    assert [list(p.sections.items()) for p in store.profile_history] == built
    assert loaded.profile_history == store.profile_history
    assert [list(p.sections.items()) for p in loaded.profile_history] == built


def test_embed_makes_one_charged_round_trip_per_slice():
    backend = EmbedLog()
    texts = [f"fact {i}" for i in range(EMBED_BATCH + 1)]
    vectors = backend.embed(texts)
    assert [len(batch) for batch in backend.embeds] == [EMBED_BATCH, 1]
    assert backend.usage.calls == 2
    assert vectors.shape == (EMBED_BATCH + 1, hash_embedding("x").size)
    assert vectors[-1].tobytes() == hash_embedding(texts[-1]).tobytes()


def test_a_cap_that_runs_out_between_slices_leaves_the_store_empty():
    backend = EmbedLog(max_calls=1)
    store = MemoryStore(turns=[DialogueTurn(1, 0, "A", "t1")])
    entries = [MemoryEntry(lossless_restatement=f"fact {i}",
                           source_dialogue_ids=frozenset({1}))
               for i in range(EMBED_BATCH + 1)]
    with pytest.raises(BudgetExceeded):
        store.insert_entries(entries, backend)
    assert [len(batch) for batch in backend.embeds] == [EMBED_BATCH]
    assert backend.usage.calls == 1
    assert (len(store), store.insertion_order, store.dim) == (0, [], None)
    assert np.asarray(store._vectors).size == 0


def test_a_qa_record_may_give_its_reference_as_answer():
    assert QaItem.from_dict({"question": "q?", "answer": "a"}).reference == "a"
    with pytest.raises(ValueError, match="reference"):
        QaItem.from_dict({"question": "q?", "answer": 2022})


def eval_fields(items, store, data_dir):
    """Each question's record fields from one fixture eval of items."""
    router = BackendRouter(pipeline=ScriptedBackend.from_fixture_file(
        data_dir / "fixture.jsonl"))
    return [(r.detailed_record(), r.retrieved_src_sets, r.token_cost, r.context_coverage)
            for r in run_eval(items, store, seed_prompts(), router, RetrievalConfig())]


def test_run_eval_keeps_no_state_from_one_question_to_the_next(data_dir, built_store,
                                                               qa_items):
    # every fixture rule is sticky, so no reply depends on the question order
    rules = ScriptedBackend.from_fixture_file(data_dir / "fixture.jsonl").rules
    assert all(rule.sticky for rule in rules)
    forward = eval_fields(qa_items, built_store, data_dir)
    assert eval_fields(qa_items[::-1], built_store, data_dir) == forward[::-1]
    assert len({record["question"] for record, *_ in forward}) > 1


def test_run_eval_refuses_an_empty_qa_set(data_dir, built_store):
    with pytest.raises(EmptyRecordSet, match="empty qa set"):
        eval_fields([], built_store, data_dir)
