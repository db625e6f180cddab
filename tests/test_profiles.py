
import pytest
from hypothesis import given, settings, strategies as st

from trimem.backend import FixtureRule, ScriptedBackend
from trimem.errors import ParseFailure
from trimem.extraction import MemoryEntry
from trimem.profiles import (
    EntityProfile,
    group_by_person,
    parse_profile_text,
    serialize_profile,
    update_profile,
)
from trimem.prompts import seed_prompts

PROFILE_PROMPT = ("Update the persona profile for {entity_name}.\n"
                  "[Current Profile]\n{existing_profile}\n"
                  "[New Facts]\n{facts}\n")

PROFILE_REPLY = (
    "Entity: Alice\n"
    "[Identity] Alice lives in Rome.\n"
    "[Interests] Chess and hiking.\n"
    "[Career]\n"  # empty section should be dropped
    "[Life Events] Moved in 2024.")


def entry(text, persons):
    return MemoryEntry(lossless_restatement=text, persons=frozenset(persons),
                       source_dialogue_ids=frozenset({1}))


# -- parsing and serialization ----------------------------------------

def test_parse_profile_text():
    name, sections = parse_profile_text(PROFILE_REPLY)
    assert name == "Alice"
    assert list(sections) == ["Identity", "Interests", "Life Events"]
    assert sections["Interests"] == "Chess and hiking."


def test_parse_profile_multiline_section():
    text = "Entity: Bob\n[Identity] line one\nline two\n[Interests] chess"
    _, sections = parse_profile_text(text)
    assert sections["Identity"] == "line one\nline two"


def test_parse_profile_missing_header():
    with pytest.raises(ParseFailure):
        parse_profile_text("[Identity] no header")


def test_parse_profile_no_sections():
    with pytest.raises(ParseFailure):
        parse_profile_text("Entity: Alice\njust prose")
    with pytest.raises(ParseFailure):  # a blank label is no section, which add_profile refuses
        parse_profile_text("Entity: Alice\n[ ] prose")


def test_a_blank_label_is_a_line_of_the_section_before_it():
    _, sections = parse_profile_text("Entity: Bob\n[Identity] one\n[  ] two")
    assert sections == {"Identity": "one\n[  ] two"}


def test_serialize_round_trip():
    name, sections = parse_profile_text(PROFILE_REPLY)
    profile = EntityProfile(entity_key="alice", display_name=name,
                            sections=sections, version=1)
    name2, sections2 = parse_profile_text(serialize_profile(profile))
    assert (name2, list(sections2.items())) == (name, list(sections.items()))


def test_equal_profiles_hash_equal():
    # a frozen profile hashes by its scalar fields; equality still reads the sections
    a, b = (EntityProfile("alice", "Alice", 1, 1, {"Identity": "x"}) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert a != EntityProfile("alice", "Alice", 1, 1, {"Identity": "y"})


REPEATED_LABEL_REPLY = ("Entity: Alice\n[Interests] chess\n[Career] nurse\n"
                        "[Interests] hiking")


def test_a_repeated_label_merges_into_its_first_section_and_round_trips():
    name, sections = parse_profile_text(REPEATED_LABEL_REPLY)
    assert list(sections.items()) == [("Interests", "chess\nhiking"), ("Career", "nurse")]
    profile = EntityProfile(entity_key="alice", display_name=name, sections=sections)
    rebuilt = EntityProfile(**vars(profile))  # asdict cannot copy read-only sections
    assert rebuilt == profile and list(rebuilt.sections.items()) == list(sections.items())
    name2, sections2 = parse_profile_text(serialize_profile(profile))
    assert (name2, list(sections2.items())) == (name, list(sections.items()))


# a label holds no "]" and is not blank; a body line is stripped and starts no header
LABELS = st.text(alphabet="ab [", min_size=1).filter(str.strip)
BODY_LINES = st.lists(st.text(alphabet="ab []:", min_size=1).filter(
    lambda line: line == line.strip() and not line.startswith("[")), max_size=3)


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(LABELS, BODY_LINES, st.booleans()), max_size=6),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_a_rendered_profile_parses_to_the_merge_of_its_runs(runs, newline):
    lines = ["Entity: Alice"]
    for label, body, on_header in runs:
        if on_header and body:
            lines += [f"[{label}] {body[0]}", *body[1:]]
        else:
            lines += [f"[{label}]", *body]
    # each label's lines, from all its runs in order, under the first run to hold any
    merged: dict[str, list[str]] = {}
    for label, body, _ in runs:
        if body:
            merged.setdefault(label.strip(), []).extend(body)
    text = newline.join(lines)
    if not merged:
        with pytest.raises(ParseFailure, match="no populated sections"):
            parse_profile_text(text)
        return
    name, sections = parse_profile_text(text)
    assert (name, list(sections.items())) == (
        "Alice", [(label, "\n".join(body)) for label, body in merged.items()])


def test_section_labels_are_the_documented_ten():
    # the labels live in the seed profile prompt's format block, which the
    # model copies; the engine keeps whatever labels a reply holds
    block = seed_prompts()["profile"].split("Use this format:\n", 1)[1]
    _, sections = parse_profile_text(block)
    assert list(sections) == [
        "Identity", "Personality", "How Others Describe Them", "Interests", "Career",
        "Values", "Beliefs/Spirituality", "Relationships", "Life Events", "Preferences"]


# -- grouping ----------------------------------------------------------

def test_group_by_person_multi_membership():
    e1 = entry("Alice met Bob.", ["Alice", "Bob"])
    e2 = entry("Alice hiked.", ["Alice"])
    e3 = entry("Nothing personal.", [])
    groups = group_by_person([e1, e2, e3])
    assert set(groups) == {"alice", "bob"}
    assert groups["alice"] == [e1, e2]
    assert groups["bob"] == [e1]


def test_group_by_person_normalizes_keys():
    groups = group_by_person([entry("x", ["  Alice  Smith "])])
    assert set(groups) == {"alice smith"}


# -- updates -----------------------------------------------------------

def test_update_profile_no_new_entries_is_noop():
    existing = EntityProfile(entity_key="alice", display_name="Alice",
                             sections={"Identity": "x"}, version=2)
    backend = ScriptedBackend()
    result = update_profile("alice", [], existing, PROFILE_PROMPT, backend)
    assert result is existing
    assert backend.usage.calls == 0


def test_update_profile_without_existing_requires_entries():
    with pytest.raises(ValueError):
        update_profile("alice", [], None, PROFILE_PROMPT, ScriptedBackend())


def test_update_profile_versions_increment():
    backend = ScriptedBackend(rules=[
        FixtureRule(response=PROFILE_REPLY, contains=("alice",), sticky=True)])
    v1 = update_profile("alice", [entry("Alice moved.", ["Alice"])], None,
                        PROFILE_PROMPT, backend, window_index=1)
    assert (v1.version, v1.window) == (1, 1)
    v2 = update_profile("alice", [entry("Alice hiked.", ["Alice"])], v1,
                        PROFILE_PROMPT, backend, window_index=2)
    assert (v2.version, v2.window) == (2, 2)
    assert v2.entity_key == "alice"
    # the second prompt embeds the serialized previous profile
    assert "Alice lives in Rome." in backend.request_log[1]


def test_a_fact_holding_a_slot_reaches_the_profile_prompt_as_written():
    backend = ScriptedBackend(rules=[FixtureRule(response=PROFILE_REPLY, contains=("alice",))])
    existing = EntityProfile(entity_key="alice", display_name="Alice",
                             sections={"Identity": "Traveler."}, version=1)
    update_profile("alice", [entry("Alice wrote {existing_profile} on a card.", ["Alice"])],
                   existing, seed_prompts()["profile"], backend)
    (prompt,) = backend.request_log
    assert "\n- Alice wrote {existing_profile} on a card.\n" in prompt
    assert prompt.count(serialize_profile(existing)) == 1


def test_update_profile_repair_retry():
    backend = ScriptedBackend(rules=[
        FixtureRule(response="no labels at all", contains=("alice",)),
        FixtureRule(response=PROFILE_REPLY, contains=("alice",)),
    ])
    result = update_profile("alice", [entry("x", ["Alice"])], None,
                            PROFILE_PROMPT, backend)
    assert result.display_name == "Alice"
    assert backend.usage.calls == 2
