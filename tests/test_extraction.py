import json
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from trimem.backend import FixtureRule, ScriptedBackend, drop_empty, read_object
from trimem.corpus import DialogueTurn, Window
from trimem.errors import ParseFailure, StoreIOError
from trimem.extraction import (
    _REPLY_FIELDS,
    MemoryEntry,
    _coerce_event_time,
    entry_from_record,
    extract_entries,
    normalize_display,
    normalize_person_key,
    parse_entry_payload,
)
from trimem.profiles import group_by_person
from trimem.store import MemoryStore

EXTRACTION_PROMPT = "Extract facts.\n{context}\nDialogues:\n{dialogue_text}\nGo."


def make_window(first=1, last=3, index=1):
    turns = tuple(
        DialogueTurn(turn_id=i, session_id=0, speaker="A", text=f"t{i}",
                     timestamp="2024-01-01T00:00:00")
        for i in range(first, last + 1))
    return Window(index=index, turns=turns)


def record(**overrides):
    rec = {
        "lossless_restatement": "Alice visited Rome on 2024-01-01.",
        "keywords": ["Alice", "Rome"],
        "timestamp": "2024-01-01T09:00:00",
        "location": "Rome",
        "persons": ["Alice"],
        "entities": [],
        "topic": "travel",
        "source_dialogue_ids": [1],
    }
    rec.update(overrides)
    return rec


# -- parsing -----------------------------------------------------------

def test_parse_entry_payload_with_prose_and_fences():
    text = "Here you go:\n```json\n" + json.dumps([record()]) + "\n```\nDone."
    parsed = parse_entry_payload(text)
    assert len(parsed) == 1
    assert parsed[0]["lossless_restatement"] == "Alice visited Rome on 2024-01-01."


def test_parse_entry_payload_missing_optionals_become_none():
    rec = {"lossless_restatement": "x", "source_dialogue_ids": [1]}
    [parsed] = parse_entry_payload(json.dumps([rec]))
    entry = entry_from_record(parsed, make_window())
    assert entry.event_time is None
    assert entry.location is None
    assert entry.keywords == frozenset()


def test_parse_entry_payload_rejects_non_array():
    with pytest.raises(ParseFailure):
        parse_entry_payload("no json here")
    with pytest.raises(ParseFailure):
        parse_entry_payload('{"a": 1}')


def test_parse_entry_payload_rejects_non_object_element():
    with pytest.raises(ParseFailure):
        parse_entry_payload("[1, 2]")


# -- normalization -----------------------------------------------------

def test_person_key_normalization():
    assert normalize_person_key("  Alice   Smith ") == "alice smith"
    assert normalize_display("  Alice   Smith ") == "Alice Smith"


@pytest.mark.parametrize("raw,expected", [
    ("2024-05-08", "2024-05-08T00:00:00"),
    ("2024-05-08T14:30", "2024-05-08T14:30:00"),
    ("2024-05-08 14:30", "2024-05-08T14:30:00"),
    ("2024-05-08T14:30:15", "2024-05-08T14:30:15"),
    ("2024-05-08 14:30:15", "2024-05-08T14:30:15"),
    ("not a time", None),
    ("2024-13-40", None),
    ("20240508", "20240508"),
    ("2024-05-08 14:30:15 +00:00", "2024-05-08T14:30:15+00:00"),
    ("2024-05-08T14:30:15 +00:00", "2024-05-08T14:30:15+00:00"),
])
def test_event_time_coercion(raw, expected):
    assert _coerce_event_time(raw) == expected


# -- validation --------------------------------------------------------

def test_an_entry_names_each_person_once():
    entry = entry_from_record(
        record(persons=["Maya", "maya", " MAYA ", "Bob  Lee", "bob lee"]), make_window())
    assert entry.persons == {"Maya", "Bob Lee"}  # the first form of each person
    assert {key: len(group) for key, group in group_by_person([entry]).items()} \
        == {"maya": 1, "bob lee": 1}


def test_validate_accepts_good_entry():
    entry = entry_from_record(record(), make_window())
    assert entry.event_time == "2024-01-01T09:00:00"


def test_validate_rejects_pronoun_person():
    with pytest.raises(ValueError, match="pronoun person: 'She'"):
        entry_from_record(record(persons=["She"]), make_window())


def test_validate_rejects_pronoun_keyword():
    with pytest.raises(ValueError, match="pronoun keyword: 'they'"):
        entry_from_record(record(keywords=["they"]), make_window())


def test_pronoun_diagnostics_name_each_value_as_the_reply_gave_it_in_order():
    rec = record(persons=[" he ", "She", "he"], keywords=["they", "Rome", "it"])
    with pytest.raises(ValueError, match=(
            r"^pronoun person: ' he '; pronoun person: 'She'; pronoun person: 'he'; "
            r"pronoun keyword: 'they'; pronoun keyword: 'it'$")):
        entry_from_record(rec, make_window())


def test_validate_rejects_out_of_window_source_ids():
    with pytest.raises(ValueError, match=r"source ids \[99\] outside window 1"):
        entry_from_record(record(source_dialogue_ids=[1, 99]), make_window(first=1, last=3))


def test_validate_rejects_empty_restatement_and_missing_sources():
    with pytest.raises(ValueError, match="^empty restatement; missing source_dialogue_ids$"):
        entry_from_record(record(lossless_restatement="  ", source_dialogue_ids=[]),
                          make_window())


def test_validate_coerces_date_only_event_time():
    entry = entry_from_record(record(timestamp="2024-01-01"), make_window())
    assert entry.event_time == "2024-01-01T00:00:00"


# -- extraction flow ---------------------------------------------------

def test_extract_entries_happy_path():
    window = make_window()
    backend = ScriptedBackend(rules=[
        FixtureRule(response=json.dumps([record()]), contains=("Dialogues:",))])
    entries = extract_entries(window, EXTRACTION_PROMPT, backend)
    assert len(entries) == 1
    assert entries[0].origin_window == 1
    assert entries[0].source_dialogue_ids == frozenset({1})


def test_extract_entries_repair_retry():
    window = make_window()
    backend = ScriptedBackend(rules=[
        FixtureRule(response="sorry, no JSON", contains=("Dialogues:",)),
        FixtureRule(response=json.dumps([record()]), contains=("Dialogues:",)),
    ])
    entries = extract_entries(window, EXTRACTION_PROMPT, backend)
    assert len(entries) == 1
    assert backend.usage.calls == 2
    assert "could not be parsed" in backend.request_log[1]


def test_extract_entries_double_parse_failure_surfaces():
    window = make_window()
    backend = ScriptedBackend(rules=[
        FixtureRule(response="junk", contains=("Dialogues:",)),
        FixtureRule(response="junk again", contains=("Dialogues:",)),
    ])
    with pytest.raises(ParseFailure):
        extract_entries(window, EXTRACTION_PROMPT, backend)


@pytest.mark.parametrize("second", ["valid", "cut"])
def test_extract_entries_repairs_a_cut_array(second):
    # the outer array does not decode, and its first inner list is empty:
    # that list must not pass for the payload
    valid = json.dumps([record()])
    cut = json.dumps([{"entities": [], **record()}])[:-10]
    window = make_window()
    backend = ScriptedBackend(rules=[
        FixtureRule(response=cut, contains=("Dialogues:",)),
        FixtureRule(response=valid if second == "valid" else cut,
                    contains=("Dialogues:",)),
    ])
    if second == "valid":
        assert len(extract_entries(window, EXTRACTION_PROMPT, backend)) == 1
    else:
        with pytest.raises(ParseFailure):
            extract_entries(window, EXTRACTION_PROMPT, backend)
    first, repair = backend.request_log
    assert repair.startswith(first + "\n\nYour previous reply could not be parsed")


def _drop_warnings(caplog):
    return [r for r in caplog.records
            if r.name == "trimem.extraction" and r.getMessage().startswith("dropping entry")]


def test_extract_entries_returns_survivors_and_logs_each_drop(caplog):
    window = make_window(first=1, last=3)
    good = record()
    bad = [record(lossless_restatement="Bob ran.", source_dialogue_ids=[50]),
           record(lossless_restatement="", source_dialogue_ids=[2])]
    backend = ScriptedBackend(rules=[
        FixtureRule(response=json.dumps([good, *bad]), contains=("Dialogues:",))])
    with caplog.at_level("WARNING", logger="trimem.extraction"):
        survivors = extract_entries(window, EXTRACTION_PROMPT, backend)
    assert [e.lossless_restatement for e in survivors] == [good["lossless_restatement"]]
    assert len(_drop_warnings(caplog)) == len(bad)
    assert len(backend.request_log) == 1


def test_extract_entries_drops_an_unparseable_timestamp_with_its_diagnostic(caplog):
    window = make_window(first=1, last=3)
    good = record()
    bad = record(lossless_restatement="Bob ran.", timestamp="sometime last spring")
    backend = ScriptedBackend(rules=[
        FixtureRule(response=json.dumps([good, bad]), contains=("Dialogues:",))])
    with caplog.at_level("WARNING", logger="trimem.extraction"):
        survivors = extract_entries(window, EXTRACTION_PROMPT, backend)
    assert [e.lossless_restatement for e in survivors] == [good["lossless_restatement"]]
    [warning] = _drop_warnings(caplog)
    assert "unparseable event_time: 'sometime last spring'" in warning.getMessage()


WRONG_TYPED_FIELDS = {
    "source-id-not-a-number": {"source_dialogue_ids": ["x"]},
    "keywords-not-a-list": {"keywords": 5},
    "persons-a-string": {"persons": "Alice"},
    "source-ids-a-string": {"source_dialogue_ids": "12"},
    "location-a-list": {"location": ["Rome"]},
    "location-a-number": {"location": 7},
    "timestamp-a-number": {"timestamp": 20240508},
    "restatement-a-number": {"lossless_restatement": 42},
    "restatement-an-object": {"lossless_restatement": {"a": 1}},
    "topic-a-list": {"topic": ["x", "y"]},
    "keywords-hold-a-null": {"keywords": ["Rome", None]},
    "source-id-a-numeric-string": {"source_dialogue_ids": ["1"]},
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPED_FIELDS))
def test_extract_entries_drops_a_wrong_typed_field(caplog, case):
    window = make_window(first=1, last=3)
    good = record()
    bad = record(**{"lossless_restatement": "Bob ran.", **WRONG_TYPED_FIELDS[case]})
    backend = ScriptedBackend(rules=[
        FixtureRule(response=json.dumps([good, bad]), contains=("Dialogues:",))])
    with caplog.at_level("WARNING", logger="trimem.extraction"):
        survivors = extract_entries(window, EXTRACTION_PROMPT, backend)
    assert [e.lossless_restatement for e in survivors] == [good["lossless_restatement"]]
    assert len(_drop_warnings(caplog)) == 1
    assert len(backend.request_log) == 1  # a bad entry makes no extra call


# -- one rule for a stored entry ------------------------------------------

REPLY_TEXTS = ["", "  ", "Maya", " maya ", "Bob  Lee", "he", "She", " they ", "2024-01-01",
               "2024-01-01 10:00", "2024-01-01T10:00:00+05:00", "not a date", "Rome"]
# a value of each kind a reply field can hold, anchors around the window's turns 1..4
REPLY_VALUES = {str: st.sampled_from(REPLY_TEXTS) | st.text(max_size=12),
                int: st.integers(-1, 6)}
REPLY_RECORDS = st.fixed_dictionaries({
    name: st.lists(REPLY_VALUES[kind[0]], max_size=3) if isinstance(kind, list)
    else st.none() | REPLY_VALUES[kind]
    for name, (kind, _) in _REPLY_FIELDS.items()})


def made_entry(rec, window):
    """The entry rec makes in window, whether entry_from_record accepts it
    or not: persons in display form, one per person key, and an event time
    coerced where it parses."""
    fields = read_object(drop_empty(rec), _REPLY_FIELDS)
    persons = {}
    for person in fields["persons"]:
        if person.strip():
            persons.setdefault(normalize_person_key(person), normalize_display(person))
    event_time = fields["timestamp"]
    return MemoryEntry(
        fields["lossless_restatement"], frozenset(fields["keywords"]),
        event_time and (_coerce_event_time(event_time) or event_time), fields["location"],
        frozenset(persons.values()), frozenset(fields["entities"]), fields["topic"],
        frozenset(fields["source_dialogue_ids"]), window.index)


@settings(max_examples=200, deadline=None)
@given(REPLY_RECORDS)
def test_entry_from_record_accepts_a_record_iff_a_store_holding_its_entry_loads(
        store_with_kind, rec):
    """In a one-window corpus the window's turns are the store's, so the
    reply path, insert_entries and load judge an entry by the same rule. A
    refused insert makes no embed call; load meets the entry as a crafted
    row of a store persisted with a placeholder entry."""
    window = make_window(first=1, last=4)
    entry = made_entry(rec, window)
    try:
        assert entry_from_record(rec, window) == entry
        accepted = True
    except ValueError:
        accepted = False
    store, backend = MemoryStore(turns=window.turns), ScriptedBackend()
    try:
        store.insert_entries([entry], backend)
        inserted = True
    except ValueError:
        inserted = False
        assert (len(store), backend.usage.calls) == (0, 0)
    crafted = MemoryStore(turns=window.turns)
    crafted.insert_entries([MemoryEntry("placeholder", source_dialogue_ids=frozenset({1}))],
                           ScriptedBackend())
    with tempfile.TemporaryDirectory() as tmp:
        crafted.persist(tmp)
        store_with_kind(tmp, "entries", [entry])
        try:
            MemoryStore.load(tmp)
            loads = True
        except StoreIOError:
            loads = False
    assert accepted == inserted == loads
