import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trimem.cli import main
from trimem.corpus import (
    DialogueCorpus,
    DialogueTurn,
    SegmentationConfig,
    load_corpus,
    render_window,
    segment,
    window_count,
)
from trimem.errors import (EXIT_DATA, DuplicateTurnId, EmptyCorpus, MalformedDocument,
                           MissingFile, StoreIOError)
from trimem.store import MemoryStore


def make_corpus(n, timestamps=False):
    turns = []
    for i in range(1, n + 1):
        turns.append(DialogueTurn(
            turn_id=i, session_id=0,
            speaker="A" if i % 2 else "B", text=f"turn {i}",
            timestamp=f"2024-01-01T00:{i % 60:02d}:00" if timestamps else None))
    return DialogueCorpus(corpus_id="t", turns=tuple(turns))


# -- loading -----------------------------------------------------------

def test_load_flat_turns(tmp_path):
    doc = {"turns": [{"speaker": "A", "text": "hi"},
                     {"speaker": "B", "text": "yo"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    corpus = load_corpus(path)
    assert corpus.turn_count == 2
    assert [t.turn_id for t in corpus.turns] == [1, 2]
    assert corpus.turns[1].speaker == "B"


def test_load_sessioned_assigns_global_ids(tmp_path):
    doc = {"corpus_id": "x", "sessions": [
        {"session_id": 7, "turns": [{"speaker": "A", "text": "a"}]},
        {"session_id": 9, "turns": [{"speaker": "B", "text": "b"},
                                    {"speaker": "A", "text": "c"}]},
    ]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    corpus = load_corpus(path)
    assert corpus.corpus_id == "x"
    assert [t.turn_id for t in corpus.turns] == [1, 2, 3]
    assert [t.session_id for t in corpus.turns] == [7, 9, 9]


@pytest.mark.parametrize("session_id", ["1", 2.7, True, "x", None])
def test_load_rejects_a_non_integer_session_id(tmp_path, session_id):
    doc = {"sessions": [{"session_id": session_id,
                         "turns": [{"speaker": "A", "text": "a"}]}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument, match="session_id"):
        load_corpus(path)


@pytest.mark.parametrize("sessions", [5, "s", {"turns": []}, [1], [{"turns": []}, None]])
def test_load_rejects_sessions_that_are_not_a_list_of_objects(tmp_path, sessions):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sessions": sessions}))
    with pytest.raises(MalformedDocument,
                       match=r"sessions has the wrong type|session \d+: not a JSON object"):
        load_corpus(path)


TURN = {"speaker": "A", "text": "a"}


@pytest.mark.parametrize("doc", [
    {"turns": [{**TURN, "turn_id": True}]},
    {"turns": [TURN, {**TURN, "turn_id": 2.0}]},
    {"corpus_id": 5, "turns": [TURN]},
    {"corpus_id": ["x"], "turns": [TURN]},
], ids=["turn-id-true", "turn-id-2.0", "corpus-id-5", "corpus-id-a-list"])
def test_load_rejects_a_wrong_typed_turn_id_or_corpus_id(tmp_path, capsys, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument, match="(turn|corpus)_id has the wrong type"):
        load_corpus(path)
    assert main(["ingest", "--corpus", str(path)]) == EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"] == "MalformedDocument"


def test_load_takes_null_optional_fields_and_ignores_extra_ones(tmp_path):
    doc = {"corpus_id": "x", "sessions": [{"turns": [
        {**TURN, "turn_id": None, "timestamp": None, "blip_caption": "a dog"},
        {**TURN, "turn_id": 2, "timestamp": "2024-01-01T10:00:00"}]}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert load_corpus(path) == DialogueCorpus("x", (
        DialogueTurn(1, 0, "A", "a"), DialogueTurn(2, 0, "A", "a", "2024-01-01T10:00:00")))


def test_load_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_corpus(tmp_path / "nope.json")


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(MalformedDocument):
        load_corpus(path)


def test_load_rejects_duplicate_turn_id(tmp_path):
    doc = {"turns": [{"turn_id": 1, "speaker": "A", "text": "a"},
                     {"turn_id": 1, "speaker": "B", "text": "b"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises((DuplicateTurnId, MalformedDocument)):
        load_corpus(path)


def test_an_explicit_turn_id_below_the_next_one_is_a_duplicate(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"turns": [TURN, {**TURN, "turn_id": 1}]}))
    with pytest.raises(DuplicateTurnId, match="record 1: duplicate turn_id 1"):
        load_corpus(path)


def test_load_rejects_out_of_order_turn_id(tmp_path):
    doc = {"turns": [{"turn_id": 2, "speaker": "A", "text": "a"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument):
        load_corpus(path)


@pytest.mark.parametrize("doc, fault", [
    ({"corpus_id": "x"}, "expected 'sessions' or 'turns' key"),
    ({"turns": [{"speaker": "", "text": "a"}]}, "speaker must be a non-empty string"),
], ids=["neither-sessions-nor-turns", "empty-speaker"])
def test_load_rejects_a_corpus_without_turns_or_a_turn_without_a_speaker(tmp_path, doc, fault):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument, match=fault):
        load_corpus(path)


def test_load_rejects_bad_timestamp(tmp_path):
    doc = {"turns": [{"speaker": "A", "text": "a", "timestamp": "yesterday"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument):
        load_corpus(path)


TURN_TEXTS = ["", " ", "A", "Maya", "2024-01-01", "2024-01-01T10:00:00", "2024-13-01",
              "yesterday"]
TURN_VALUES = st.sampled_from(TURN_TEXTS) | st.text(max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({"speaker": TURN_VALUES, "text": TURN_VALUES,
                              "timestamp": st.none() | TURN_VALUES}))
def test_load_corpus_accepts_a_turn_iff_a_store_holding_it_loads(store_with_kind, rec):
    """load_corpus, the MemoryStore constructor and load judge a turn by one
    rule; load meets the turn as a crafted row of a persisted one-turn store."""
    turn = DialogueTurn(1, 0, rec["speaker"], rec["text"], rec["timestamp"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "c.json")
        path.write_text(json.dumps({"turns": [rec]}))
        try:
            assert load_corpus(path).turns == (turn,)
            accepted = True
        except MalformedDocument:
            accepted = False
        try:
            MemoryStore(turns=[turn])
            made = True
        except ValueError:
            made = False
        MemoryStore(turns=[DialogueTurn(1, 0, "A", "a")]).persist(Path(tmp, "s"))
        store_with_kind(Path(tmp, "s"), "turns", [turn])
        try:
            MemoryStore.load(Path(tmp, "s"))
            loads = True
        except StoreIOError:
            loads = False
    assert accepted == made == loads


# -- window count ------------------------------------------------------

def test_window_count_examples():
    assert window_count(300, 40, 38) == 8
    assert window_count(40, 40, 38) == 1
    assert window_count(10, 40, 38) == 1
    assert window_count(1, 40, 38) == 1
    assert window_count(41, 40, 38) == 2


def test_segment_fixed_case_300():
    corpus = make_corpus(300)
    windows = segment(corpus, SegmentationConfig(window_size=40, stride=38))
    assert len(windows) == 8
    assert (windows[0].first_turn, windows[0].last_turn) == (1, 40)
    assert (windows[-1].first_turn, windows[-1].last_turn) == (267, 300)
    assert [w.index for w in windows] == list(range(1, 9))


def test_segment_empty_corpus():
    corpus = DialogueCorpus(corpus_id="e", turns=())
    with pytest.raises(EmptyCorpus):
        segment(corpus, SegmentationConfig())


def test_segmentation_config_validation():
    with pytest.raises(ValueError):
        SegmentationConfig(window_size=0)
    with pytest.raises(ValueError):
        SegmentationConfig(window_size=10, stride=11)
    with pytest.raises(ValueError):
        SegmentationConfig(window_size=10, stride=0)


# -- properties --------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_segmentation_invariants(data):
    t = data.draw(st.integers(min_value=1, max_value=2000))
    l = data.draw(st.integers(min_value=1, max_value=100))
    s = data.draw(st.integers(min_value=1, max_value=l))
    corpus = make_corpus(t)
    windows = segment(corpus, SegmentationConfig(window_size=l, stride=s))

    expected = max(math.ceil((t - l) / s) + 1, 1)
    assert len(windows) == expected
    # full coverage, in order, no gaps
    assert windows[0].first_turn == 1
    assert windows[-1].last_turn == t
    for i, w in enumerate(windows, 1):
        assert w.index == i
        assert w.first_turn == (i - 1) * s + 1
        assert w.last_turn == min(t, (i - 1) * s + l)
        assert [x.turn_id for x in w.turns] == list(range(w.first_turn, w.last_turn + 1))
    for prev, nxt in zip(windows, windows[1:]):
        assert nxt.first_turn <= prev.last_turn + 1  # no gap
        overlap = prev.last_turn - nxt.first_turn + 1
        assert overlap == min(l - s, prev.last_turn - prev.first_turn + 1 - s) or overlap <= l - s


# -- rendering ---------------------------------------------------------

def test_render_window_with_timestamps():
    corpus = make_corpus(2, timestamps=True)
    [w] = segment(corpus, SegmentationConfig(window_size=2, stride=2))
    assert render_window(w) == (
        "[ID:1] [2024-01-01T00:01:00] A: turn 1\n"
        "[ID:2] [2024-01-01T00:02:00] B: turn 2")


def test_render_window_omits_missing_timestamp():
    corpus = make_corpus(1)
    [w] = segment(corpus, SegmentationConfig(window_size=1, stride=1))
    assert render_window(w) == "[ID:1] A: turn 1"
