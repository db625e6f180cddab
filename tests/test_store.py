import gzip
import hashlib
import json
import operator
import struct
import tempfile
import warnings
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from trimem.backend import ScriptedBackend, hash_embedding
from trimem.corpus import DialogueTurn
from trimem.errors import (
    DimensionMismatch,
    EmptyIndex,
    SchemaVersionMismatch,
    StoreClosed,
    StoreIOError,
    UnknownEntry,
)
from trimem.extraction import MemoryEntry
from trimem.profiles import EntityProfile
from trimem.retrieval import SearchPlan, retrieve
from trimem.store import (
    _ENTRY_TYPES,
    _PROFILE_TYPES,
    _TURN_TYPES,
    SCHEMA_VERSION,
    VECTOR_MAGIC,
    MemoryStore,
    RetrievalConfig,
    _matrix_from_planes,
    _unit_rows,
    _vector_planes,
)


def make_turns(n):
    return [DialogueTurn(turn_id=i, session_id=0, speaker="A", text=f"t{i}")
            for i in range(1, n + 1)]


def make_entry(text, sources=(1,), persons=(), window=1):
    return MemoryEntry(lossless_restatement=text,
                       persons=frozenset(persons),
                       source_dialogue_ids=frozenset(sources),
                       origin_window=window)


@pytest.fixture
def backend():
    return ScriptedBackend()


# -- retrieval config --------------------------------------------------

def test_retrieval_config_defaults():
    config = RetrievalConfig()
    assert (config.top_k, config.anchor_count, config.profile_count,
            config.query_cap) == (25, 5, 2, 3)
    assert config.effective_per_query_k == 25
    assert config.use_search_plan


def test_retrieval_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(top_k=0)
    with pytest.raises(ValueError):
        RetrievalConfig(top_k=5, per_query_k=6)
    with pytest.raises(ValueError):
        RetrievalConfig(top_k=5, per_query_k=0)
    for bad in ({"anchor_count": -1}, {"profile_count": -2}, {"query_cap": 0}):
        with pytest.raises(ValueError):
            RetrievalConfig(**bad)
    assert RetrievalConfig(top_k=5, per_query_k=3).effective_per_query_k == 3
    assert RetrievalConfig(anchor_count=0, profile_count=0, query_cap=1)


# -- insertion and dedup -----------------------------------------------

def test_insert_assigns_sequential_ids(backend):
    store = MemoryStore(turns=make_turns(3))
    ids = store.insert_entries([make_entry("a fact", (1,)),
                                make_entry("b fact", (2,))], backend)
    assert ids == ["e000001", "e000002"]
    assert len(store) == 2
    assert store.entries["e000001"].entry_id == "e000001"


def test_insert_dedups_whitespace_normalized_restatement(backend):
    store = MemoryStore(turns=make_turns(3))
    ids = store.insert_entries([make_entry("a   fact\nhere", (1,)),
                                make_entry("a fact here", (2,))], backend)
    assert ids == ["e000001", "e000001"]
    assert len(store) == 1


def test_insert_dedup_across_calls(backend):
    store = MemoryStore(turns=make_turns(3))
    first = store.insert_entries([make_entry("same fact", (1,))], backend)
    second = store.insert_entries([make_entry("same fact", (2,))], backend)
    assert first == second == ["e000001"]


def test_sealed_store_rejects_writes(backend):
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry("x", (1,))], backend)
    store.seal()
    with pytest.raises(StoreClosed):
        store.insert_entries([make_entry("y", (1,))], backend)
    with pytest.raises(StoreClosed):
        store.add_profile(EntityProfile(entity_key="a", display_name="A",
                                        sections={"Identity": "x"}, version=1))


# -- similarity search -------------------------------------------------

def test_similarity_search_exact_and_tie_order(backend):
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry(f"fact number {i}", (1,))
                          for i in range(10)], backend)
    query = hash_embedding("fact number 3")
    results = store.similarity_search(query, k=3)
    scores = np.stack([store.vector_of(e) for e in store.insertion_order]) @ query
    order = sorted(range(10), key=lambda i: (-scores[i], i))
    assert [e for e, _ in results] == [store.insertion_order[i] for i in order[:3]]
    assert results[0][0] == "e000004"  # exact self-match wins
    assert results[0][1] == pytest.approx(1.0, abs=1e-5)


def test_similarity_search_ties_break_by_insertion(backend):
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry("aaa", (1,)), make_entry("bbb", (1,))],
                         backend)
    # force an exact tie: give both rows the same vector
    store._vectors[1] = store._vectors[0].copy()
    results = store.similarity_search(store._vectors[0], k=2)
    assert results[0][1] == results[1][1]
    assert [e for e, _ in results] == ["e000001", "e000002"]


def test_reads_of_a_sealed_or_loaded_store_write_nothing(backend, tmp_path):
    store = MemoryStore(turns=make_turns(3))
    for i in range(3):  # one index block per insert
        store.insert_entries([make_entry(f"fact {i}", (i + 1,))], backend)
    assert len(store._blocks) == 3
    store.seal()
    store.persist(tmp_path / "s")
    plan = SearchPlan(original_question="fact 1", queries=("fact 1", "fact 2"))
    for sealed in (store, MemoryStore.load(tmp_path / "s")):
        blocks = sealed._blocks
        found = list(blocks)
        assert len(found) == 1
        sealed.similarity_search(hash_embedding("fact 1"), k=2)
        sealed.vector_of("e000002")
        retrieve(plan, sealed, RetrievalConfig(top_k=2), backend)
        assert sealed._blocks is blocks and all(map(operator.is_, blocks, found))


def test_row_of_follows_the_entry_id(backend):
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry(f"fact {i}") for i in range(3)], backend)
    assert [store.row_of(e) for e in store.insertion_order] == [0, 1, 2]
    for unknown in ("e000004", "e000000", "x"):
        with pytest.raises(KeyError):
            store.row_of(unknown)
        with pytest.raises(KeyError):
            store.vector_of(unknown)


def tied_store(backend, n, groups):
    """A store of n rows in which the rows of each group share one vector."""
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry(f"fact {i}") for i in range(n)], backend)
    for group in groups:
        for row in group[1:]:
            store._vectors[row] = store._vectors[group[0]]
    return store


def full_sort(store, query):
    """The reference ranking: every row by (-score, row), scored with the
    query divided by its norm, as the engine scores."""
    scores = store._vectors @ (query / np.linalg.norm(query))
    rows = sorted(range(len(store)), key=lambda row: (-scores[row], row))
    return [(store.insertion_order[row], float(scores[row])) for row in rows]


@pytest.mark.parametrize("k", [1, 5, 6, 7, 100])
def test_similarity_search_k_at_or_past_the_store_size(backend, k):
    store = tied_store(backend, 6, [(1, 4)])
    query = hash_embedding("fact 4")
    assert store.similarity_search(query, k) == full_sort(store, query)[:k]


@pytest.mark.parametrize("k", [1, 3, 8])
def test_similarity_search_all_scores_equal(backend, k):
    store = tied_store(backend, 8, [range(8)])
    results = store.similarity_search(hash_embedding("q"), k)
    assert [e for e, _ in results] == store.insertion_order[:k]
    assert len({score for _, score in results}) == 1


@pytest.mark.parametrize("k", range(1, 13))
def test_similarity_search_ties_straddling_the_kth_place(backend, k):
    # rows 2, 5, 7 and 9 tie the best score and rows 0, 3, 8 and 11 the
    # second best, so some cut at k falls inside each group of ties
    store = tied_store(backend, 12, [(9, 2, 5, 7), (3, 0, 8, 11)])
    best = store._vectors[9]
    second = store._vectors[3]
    query = best + 0.5 * second
    results = store.similarity_search(query, k)
    assert results == full_sort(store, query)[:k]
    ids = [e for e, _ in results]
    assert ids[:4] == [store.insertion_order[r] for r in (2, 5, 7, 9)][:k]


def test_similarity_search_empty_index():
    store = MemoryStore(turns=make_turns(1))
    with pytest.raises(EmptyIndex):
        store.similarity_search(np.zeros(4), k=1)


def test_similarity_search_dim_mismatch(backend):
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry("x", (1,))], backend)
    with pytest.raises(DimensionMismatch):
        store.similarity_search(np.zeros(5, dtype=np.float32), k=1)


@pytest.mark.parametrize("query", [np.ones((64, 2)), np.full(64, np.nan), np.zeros(64)],
                         ids=["two-columns", "nan", "zero"])
def test_similarity_search_refuses_a_query_that_is_not_one_usable_row(backend, query):
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry("x", (1,))], backend)
    with pytest.raises(DimensionMismatch):
        store.similarity_search(query, k=1)


class ScaledBackend(ScriptedBackend):
    """Embeds each text as its hash embedding times its factor in scales, 1 if none."""

    def __init__(self, scales):
        super().__init__()
        self.scales = scales

    def _embed(self, texts):
        return [hash_embedding(t) * np.float32(self.scales.get(t, 1)) for t in texts]


def scaled_ranking(facts, queries, scales, top_k):
    """retrieve's ranked (id, score) list over a store of facts, with each
    inserted and each query vector scaled by its factor in scales."""
    backend = ScaledBackend(scales)
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry(text) for text in facts], backend)
    plan = SearchPlan(original_question=queries[0], queries=queries)
    ctx = retrieve(plan, store, RetrievalConfig(top_k=top_k), backend)
    return [(entry.entry_id, score) for entry, score in ctx.ranked_entries]


def test_a_long_query_vector_still_scores_cosines():
    # "fact 12" comes back ten times as long as "fact 7"; scored raw, its
    # match e000013 took 10.0 and pushed the exact match of "fact 7" out
    ranked = scaled_ranking([f"fact {i}" for i in range(30)], ("fact 7", "fact 12"),
                            {"fact 12": 10.0}, top_k=3)
    assert ranked[0][0] == "e000008"
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-6)


SCALED_FACTS = [f"fact {i}" for i in range(12)]
SCALED_QUERIES = ("where is fact 3", "fact 7 again", "a third question")


@settings(max_examples=40, deadline=None)
@given(st.fixed_dictionaries({text: st.integers(-8, 8)
                              for text in SCALED_FACTS + list(SCALED_QUERIES)}))
def test_retrieve_ranking_ignores_the_length_of_vectors(exponents):
    scales = {text: 2.0 ** exponent for text, exponent in exponents.items()}
    assert scaled_ranking(SCALED_FACTS, SCALED_QUERIES, scales, top_k=8) == \
        scaled_ranking(SCALED_FACTS, SCALED_QUERIES, {}, top_k=8)


@pytest.mark.parametrize("row", [np.ones(3), np.full(64, np.nan), np.full(64, np.inf),
                                 np.full(64, 1e-22, dtype=np.float32)],
                         ids=["another-size", "nan", "inf", "squares-below-float32-normal"])
def test_a_bad_embedding_row_adds_nothing(backend, monkeypatch, row):
    store = MemoryStore(turns=make_turns(2))
    store.insert_entries([make_entry("x", (1,))], backend)
    monkeypatch.setattr(backend, "_embed", lambda texts: [row] * len(texts))
    with pytest.raises(DimensionMismatch):
        store.insert_entries([make_entry("y", (2,))], backend)
    assert (len(store), store.dim, store._vectors.shape) == (1, 64, (1, 64))


def test_an_overflowing_embedding_is_refused_without_a_warning(backend, monkeypatch):
    """Squares past float32's range are refused as infinite, and numpy prints
    no RuntimeWarning, so an error stays one JSON object on stderr."""
    store = MemoryStore(turns=make_turns(2))
    store.insert_entries([make_entry("x", (1,))], backend)
    huge = np.full(64, 1e20, dtype=np.float32)
    monkeypatch.setattr(backend, "_embed", lambda texts: [huge] * len(texts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="not finite"):
            store.insert_entries([make_entry("y", (2,))], backend)
        with pytest.raises(DimensionMismatch, match="not finite"):
            store.similarity_search(huge, 1)
    assert (len(store), store._vectors.shape) == (1, (1, 64))


@pytest.mark.parametrize("k", [0, -1, -7])
def test_similarity_search_refuses_a_k_below_1(backend, k):
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry(f"fact {i}") for i in range(5)], backend)
    with pytest.raises(ValueError):
        store.similarity_search(hash_embedding("fact 1"), k)


def test_k_larger_than_store_truncates(backend):
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry("x", (1,))], backend)
    assert len(store.similarity_search(hash_embedding("x"), k=100)) == 1


# -- anchors -----------------------------------------------------------

@pytest.mark.parametrize("turn_ids", [(1, 1), (1, 3), (2, 1), (2,), (0, 1)],
                         ids=["repeated", "gapped", "out-of-order", "from-2", "from-0"])
def test_turn_ids_must_run_one_to_n_in_order(turn_ids):
    turns = [DialogueTurn(turn_id=i, session_id=0, speaker="A", text="t") for i in turn_ids]
    with pytest.raises(ValueError, match="turn ids must run 1..n in order"):
        MemoryStore(turns=turns)


def test_turn_i_is_turns_i_minus_1_of_the_corpus_tuple(fixture_corpus):
    store = MemoryStore.for_corpus(fixture_corpus)
    assert store.turns is fixture_corpus.turns
    assert all(store.turns[i - 1].turn_id == i for i in range(1, len(store.turns) + 1))


def test_recover_dialogue_returns_turns_in_order(backend):
    store = MemoryStore(turns=make_turns(5))
    store.insert_entries([make_entry("x", (4, 2))], backend)
    [(entry_id, turns)] = store.recover_dialogue(["e000001"])
    assert [t.turn_id for t in turns] == [2, 4]


def test_recover_dialogue_unknown_entry(backend):
    store = MemoryStore(turns=make_turns(1))
    with pytest.raises(UnknownEntry):
        store.recover_dialogue(["nope"])


@pytest.mark.parametrize("turn_id", [9, 3, 0, -1])  # turn ids run 1..2
def test_insert_refuses_an_anchor_outside_the_turns(backend, turn_id):
    """An anchor that recover_dialogue could not follow never gets stored."""
    store = MemoryStore(turns=make_turns(2))
    with pytest.raises(ValueError, match=rf"^entry e000001: source ids \[{turn_id}\] "
                                         r"outside turns 1\.\.2$"):
        store.insert_entries([make_entry("x", (2, turn_id))], backend)
    assert (len(store), backend.usage.calls) == (0, 0)


# entry changes that load refuses in a crafted store, and insert before its embed
# call; an anchor past the last turn is the test above
LOAD_REFUSED_ENTRIES = {"no-anchors": {"source_dialogue_ids": frozenset()},
                        "person-he": {"persons": frozenset({"he"})},
                        "event-time-not-a-date": {"event_time": "not a date"}}


@pytest.mark.parametrize("change", LOAD_REFUSED_ENTRIES.values(), ids=LOAD_REFUSED_ENTRIES)
def test_insert_refuses_an_entry_that_load_refuses(backend, change):
    store = MemoryStore(turns=make_turns(2))
    with pytest.raises(ValueError, match="^entry e000001: "):
        store.insert_entries([replace(make_entry("x"), **change)], backend)
    assert (len(store), backend.usage.calls) == (0, 0)


@pytest.mark.parametrize("speaker, stamp, fault", [
    ("", None, "speaker must be a non-empty string"), ("A", "not a date", "not a date")],
    ids=["speaker-empty", "timestamp-not-a-date"])
def test_the_constructor_refuses_a_turn_that_load_refuses(speaker, stamp, fault):
    with pytest.raises(ValueError, match=fault):
        MemoryStore(turns=[*make_turns(1), DialogueTurn(2, 0, speaker, "t", stamp)])


# -- profiles ----------------------------------------------------------

def profile(key, version, text="info"):
    return EntityProfile(entity_key=key, display_name=key.title(),
                         sections={"Identity": text}, version=version)


def test_profile_version_chain():
    store = MemoryStore()
    store.add_profile(profile("alice", 1))
    store.add_profile(profile("alice", 2, "more"))
    assert store.latest_profile("alice").version == 2
    assert len(store.profile_history) == 2
    with pytest.raises(ValueError):
        store.add_profile(profile("alice", 4))
    with pytest.raises(ValueError):
        store.add_profile(profile("bob", 2))


@pytest.mark.parametrize("bad", [
    {"entity_key": "Alice"}, {"entity_key": " alice"}, {"entity_key": ""},
    {"display_name": " "}, {"sections": {}}, {"sections": {" ": "info"}},
    {"sections": {"Identity": "info", "Career": ""}}, {"sections": {"Identity": ["info"]}}],
    ids=["key-not-folded", "key-padded", "key-empty", "name-blank", "no-section",
         "label-blank", "text-empty", "text-a-list"])
def test_add_profile_refuses_a_profile_that_breaks_the_rule(bad):
    store = MemoryStore()
    with pytest.raises(ValueError, match="blank or no string"):
        store.add_profile(EntityProfile(**{**vars(profile("alice", 1)), **bad}))
    assert store.profile_history == []


def test_profiles_for_preserves_request_order():
    store = MemoryStore()
    store.add_profile(profile("alice", 1))
    store.add_profile(profile("bob", 1))
    out = store.profiles_for(["bob", "missing", "alice"])
    assert [p.entity_key for p in out] == ["bob", "alice"]


# -- persistence -------------------------------------------------------

def build_small_store(backend):
    store = MemoryStore(turns=make_turns(4))
    store.insert_entries([
        make_entry("Alice visited Rome.", (1, 2), persons=("Alice",)),
        make_entry("Bob plays chess.", (3,), persons=("Bob",), window=2),
    ], backend)
    store.add_profile(profile("alice", 1))
    store.add_profile(profile("alice", 2, "updated"))
    store.seal()
    return store


def test_persist_load_round_trip(tmp_path, backend):
    store = build_small_store(backend)
    store.persist(tmp_path / "s")
    loaded = MemoryStore.load(tmp_path / "s")
    assert loaded.sealed
    assert loaded.insertion_order == store.insertion_order
    assert loaded.entries == store.entries
    assert loaded.turns == store.turns
    assert loaded.latest_profile("alice") == store.latest_profile("alice")
    assert len(loaded.profile_history) == 2
    for entry_id in store.insertion_order:
        assert np.array_equal(loaded.vector_of(entry_id), store.vector_of(entry_id))


def test_persist_is_byte_stable(tmp_path, backend):
    store = build_small_store(backend)
    store.persist(tmp_path / "a")
    store.persist(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["manifest.json", "records.json.gz", "vectors.bin"]
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
        if name.endswith(".gz"):  # no file name, zero timestamp
            assert (tmp_path / "a" / name).read_bytes()[3:8] == bytes(5)


def test_vector_file_header(tmp_path, backend):
    store = build_small_store(backend)
    store.persist(tmp_path / "s")
    raw = (tmp_path / "s" / "vectors.bin").read_bytes()
    assert raw[:4] == VECTOR_MAGIC
    version, dim, count = struct.unpack("<III", raw[4:16])
    assert (version, dim, count) == (SCHEMA_VERSION, 64, 2)
    # byte planes 0-2 of the little-endian float32 rows raw, then plane 3 as
    # one zlib stream that ends with the file
    size = dim * count
    rows = np.stack([store.vector_of(e) for e in store.insertion_order])
    planes = rows.astype("<f4").view(np.uint8).reshape(-1, 4).T
    assert raw[16:16 + 3 * size] == planes[:3].tobytes()
    inflater = zlib.decompressobj()
    assert inflater.decompress(raw[16 + 3 * size:]) == planes[3].tobytes()
    assert inflater.eof and not inflater.unused_data
    assert len(raw) < 16 + 4 * size


# sha256 of the schema-4 content that the fixture build persists: the
# records after gunzip, the vectors.bin header, and its byte planes with
# plane 3 inflated. The gzip and zlib bytes depend on the zlib build, so
# they are not pinned.
FIXTURE_STORE_DIGESTS = {
    "records.json": "1e850bd9b77b5dfa87213e12a77eac6991cd90c2a55f4731132498576c53a6c9",
    "vectors.bin header": "fb6dbe29da1352f0e181024c717f0057c1997e40591fd38520c69e10c096fbe1",
    "vectors.bin planes": "6f02e9db1fdc3c998c9a83fe7353072312e9c2801390391d43adac3b179ec98f",
}


def test_fixture_store_content_is_pinned(tmp_path, built_store):
    built_store.persist(tmp_path / "s")
    content = {"records.json": gzip.decompress(
        (tmp_path / "s" / "records.json.gz").read_bytes())}
    raw = (tmp_path / "s" / "vectors.bin").read_bytes()
    _, dim, count = struct.unpack_from("<III", raw, 4)
    size = dim * count
    content["vectors.bin header"] = raw[:16]
    content["vectors.bin planes"] = raw[16:16 + 3 * size] + zlib.decompress(raw[16 + 3 * size:])
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in content.items()} == FIXTURE_STORE_DIGESTS


EDGE_ROW = np.array([-0.0, 0.0, 1e-45, -1e-45, 1.1754942e-38, -1.1754944e-38,
                     3.4028235e38, -3.4028235e38] * 8, dtype=np.float32)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float32, st.tuples(st.integers(1, 4), st.just(64)),
                  elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
@example(EDGE_ROW.reshape(1, 64))
def test_any_finite_rows_persist_bit_for_bit(rows):
    """-0.0, subnormals and extreme exponents pass through the byte planes
    bit for bit, equal stores persist to equal bytes, and the unit rows
    ``_unit_rows`` makes of them load bit for bit."""
    count, dim = rows.shape
    body = b"".join(_vector_planes(rows))
    assert _matrix_from_planes(body, count, dim).tobytes() == rows.astype("<f4").tobytes()
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry(f"fact {i}") for i in range(count)], ScriptedBackend())
    store._vectors[:] = rows
    with tempfile.TemporaryDirectory() as tmp:
        store.persist(Path(tmp, "a"))
        store.persist(Path(tmp, "b"))
        raw = Path(tmp, "a", "vectors.bin").read_bytes()
        assert raw == Path(tmp, "b", "vectors.bin").read_bytes()
        try:
            store._vectors[:] = _unit_rows(rows)
        except DimensionMismatch:  # a norm that is zero, too small or not finite
            return
        store.persist(Path(tmp, "a"))
        loaded = MemoryStore.load(Path(tmp, "a"))
    assert loaded._vectors.dtype == np.float32
    assert loaded._vectors.shape == rows.shape
    assert loaded._vectors.tobytes() == store._vectors.tobytes()


TURN_ROWS = st.lists(st.tuples(st.sampled_from(["A", "Maya", " "] * 3 + [""]),
                               st.sampled_from([None, "2024-01-01T10:00:00",
                                                "2024-01-02"] * 3 + ["not a date"])),
                     min_size=1, max_size=4)
# an entry the rule takes over turns 1..2, then mostly no change, else one it refuses;
# restatements "fact a" and "fact  a" share a restatement key
ENTRIES = st.builds(
    lambda entry, change: replace(entry, **change),
    st.builds(MemoryEntry,
              lossless_restatement=st.sampled_from(["fact a", "fact  a", "fact b", "fact c"]),
              keywords=st.frozensets(st.sampled_from(["Rome", "chess"]), max_size=2),
              event_time=st.sampled_from([None, "2024-01-01T09:00:00"]),
              location=st.sampled_from([None, "Rome"]),
              persons=st.frozensets(st.sampled_from(["Maya", "Bob Lee"]), max_size=2),
              entities=st.frozensets(st.sampled_from(["chess", ""]), max_size=2),
              topic=st.sampled_from(["", "travel"]),
              source_dialogue_ids=st.frozensets(st.integers(1, 2), min_size=1),
              origin_window=st.integers(0, 2)),
    st.sampled_from([{}] * 30 + [
        {"lossless_restatement": " "}, {"source_dialogue_ids": frozenset()},
        {"source_dialogue_ids": frozenset({0, 1})}, {"source_dialogue_ids": frozenset({9})},
        {"persons": frozenset({"he"})}, {"keywords": frozenset({"It"})},
        {"persons": frozenset({" Maya"})}, {"event_time": "not a date"},
        {"event_time": "2024-01-01"}, {"origin_window": -1}, {"origin_window": 9}]))
# likewise a profile the rule takes as version 1 or 2 of its key, then maybe a change
PROFILES = st.builds(
    lambda profile, change: replace(profile, **change),
    st.builds(EntityProfile, entity_key=st.sampled_from(["maya", "bob"]),
              display_name=st.just("Maya"), version=st.integers(1, 2),
              window=st.integers(0, 2),
              sections=st.sampled_from([{"Identity": "x"}, {"Work": "y", "Identity": "x"}])),
    st.sampled_from([{}] * 10 + [{"entity_key": "Maya"}, {"display_name": " "},
                                 {"sections": {}}, {"sections": {" ": "x"}}]))


def state(store, backend):
    return (store.entries.copy(), store.profile_history, store._vectors.tobytes(),
            backend.usage.calls)


@settings(max_examples=200, deadline=None)
@given(TURN_ROWS, st.lists(st.lists(ENTRIES, min_size=1, max_size=4) | PROFILES,
                           min_size=1, max_size=6),
       st.booleans())
def test_a_store_the_doors_accept_loads_as_it_was(turn_rows, steps, sealed):
    """Whatever the constructor, insert_entries (in batches, with repeats) and
    add_profile accept persists to a store that load takes back whole: entries,
    order, turns, profile versions with their section order, vector bytes and
    the seal. A refused turn fails the constructor, and a refused step changes
    nothing and makes no embed call."""
    turns = [DialogueTurn(i, 0, speaker, f"turn {i}", stamp)
             for i, (speaker, stamp) in enumerate(turn_rows, 1)]
    if any(speaker == "" or stamp == "not a date" for speaker, stamp in turn_rows):
        with pytest.raises(ValueError):
            MemoryStore(turns=turns)
        return
    store, backend = MemoryStore(turns=turns), ScriptedBackend()
    for step in steps:
        before = state(store, backend)
        try:
            if isinstance(step, list):
                store.insert_entries(step, backend)
            else:
                store.add_profile(step)
        except ValueError:
            assert state(store, backend) == before
    if sealed:
        store.seal()
    with tempfile.TemporaryDirectory() as tmp:
        store.persist(tmp)
        loaded = MemoryStore.load(tmp)
    assert (loaded.entries, loaded.insertion_order, loaded.turns, loaded.sealed) == \
        (store.entries, store.insertion_order, store.turns, sealed)
    assert [(p, list(p.sections.items())) for p in loaded.profile_history] == \
        [(p, list(p.sections.items())) for p in store.profile_history]
    assert loaded._vectors.tobytes() == store._vectors.tobytes()


def test_empty_index_refuses_a_nonempty_plane_3(tmp_path, monkeypatch):
    """At count 0 plane 3 must inflate to nothing; a 1 MiB stream, with its
    checksum rewritten, is refused without being inflated whole."""
    MemoryStore(turns=make_turns(1)).persist(tmp_path / "s")
    assert len(MemoryStore.load(tmp_path / "s")) == 0
    vectors = tmp_path / "s" / "vectors.bin"
    raw = vectors.read_bytes()
    assert struct.unpack("<III", raw[4:16])[2] == 0
    vectors.write_bytes(raw[:16] + zlib.compress(bytes(1 << 20)))
    manifest_path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sha256"]["vectors.bin"] = hashlib.sha256(vectors.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))

    inflated = []
    real_decompressobj = zlib.decompressobj

    class Recording:
        def __init__(self, *args, **kwargs):
            self._inner = real_decompressobj(*args, **kwargs)

        def decompress(self, data, max_length=0):
            out = self._inner.decompress(data, max_length)
            inflated.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self._inner, name)

    monkeypatch.setattr(zlib, "decompressobj", Recording)
    with pytest.raises(StoreIOError, match="plane 3") as info:
        MemoryStore.load(tmp_path / "s")
    assert "sha256" not in str(info.value)
    assert inflated and max(inflated) < 1 << 10


def test_load_refuses_a_dimension_without_rows(tmp_path):
    """persist writes dim 0 for a store with no entries, so a vectors header
    and manifest that give an empty index a width describe no built store."""
    MemoryStore(turns=make_turns(1)).persist(tmp_path / "s")
    vectors, manifest_path = tmp_path / "s" / "vectors.bin", tmp_path / "s" / "manifest.json"
    raw = vectors.read_bytes()
    vectors.write_bytes(raw[:8] + struct.pack("<I", 64) + raw[12:])
    manifest = json.loads(manifest_path.read_text())
    manifest["dim"] = 64
    manifest["sha256"]["vectors.bin"] = hashlib.sha256(vectors.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreIOError, match="0 rows of dim 64"):
        MemoryStore.load(tmp_path / "s")


def test_column_tables_follow_the_field_order():
    """load builds every kind from its columns by position."""
    assert [*_ENTRY_TYPES, "entry_id"] == [f.name for f in fields(MemoryEntry)]
    assert list(_TURN_TYPES) == [f.name for f in fields(DialogueTurn)]
    # the profile columns in the order records.json.gz has always held them
    assert list(_PROFILE_TYPES) == [f.name for f in fields(EntityProfile)] == \
        ["entity_key", "display_name", "version", "window", "sections"]
    assert _PROFILE_TYPES["sections"][0] is dict


@pytest.mark.parametrize("dim", [1, 7, 33, 64, 384, 1536])
def test_unit_rows_divides_each_row_by_its_own_norm_bit_for_bit(dim):
    """The batched norms are each row's np.linalg.norm to the last bit, at
    every scale whose squares stay finite in float32."""
    rng = np.random.default_rng(dim)
    for scale in (1e-18, 1e-3, 1.0, 1e3, 1e17):
        block = (rng.standard_normal((50, dim)) * scale).astype(np.float32)
        # a row whose squared norm is below the smallest normal float32 is refused
        block = block[np.vecdot(block, block) >= np.finfo(np.float32).tiny]
        want = np.stack([row / np.linalg.norm(row) for row in block])
        assert _unit_rows(block).tobytes() == want.tobytes(), scale


def test_load_rejects_schema_mismatch(tmp_path, backend):
    store = build_small_store(backend)
    store.persist(tmp_path / "s")
    manifest = (tmp_path / "s" / "manifest.json")
    manifest.write_text(manifest.read_text().replace(
        f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 99'))
    with pytest.raises(SchemaVersionMismatch, match="trimem build --force"):
        MemoryStore.load(tmp_path / "s")


def test_load_rejects_another_schema_in_the_vector_header(tmp_path, backend):
    build_small_store(backend).persist(tmp_path / "s")
    vectors, manifest_path = tmp_path / "s" / "vectors.bin", tmp_path / "s" / "manifest.json"
    raw = bytearray(vectors.read_bytes())
    raw[4:8] = struct.pack("<I", SCHEMA_VERSION - 1)
    vectors.write_bytes(bytes(raw))
    manifest = json.loads(manifest_path.read_text())  # the checksum of the edited file
    manifest["sha256"]["vectors.bin"] = hashlib.sha256(bytes(raw)).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaVersionMismatch, match=f"vector file schema {SCHEMA_VERSION - 1}"):
        MemoryStore.load(tmp_path / "s")


def test_profile_sections_keep_their_order(tmp_path):
    store = MemoryStore()
    store.add_profile(EntityProfile(
        entity_key="alice", display_name="Alice", version=1,
        sections={"Identity": "a painter", "Career": "teaches",
                  "Beliefs/Spirituality": "none stated"}))
    store.persist(tmp_path / "s")
    loaded = MemoryStore.load(tmp_path / "s")
    assert loaded.profile_history == store.profile_history
    assert list(loaded.latest_profile("alice").sections) == \
        ["Identity", "Career", "Beliefs/Spirituality"]


def test_a_stored_profile_is_read_only(tmp_path, built_store):
    built_store.persist(tmp_path / "s")
    for store in (built_store, MemoryStore.load(tmp_path / "s")):
        key = store.profile_history[-1].entity_key
        sections = store.latest_profile(key).sections
        with pytest.raises(TypeError):
            sections["Identity"] = "rewritten"
        with pytest.raises(TypeError):
            del sections[next(iter(sections))]
    sections = {"Identity": "a painter"}
    profile = EntityProfile(entity_key="alice", display_name="Alice", sections=sections)
    sections["Identity"] = "rewritten"  # the profile holds its own copy
    assert profile.sections == {"Identity": "a painter"}


def test_load_rejects_non_store_dir(tmp_path):
    with pytest.raises(StoreIOError):
        MemoryStore.load(tmp_path)


def test_round_trip_search_identical(tmp_path, backend):
    store = build_small_store(backend)
    store.persist(tmp_path / "s")
    loaded = MemoryStore.load(tmp_path / "s")
    query = hash_embedding("Alice visited Rome.")
    assert store.similarity_search(query, 2) == loaded.similarity_search(query, 2)


def test_index_stays_joined_across_inserts_and_load(tmp_path, backend):
    texts = {}

    def insert(store, batch):
        ids = store.insert_entries([make_entry(t) for t in batch], backend)
        texts.update(zip(ids, batch))

    def check(store):
        """Rank against a brute-force loop over insertion order."""
        rows = []
        for entry_id in store.insertion_order:
            raw = hash_embedding(texts[entry_id])
            rows.append(raw / float(np.linalg.norm(raw)))
            assert store.vector_of(entry_id).tobytes() == rows[-1].tobytes()
        for text in ("fact 3", "fact 11", "another query"):
            query = hash_embedding(text)
            scores = np.stack(rows) @ query
            want = sorted(range(len(rows)), key=lambda row: (-scores[row], row))
            got = store.similarity_search(query, k=len(rows))
            assert got == [(store.insertion_order[row], float(scores[row]))
                           for row in want]

    store = MemoryStore(turns=make_turns(1))
    insert(store, [f"fact {i}" for i in range(8)])
    check(store)
    insert(store, [f"fact {i}" for i in range(4, 14)])
    check(store)
    store.persist(tmp_path / "s")
    loaded = MemoryStore.load(tmp_path / "s")
    assert not loaded.sealed
    check(loaded)
    insert(loaded, [f"fact {i}" for i in range(12, 20)])
    check(loaded)
    insert(loaded, ["fact 20"])
    check(loaded)
    assert len(loaded) == 21


class ZeroSecond(ScriptedBackend):
    def embed(self, texts):
        vectors = super().embed(texts)
        if len(vectors) > 1:
            vectors[1] = 0.0
        return vectors


def test_insert_rejects_a_bad_batch_whole(backend):
    store = MemoryStore(turns=make_turns(1))
    with pytest.raises(DimensionMismatch):
        store.insert_entries([make_entry("first"), make_entry("second")], ZeroSecond())
    assert (len(store), store.insertion_order, store.dim) == (0, [], None)
    assert store.insert_entries([make_entry("second")], backend) == ["e000001"]
    want = hash_embedding("second")
    assert store.vector_of("e000001").tobytes() == \
        (want / float(np.linalg.norm(want))).tobytes()


class BadBlock(ScriptedBackend):
    """Returns a bad block for any batch of two or more texts."""

    def __init__(self, shape):
        super().__init__()
        self.shape = shape

    def embed(self, texts):
        vectors = super().embed(texts)
        if len(texts) < 2:
            return vectors
        if self.shape == "ragged":
            return [vectors[0], vectors[1][:3], *vectors[2:]]
        if self.shape == "1-D":
            return vectors[0]
        if self.shape == "another-width":
            return vectors[:, :3]
        return vectors[:1]  # one row short


@pytest.mark.parametrize("shape", ["ragged", "1-D", "another-width", "one-row-short"])
def test_a_bad_embedding_block_adds_nothing(shape):
    backend = BadBlock(shape)
    store = MemoryStore(turns=make_turns(1))
    store.insert_entries([make_entry("x")], backend)
    with pytest.raises(DimensionMismatch):
        store.insert_entries([make_entry("x"), make_entry("y"), make_entry("z")], backend)
    assert (len(store), store.insertion_order, store.dim) == (1, ["e000001"], 64)
    assert store._vectors.shape == (1, 64)
    assert store.insert_entries([make_entry("z"), make_entry("x")], ScriptedBackend()) == \
        ["e000002", "e000001"]


class EmbedLog(ScriptedBackend):
    def __init__(self):
        super().__init__()
        self.batches = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return super().embed(texts)


def test_insert_repeat_inside_batch_keeps_vectors_aligned():
    backend = EmbedLog()
    store = MemoryStore(turns=make_turns(3))
    a, b = "Alice visited Rome.", "Bob plays chess."
    ids = store.insert_entries([make_entry(a), make_entry(a), make_entry(b)], backend)
    assert ids == ["e000001", "e000001", "e000002"]
    assert backend.batches == [[a, b]]
    want = hash_embedding(b)
    assert store.vector_of("e000002").tobytes() == \
        (want / float(np.linalg.norm(want))).tobytes()
