"""The tri-granularity memory bank.

Holds three coexisting representation levels: the verbatim turn store, the
embedded fact index with exact top-K cosine search, and the profile
version history. ``_unit_rows`` scales both sides of the cosine, each index
row as it is inserted and each query, to unit length. All three persist
together under one store directory:

    records.json.gz  one JSON object {"entries": {column: [values]},
                     "turns": {...}, "profiles": {...}}, each kind's columns
                     the fields of its dataclass in field order, less an id:
                     entries in insertion order, turns in turn-id order,
                     profile versions as added
    vectors.bin      magic 'TRIM', then the byte planes of the little-endian
                     float32 (entry_count, dim) matrix: planes 0-2 raw, plane 3
                     as one Huffman-only zlib stream; row i is entry row i's vector
    manifest.json    schema version, dim, counts, sealed, the sha256 of each
                     data file; from ``build`` the config hash and prompt round

``persist`` makes the columns as ``load`` reads them back, kept by load's column rule
``_check_column``: a frozenset becomes a sorted list, a profile's sections a dict in their
order, and a value of another kind is a StoreIOError before anything is made. It writes
the three files in that order, each as its name plus ``.tmp``, then renames each over its
name, ``manifest.json`` last; on any failure it unlinks what it staged, so the old store
stays. A kill between two renames can leave a mix, which the sha256 check refuses.

Entry row i (from 1) is entry ``e{i:06d}``, as ``_admit`` numbers it, and turn row i is turn
i, as the constructor checks, so no id is stored; only the manifest states the schema
version, the width and the row counts. Equal stores persist byte-identical: the gzip header
holds no file name or timestamp, and ``zcat records.json.gz | python -m json.tool`` reads
the records. Plane k of ``vectors.bin`` is byte k of every value in row order. Plane 3 holds
each value's sign and top seven exponent bits, under 3 bits of entropy on unit-norm
embeddings, so a Huffman code alone shrinks it to a third; planes 0-2, mantissa bits close
to random, stay raw. Every value loads bit for bit.

``load`` checks the manifest's ``read_object`` fields and each data file's sha256 before it
parses anything, then each kind's columns, kinds and counts, the vectors magic, planes and
unit rows. The records go in through a build's doors, which keep each kind's rule: turns the
constructor, entries ``_admit``, profiles ``add_profile``. Any fault is a StoreIOError and
another schema version SchemaVersionMismatch; each data fault names ``trimem build --force``.
"""
from __future__ import annotations

import contextlib
import gzip
import hashlib
import itertools
import json
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .backend import REQUIRED, Backend, checked_block, fields_of, has_type, read_object
from .corpus import DialogueCorpus, DialogueTurn, check_turn
from .errors import (DimensionMismatch, EmptyIndex, SchemaVersionMismatch, StoreClosed,
                     StoreIOError, UnknownEntry, UsageError)
from .extraction import MemoryEntry, entry_faults, normalize_person_key, restatement_key
from .profiles import EntityProfile

SCHEMA_VERSION = 5
REBUILD = "rebuild it with `trimem build --force`"
VECTOR_MAGIC = b"TRIM"
GZIP_LEVEL = 6  # level 9 takes about 3x as long and saves under 0.5% of a store
DATA_FILES = ("records.json.gz", "vectors.bin")
STORE_FILES = (*DATA_FILES, "manifest.json")  # in the order persist writes and renames them
STAGED_FILES = {name: f"{name}.tmp" for name in STORE_FILES}  # each one's name while written
# the record parts of schemas 1-3, which persist deletes
_OLD_PARTS = [f"{kind}.jsonl{gz}" for kind in ("entries", "turns", "profiles")
              for gz in ("", ".gz")]


@dataclass(frozen=True)
class RetrievalConfig:
    """Knobs for top-K matching and anchor expansion.

    ``top_k`` may exceed the store size; results simply truncate.
    """
    top_k: int = 25
    per_query_k: Optional[int] = None  # defaults to top_k
    anchor_count: int = 5
    profile_count: int = 2
    query_cap: int = 3
    use_search_plan: bool = True

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        per_query = self.per_query_k
        if per_query is not None and not 1 <= per_query <= self.top_k:
            raise ValueError("per_query_k must satisfy 1 <= per_query_k <= top_k")
        if min(self.anchor_count, self.profile_count) < 0:
            raise ValueError("anchor_count and profile_count must be >= 0")
        if self.query_cap < 1:
            raise ValueError("query_cap must be >= 1")

    @property
    def effective_per_query_k(self) -> int:
        return self.per_query_k if self.per_query_k is not None else self.top_k


# each kind's columns in file order and their kinds, taken from its dataclass
# less the id its row gives, so load rebuilds every kind by position
_ENTRY_TYPES = fields_of(MemoryEntry, "entry_id")
_TURN_TYPES = fields_of(DialogueTurn, "turn_id")
_PROFILE_TYPES = fields_of(EntityProfile)
# the manifest keys load checks: persist writes the required ones, build adds
# config_hash and prompt_round, and any other key is ignored
_MANIFEST_FIELDS = {**dict.fromkeys(("schema_version", "dim", "entry_count", "turn_count",
                                     "profile_versions"), (int, REQUIRED)),
                    "sealed": (bool, REQUIRED), "sha256": (dict, REQUIRED),
                    "config_hash": (str, None), "prompt_round": (int, None)}
# the kinds in records.json.gz: each one's type table and manifest count
_KINDS = {"entries": (_ENTRY_TYPES, "entry_count"), "turns": (_TURN_TYPES, "turn_count"),
          "profiles": (_PROFILE_TYPES, "profile_versions")}


def _check_column(column, kind, count: int, what: str) -> list:
    """column, if a list of count values of kind by ``has_type``; else a ValueError naming what."""
    if has_type(column, [kind]) and len(column) == count:
        return column
    bad = [f" (row {i})" for i, v in enumerate(column, 1) if not has_type(v, kind)] \
        if type(column) is list else []
    raise ValueError(f"{what} is not {count} values of its kind{''.join(bad[:1])}")


def _columns(rows, types: dict, what: str) -> dict:
    """The columns of types over rows as load reads them back, each kept by ``_check_column``."""
    columns = {}
    for name, (kind, _) in types.items():
        values = [getattr(row, name) for row in rows]
        if isinstance(kind, list):  # only a frozenset is a set (None fails); checked, it sorts
            values = [list(value) if type(value) is frozenset else None for value in values]
        columns[name] = _check_column(list(map(dict, values)) if kind is dict else values,
                                      kind, len(rows), f"{what} column {name!r}")
        for members in values if isinstance(kind, list) else ():
            members.sort()
    return columns


def _read_columns(obj, types: dict, count: int, what: str) -> dict:
    """obj's columns, once it holds exactly types' columns, each kept by ``_check_column``."""
    if type(obj) is not dict or obj.keys() != types.keys():
        found = sorted(obj) if type(obj) is dict else type(obj).__name__
        raise ValueError(f"{what} hold {found}, not the columns {sorted(types)}")
    columns = {}
    for name, (kind, _) in types.items():
        column = _check_column(obj[name], kind, count, f"{what} column {name!r}")
        columns[name] = list(map(frozenset, column)) if isinstance(kind, list) else column
    return columns


def _vector_planes(matrix: np.ndarray) -> tuple:
    """The body of vectors.bin: byte planes 0-2 of the little-endian float32
    matrix, then plane 3 as one Huffman-only zlib stream."""
    planes = np.ascontiguousarray(matrix, dtype="<f4").view(np.uint8).reshape(-1, 4).T
    coder = zlib.compressobj(strategy=zlib.Z_HUFFMAN_ONLY)
    return (*(np.ascontiguousarray(planes[k]) for k in range(3)),
            coder.compress(np.ascontiguousarray(planes[3])) + coder.flush())


def _matrix_from_planes(body, count: int, dim: int) -> np.ndarray:
    """The (count, dim) float32 matrix whose byte planes body holds; a plane
    of the wrong length is a ValueError."""
    size = count * dim
    if len(body) < 3 * size:
        raise ValueError(f"vectors.bin planes 0-2 hold {len(body)} of {3 * size} bytes")
    values = np.empty((size, 4), dtype=np.uint8)
    for k in range(3):
        values[:, k] = np.frombuffer(body, dtype=np.uint8, count=size, offset=k * size)
    inflater = zlib.decompressobj()
    try:  # a max_length of 0 means no limit, so an empty index still caps at 1
        top = inflater.decompress(memoryview(body)[3 * size:], max(size, 1))
    except zlib.error as exc:
        raise ValueError(f"vectors.bin plane 3: {exc}")
    if len(top) != size or not inflater.eof or inflater.unused_data:
        raise ValueError(f"vectors.bin plane 3 is not one stream of {size} bytes")
    values[:, 3] = np.frombuffer(top, dtype=np.uint8)
    return values.view("<f4").reshape(count, dim)


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """block with each row divided by its ``np.linalg.norm``, bit for bit; a
    squared norm not finite or under float32's smallest normal, too coarse
    for a unit quotient, is DimensionMismatch."""
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        squares = np.vecdot(block, block)
    if not np.all((squares >= np.finfo(np.float32).tiny) & (squares < np.inf)):
        raise DimensionMismatch("embedding of norm zero, too small or not finite")
    return block / np.sqrt(squares)[:, None]


def store_paths(path) -> list[Path]:
    """Every path persist writes under store directory path: staged, then final."""
    return [Path(path) / name for name in (*STAGED_FILES.values(), *STORE_FILES)]


def refuse_non_empty(path: Path, hint: str) -> None:
    """Raise UsageError unless path is missing or an empty directory."""
    if path.exists() and (not path.is_dir() or any(path.iterdir())):
        raise UsageError(f"{path} is not an empty directory; {hint}")


def make_dir(path: Path) -> Path:
    """``path``, made a directory with its parents if missing; UsageError if
    it cannot be one."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make directory {path}: {exc.strerror}")
    return path


def write_bytes(path, *chunks, append: bool = False) -> str:
    """Write the byte chunks to path, one write each, after what it holds
    with append, and return their sha256; StoreIOError if it cannot be
    written. Every file trimem writes goes through here."""
    digest = hashlib.sha256()
    try:
        with Path(path).open("ab" if append else "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
    except OSError as exc:
        raise StoreIOError(str(exc))
    return digest.hexdigest()


def write_text(path, text: str) -> None:
    """``write_bytes`` of text as UTF-8."""
    write_bytes(path, text.encode("utf-8"))


def refuse_squatted(*paths) -> None:
    """StoreIOError, the class ``write_bytes`` would raise, if a directory
    holds the name of one of the output paths: a run calls this before its
    first model call, and it makes nothing."""
    for path in paths:
        if Path(path).is_dir():
            raise StoreIOError(f"cannot write {path}: a directory holds its name")


def write_json(path, obj) -> None:
    """Write obj to path as JSON: indent 2, sorted keys, a trailing newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


class MemoryStore:
    """Verbatim turns + embedded fact index + profile history."""

    def __init__(self, turns: Iterable[DialogueTurn] = ()):
        """Turn ids must run 1..n in order, each turn keep ``check_turn``; else ValueError."""
        self._turns: tuple[DialogueTurn, ...] = tuple(turns)
        for row, turn in enumerate(self._turns, 1):
            if turn.turn_id != row:
                raise ValueError(f"turn {row} of {len(self._turns)} has turn id "
                                 f"{turn.turn_id}; turn ids must run 1..n in order")
            check_turn(turn)
        self._entries: dict[str, MemoryEntry] = {}
        self._blocks: list[np.ndarray] = []  # one (rows, dim) block per insert
        self._by_restatement: dict[str, str] = {}
        self._profile_history: list[EntityProfile] = []
        self._latest_profile: dict[str, EntityProfile] = {}
        self._sealed = False

    @classmethod
    def for_corpus(cls, corpus: DialogueCorpus) -> "MemoryStore":
        return cls(turns=corpus.turns)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def turns(self) -> tuple[DialogueTurn, ...]:  # turn i is turns[i - 1]
        return self._turns

    @property
    def entries(self) -> Mapping[str, MemoryEntry]:  # read-only; e{i:06d} is row i-1
        return MappingProxyType(self._entries)

    @property
    def dim(self) -> Optional[int]:  # the index width; None until an entry is stored
        return self._blocks[0].shape[1] if self._entries else None

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Finish ingestion; the store becomes read-only and its index one block."""
        self._blocks = [self._vectors]
        self._sealed = True

    @property
    def insertion_order(self) -> list[str]:
        """The entry ids in row order, as a new list."""
        return list(self._entries)

    # -- fact index ------------------------------------------------------

    @property
    def _vectors(self) -> np.ndarray:
        """The (n, dim) float32 index; row i holds entry ``e{i+1:06d}``. Inserts
        append blocks and ``seal`` joins them, so a read writes nothing."""
        if len(self._blocks) == 1:
            return self._blocks[0]
        if not self._blocks:
            return np.empty((0, 0), dtype=np.float32)
        return np.concatenate(self._blocks)

    def row_of(self, entry_id: str) -> int:
        """The entry's row in the index: entry ``e{i:06d}`` is row i-1."""
        if entry_id not in self._entries:
            raise KeyError(entry_id)
        return int(entry_id[1:]) - 1

    def insert_entries(self, entries: Sequence[MemoryEntry],
                       backend: Backend) -> list[str]:
        """Embed restatements and add entries, deduplicating exact repeats.

        Restatements with the same ``restatement_key`` map to the already-stored id instead
        of creating a new row; a restatement repeated within the batch is embedded once, at
        its first copy. The new restatements go out in one ``backend.embed`` call, one
        round-trip per ``EMBED_BATCH`` texts, so ``build_store`` indexes a whole build with
        one insert. An entry with a field of another kind than ``persist`` stores, or a new
        entry that ``_admit`` refuses, is a ValueError before that call. The block that
        comes back is checked by ``checked_block``, since an ``embed`` override may skip its
        check, and scaled by ``_unit_rows``. A refused entry or block, or a budget that runs
        out between slices, leaves the store as it was. The new rows join the index as one
        block.
        """
        _columns(entries, _ENTRY_TYPES, "entries")  # the kinds, before the checks that read them
        keys = [restatement_key(entry.lossless_restatement) for entry in entries]
        new: dict[str, MemoryEntry] = {}  # restatement key -> its first new entry
        for key, entry in zip(keys, entries):
            if key not in self._by_restatement:
                new.setdefault(key, entry)
        self._admit(list(new.values()), lambda: _unit_rows(checked_block(backend.embed(
            [e.lossless_restatement for e in new.values()]), len(new), self.dim)))
        return [self._by_restatement[key] for key in keys]

    def _admit(self, entries: Sequence[MemoryEntry], rows: Callable[[], np.ndarray]) -> None:
        """Add entries as the next rows under their rows' ids, ``rows()`` their unit
        vectors (insert, load): the one writer of entries, ``_blocks`` and ``_by_restatement``.
        An entry that breaks ``entry_faults`` over turns 1..n, or whose restatement key is
        stored or repeats, is a ValueError before ``rows()``; nothing changes."""
        if self._sealed:
            raise StoreClosed("store is sealed")
        ids = [f"e{row:06d}" for row in range(len(self) + 1, len(self) + len(entries) + 1)]
        turn_ids, where, keys = range(1, len(self._turns) + 1), f"turns 1..{len(self._turns)}", {}
        for entry_id, entry in zip(ids, entries):
            if faults := entry_faults(entry, turn_ids, where):
                raise ValueError(f"entry {entry_id}: {'; '.join(faults)}")
            key = restatement_key(entry.lossless_restatement)
            first = self._by_restatement.get(key) or keys.setdefault(key, entry_id)
            if first != entry_id:
                raise ValueError(f"entry {entry_id} repeats the restatement of {first}")
        if entries:
            self._blocks.append(rows())
            self._entries.update((i, e if e.entry_id == i else replace(e, entry_id=i))
                                for i, e in zip(ids, entries))
            self._by_restatement.update(keys)

    def vector_of(self, entry_id: str) -> np.ndarray:
        """The entry's unit vector: a read-only view of its index row."""
        row = self._vectors[self.row_of(entry_id)]
        row.flags.writeable = False
        return row

    def similarity_search(self, query_vector: np.ndarray,
                          k: int) -> list[tuple[str, float]]:
        """Exact cosine top-k over the whole index, ties by insertion order.

        The query must pass ``checked_block`` as one row of the index width,
        and is scaled to unit length as the index rows are, so a score is a
        cosine whatever the length of the provider's vectors.
        A partial sort picks the k best rows; every row that ties the k-th
        score joins them, so the cut at k falls by (-score, row) as a full
        stable sort would; a k below 1 is a ValueError.
        """
        if not self._entries:
            raise EmptyIndex("no entries in store")
        [query] = _unit_rows(checked_block([query_vector], 1, self.dim))
        scores = self._vectors @ query
        cut = max(len(scores) - k, 0)  # the k-th best score's place in ascending order
        rows = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        order = rows[np.lexsort((rows, -scores[rows]))][:k]
        return [(f"e{i + 1:06d}", float(scores[i])) for i in order]

    # -- verbatim recovery ----------------------------------------------

    def recover_dialogue(self, entry_ids: Sequence[str]) -> list[tuple[str, list[DialogueTurn]]]:
        """For each entry, its anchored source turns in turn-id order (``_admit``
        keeps every anchor in 1..n); an id not stored is UnknownEntry."""
        for entry_id in entry_ids:
            if entry_id not in self._entries:
                raise UnknownEntry(entry_id)
        return [(entry_id, [self._turns[turn_id - 1] for turn_id in sorted(
            self._entries[entry_id].source_dialogue_ids)]) for entry_id in entry_ids]

    # -- profiles --------------------------------------------------------

    def add_profile(self, profile: EntityProfile) -> None:
        """Add a profile version (build, load). ValueError but for a ``normalize_person_key``
        key, a section, non-blank string key, name, labels and texts, and the key's next version."""
        if self._sealed:
            raise StoreClosed("store is sealed")
        key, sections = profile.entity_key, profile.sections
        texts = [key, profile.display_name, *sections, *sections.values()]
        if not sections or not all(type(text) is str and text.strip() for text in texts) \
                or key != normalize_person_key(key):
            raise ValueError(f"profile {key!r}: a key not normalized, no section, or a "
                             f"key, name, label or text that is blank or no string")
        latest = self._latest_profile.get(key)
        expected = (latest.version if latest else 0) + 1
        if profile.version != expected:
            raise ValueError(f"profile {key} version {profile.version}, expected {expected}")
        self._profile_history.append(profile)
        self._latest_profile[profile.entity_key] = profile

    def latest_profile(self, entity_key: str) -> Optional[EntityProfile]:
        return self._latest_profile.get(entity_key)

    def profiles_for(self, persons: Sequence[str]) -> list[EntityProfile]:
        """Latest profiles for the requested keys, request order, missing omitted."""
        return [self._latest_profile[key] for key in persons if key in self._latest_profile]

    @property
    def profile_history(self) -> list[EntityProfile]:
        return list(self._profile_history)

    # -- persistence -----------------------------------------------------

    def persist(self, path, manifest_extra: Optional[dict] = None) -> None:
        path = Path(path)
        rows = dict(zip(_KINDS, (list(self._entries.values()), self._turns, self._profile_history)))
        staged = {name: path / staged_name for name, staged_name in STAGED_FILES.items()}
        try:  # the columns first, so a store they refuse makes nothing
            records = {kind: _columns(rows[kind], types, kind)
                       for kind, (types, _) in _KINDS.items()}
            path.mkdir(parents=True, exist_ok=True)
            # not sort_keys: columns stay in table order, sections in theirs
            text = json.dumps(records, separators=(",", ":")).encode("utf-8")
            digests = {
                "records.json.gz": write_bytes(staged["records.json.gz"], gzip.compress(
                    text, compresslevel=GZIP_LEVEL, mtime=0)),
                "vectors.bin": write_bytes(staged["vectors.bin"], VECTOR_MAGIC,
                                           *_vector_planes(self._vectors))}
            manifest = {"schema_version": SCHEMA_VERSION, "dim": self.dim or 0,
                        "sealed": self._sealed,
                        **{count: len(rows[kind]) for kind, (_, count) in _KINDS.items()},
                        "sha256": digests, **(manifest_extra or {})}
            write_json(staged["manifest.json"], manifest)
            for name in _OLD_PARTS:
                (path / name).unlink(missing_ok=True)
            for name, staged_path in staged.items():  # manifest.json last
                staged_path.replace(path / name)
        except (OSError, ValueError) as exc:  # a file it cannot write, a value it cannot store
            raise StoreIOError(f"{path}: {exc}")
        finally:  # nothing staged outlives persist; the first error is the one raised
            for staged_path in staged.values():
                with contextlib.suppress(OSError):
                    staged_path.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "MemoryStore":
        path = Path(path)
        manifest_path = path / "manifest.json"
        if not manifest_path.exists():
            raise StoreIOError(f"{path}: not a store directory (missing manifest.json)")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            version = manifest.get("schema_version") if isinstance(manifest, dict) else None
            if type(version) is int and version != SCHEMA_VERSION:
                raise SchemaVersionMismatch(
                    f"store schema {version} != {SCHEMA_VERSION}; {REBUILD}")
            manifest = read_object(manifest, _MANIFEST_FIELDS)
        except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            raise StoreIOError(f"{manifest_path}: {exc}")

        try:
            if sorted(manifest["sha256"]) != sorted(DATA_FILES):
                raise ValueError(f"manifest lists checksums of {sorted(manifest['sha256'])}, "
                                 f"not of the data files {sorted(DATA_FILES)}")
            parts = {name: (path / name).read_bytes() for name in DATA_FILES}
            for name, data in parts.items():
                if hashlib.sha256(data).hexdigest() != manifest["sha256"][name]:
                    raise ValueError(f"{name}: sha256 does not match manifest.json")
            records = json.loads(gzip.decompress(parts["records.json.gz"]))
            if type(records) is not dict or records.keys() != _KINDS.keys():
                raise ValueError(f"records.json.gz does not hold exactly {list(_KINDS)}")
            entries, turns, profiles = (
                _read_columns(records[kind], types, manifest[count], kind)
                for kind, (types, count) in _KINDS.items())
            raw, dim, count = parts["vectors.bin"], manifest["dim"], manifest["entry_count"]
            if raw[:4] != VECTOR_MAGIC:
                raise ValueError(f"bad vector file magic {raw[:4]!r}")
            if bool(count) != bool(dim):
                raise ValueError(f"manifest lists {count} entries of dim {dim}")
            store = cls(itertools.starmap(DialogueTurn, zip(itertools.count(1), *turns.values())))
            vectors = _matrix_from_planes(memoryview(raw)[4:], count, dim)
            # unit rows, within float32 rounding; a value past 1 fails before it is squared
            tol = 2 * (dim + 1) * np.finfo(np.float32).eps
            if count and not (-1 - tol <= vectors.min() and vectors.max() <= 1 + tol and
                              np.all(np.abs(np.vecdot(vectors, vectors) - 1) <= tol)):
                raise ValueError("vectors.bin holds a row that is not of unit length")
            store._admit([MemoryEntry(*values, f"e{row:06d}") for row, values in
                          enumerate(zip(*entries.values()), 1)], lambda: vectors)
            for profile in itertools.starmap(EntityProfile, zip(*profiles.values())):
                store.add_profile(profile)
        except (OSError, EOFError, zlib.error, KeyError, TypeError, ValueError) as exc:
            hint = "" if isinstance(exc, OSError) else f"; {REBUILD}"  # a data fault, not a disk's
            raise StoreIOError(f"{path}: {type(exc).__name__}: {exc}{hint}")
        if manifest["sealed"]:
            store.seal()
        return store

    def verify_anchors(self) -> None:
        """Recover every entry's turns, which cannot fail; kept for perfbench's callers."""
        self.recover_dialogue(list(self._entries))
