"""Dialogue corpus loading and sliding-window segmentation.

A corpus is a flat, ordered list of turns with stable 1-based IDs assigned
at load time. Segmentation slices the history into overlapping windows of
``window_size`` turns advancing by ``stride`` turns, so that utterances
spanning a boundary appear in both neighbouring windows.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Optional

from .backend import has_type
from .errors import DuplicateTurnId, EmptyCorpus, MalformedDocument, MissingFile


@dataclass(frozen=True)
class DialogueTurn:
    turn_id: int
    session_id: int
    speaker: str
    text: str
    timestamp: Optional[str] = None  # ISO 8601 or None


@dataclass(frozen=True)
class DialogueCorpus:
    corpus_id: str
    turns: tuple[DialogueTurn, ...]

    @property
    def turn_count(self) -> int:
        return len(self.turns)

    def turn(self, turn_id: int) -> DialogueTurn:
        if not 1 <= turn_id <= len(self.turns):
            raise KeyError(f"turn {turn_id} out of range 1..{len(self.turns)}")
        return self.turns[turn_id - 1]


@dataclass(frozen=True)
class SegmentationConfig:
    window_size: int = 40
    stride: int = 38

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 1 <= self.stride <= self.window_size:
            raise ValueError("stride must satisfy 1 <= stride <= window_size")


@dataclass(frozen=True)
class Window:
    index: int  # 1-based
    first_turn: int
    last_turn: int
    turns: tuple[DialogueTurn, ...]

    @property
    def turn_ids(self) -> frozenset[int]:
        return frozenset(t.turn_id for t in self.turns)


def _validate_timestamp(value, where: str) -> Optional[str]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise MalformedDocument(f"{where}: timestamp must be a string or null")
    try:
        datetime.fromisoformat(value)
    except ValueError:
        raise MalformedDocument(f"{where}: timestamp {value!r} is not ISO 8601")
    return value


def load_corpus(path) -> DialogueCorpus:
    """Load a corpus document and assign contiguous 1-based turn IDs.

    Accepts either the sessioned form ``{"corpus_id", "sessions": [...]}``
    or a flat ``{"turns": [...]}`` variant. A session's ``session_id``, if
    present, must be a JSON integer. Explicit ``turn_id`` fields, if
    present in the source, must match load order; duplicates or gaps are
    rejected.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{path}: top level must be an object")

    corpus_id = doc.get("corpus_id", path.stem)
    if "sessions" in doc:
        if not isinstance(doc["sessions"], list) or \
                not all(isinstance(sess, dict) for sess in doc["sessions"]):
            raise MalformedDocument(f"{path}: sessions must be a list of objects")
        sessioned = [
            (sess.get("session_id", i), sess.get("turns", []))
            for i, sess in enumerate(doc["sessions"])
        ]
    elif "turns" in doc:
        sessioned = [(0, doc["turns"])]
    else:
        raise MalformedDocument(f"{path}: expected 'sessions' or 'turns' key")

    turns: list[DialogueTurn] = []
    seen_ids: set[int] = set()
    next_id = 1
    for session_id, raw_turns in sessioned:
        if not has_type(session_id, int):
            raise MalformedDocument(f"{path}: session_id {session_id!r} is not an integer")
        if not isinstance(raw_turns, list):
            raise MalformedDocument(f"{path}: session {session_id}: turns must be a list")
        for rec_no, rec in enumerate(raw_turns):
            where = f"{path}: session {session_id} record {rec_no}"
            if not isinstance(rec, dict):
                raise MalformedDocument(f"{where}: turn must be an object")
            speaker = rec.get("speaker")
            if not isinstance(speaker, str) or not speaker:
                raise MalformedDocument(f"{where}: speaker must be a non-empty string")
            text = rec.get("text")
            if not isinstance(text, str):
                raise MalformedDocument(f"{where}: text must be a string")
            explicit = rec.get("turn_id")
            if explicit is not None:
                if explicit in seen_ids:
                    raise DuplicateTurnId(f"{where}: duplicate turn_id {explicit}")
                if explicit != next_id:
                    raise MalformedDocument(
                        f"{where}: turn_id {explicit} out of order (expected {next_id})"
                    )
                seen_ids.add(explicit)
            turns.append(
                DialogueTurn(
                    turn_id=next_id,
                    session_id=session_id,
                    speaker=speaker,
                    text=text,
                    timestamp=_validate_timestamp(rec.get("timestamp"), where),
                )
            )
            next_id += 1
    return DialogueCorpus(corpus_id=corpus_id, turns=tuple(turns))


def window_count(total_turns: int, window_size: int, stride: int) -> int:
    """Number of sliding windows over ``total_turns`` turns, clamped to >= 1."""
    n = math.ceil((total_turns - window_size) / stride) + 1
    return max(n, 1)


def segment(corpus: DialogueCorpus, config: SegmentationConfig) -> list[Window]:
    """Slice the corpus into overlapping windows over the full history;
    a window may span sessions."""
    if corpus.turn_count == 0:
        raise EmptyCorpus(corpus.corpus_id)
    turns = corpus.turns
    l, s = config.window_size, config.stride
    windows = []
    for i in range(1, window_count(len(turns), l, s) + 1):
        first = (i - 1) * s + 1
        last = min(len(turns), (i - 1) * s + l)
        windows.append(
            Window(
                index=i,
                first_turn=turns[first - 1].turn_id,
                last_turn=turns[last - 1].turn_id,
                turns=turns[first - 1:last],
            )
        )
    return windows


def render_turn(turn: DialogueTurn) -> str:
    """One turn as ``[ID:n] [timestamp] Speaker: text``; a turn without a
    timestamp omits the bracketed timestamp field entirely."""
    stamp = f" [{turn.timestamp}]" if turn.timestamp else ""
    return f"[ID:{turn.turn_id}]{stamp} {turn.speaker}: {turn.text}"


def render_window(window: Window) -> str:
    """Render a window one ``render_turn`` line per turn."""
    if not window.turns:
        raise ValueError("cannot render an empty window")
    return "\n".join(render_turn(t) for t in window.turns)
