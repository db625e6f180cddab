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

from .backend import REQUIRED, read_input, read_object
from .errors import DuplicateTurnId, EmptyCorpus, MalformedDocument


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
    turns: tuple[DialogueTurn, ...]

    @property
    def first_turn(self) -> int:
        return self.turns[0].turn_id

    @property
    def last_turn(self) -> int:
        return self.turns[-1].turn_id

    @property
    def turn_ids(self) -> range:  # a window is a run of consecutive turns
        return range(self.first_turn, self.last_turn + 1)


# a turn's fields; the README's "Input documents" gives every corpus field
_TURN_FIELDS = {"speaker": (str, REQUIRED), "text": (str, REQUIRED),
                "turn_id": ((int, type(None)), None), "timestamp": ((str, type(None)), None)}


def check_turn(turn: DialogueTurn) -> DialogueTurn:
    """turn, if it keeps load_corpus's and load's rule: a speaker, an ISO 8601 timestamp or None."""
    if not turn.speaker or type(turn.timestamp) not in (str, type(None)):
        raise ValueError(f"turn {turn.turn_id}: speaker must be a non-empty string, "
                         f"timestamp a string or None")
    if turn.timestamp is not None:
        datetime.fromisoformat(turn.timestamp)  # its ValueError names the timestamp
    return turn


def load_corpus(path) -> DialogueCorpus:
    """Load a corpus document and assign contiguous 1-based turn IDs.

    Accepts either the sessioned form ``{"corpus_id", "sessions": [...]}``
    or a flat ``{"turns": [...]}`` variant, each object read through a field
    table, after ``read_input``. A ``turn_id``, if present in the source,
    must match load order: an id that an earlier turn holds is
    DuplicateTurnId, and any other fault is MalformedDocument.
    """
    path = Path(path)
    try:
        doc = json.loads(read_input(path).decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except RecursionError as exc:  # nested too deep to decode
        raise MalformedDocument(f"{path}: invalid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path}: not UTF-8: {exc}")

    turns: list[DialogueTurn] = []
    where = str(path)
    try:
        top = read_object(doc, {"corpus_id": (str, path.stem), "sessions": (list, None)})
        sessions = top["sessions"]
        if sessions is None:
            if "turns" not in doc:
                raise ValueError("expected 'sessions' or 'turns' key")
            sessions = [{"turns": doc["turns"]}]
        for i, raw_session in enumerate(sessions):
            where = f"{path}: session {i}"
            session = read_object(raw_session, {"session_id": (int, i), "turns": (list, [])})
            for rec_no, rec in enumerate(session["turns"]):
                where = f"{path}: session {session['session_id']} record {rec_no}"
                fields = read_object(rec, _TURN_FIELDS)
                explicit, next_id = fields["turn_id"], len(turns) + 1
                if explicit is not None and 0 < explicit < next_id:
                    raise DuplicateTurnId(f"{where}: duplicate turn_id {explicit}")
                if explicit not in (None, next_id):
                    raise ValueError(f"turn_id {explicit} out of order (expected {next_id})")
                turns.append(check_turn(DialogueTurn(next_id, session["session_id"],
                    fields["speaker"], fields["text"], fields["timestamp"])))
    except ValueError as exc:  # a field table's fault, or a turn that breaks check_turn
        raise MalformedDocument(f"{where}: {exc}")
    return DialogueCorpus(corpus_id=top["corpus_id"], turns=tuple(turns))


def window_count(total_turns: int, window_size: int, stride: int) -> int:
    """Number of sliding windows over ``total_turns`` turns, clamped to >= 1."""
    n = math.ceil((total_turns - window_size) / stride) + 1
    return max(n, 1)


def segment(corpus: DialogueCorpus, config: SegmentationConfig) -> list[Window]:
    """Slice the corpus into overlapping windows over the full history;
    a window may span sessions."""
    if corpus.turn_count == 0:
        raise EmptyCorpus(corpus.corpus_id)
    l, s = config.window_size, config.stride
    return [Window(i, corpus.turns[(i - 1) * s:(i - 1) * s + l])
            for i in range(1, window_count(corpus.turn_count, l, s) + 1)]


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
