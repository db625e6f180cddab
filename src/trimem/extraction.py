"""Atomic fact extraction over dialogue windows.

Each accepted entry is a structured tuple: a lossless restatement (the
embedding key), optional event time and location, the persons and entities
it names, a topic, and the source dialogue IDs anchoring it back to the
verbatim turns of its origin window.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Optional

from .backend import Backend, complete_parsed, parse_json
from .corpus import Window, render_window
from .errors import ParseFailure
from .prompts import render

logger = logging.getLogger(__name__)

PRONOUNS = frozenset({"he", "she", "it", "they", "this", "that"})

# timestamp shapes the validator will coerce to full ISO 8601
_DATE_ONLY = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_DATE_HM = re.compile(r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}$")
_DATE_HMS = re.compile(r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}")


@dataclass(frozen=True)
class MemoryEntry:
    lossless_restatement: str
    keywords: frozenset[str] = frozenset()
    event_time: Optional[str] = None
    location: Optional[str] = None
    persons: frozenset[str] = frozenset()
    entities: frozenset[str] = frozenset()
    topic: str = ""
    source_dialogue_ids: frozenset[int] = frozenset()
    origin_window: int = 0
    entry_id: str = ""  # assigned at insert


def normalize_person_key(name: str) -> str:
    return " ".join(name.split()).casefold()


def normalize_display(name: str) -> str:
    return " ".join(name.split())


def _coerce_event_time(value: str) -> Optional[str]:
    value = value.strip()
    if _DATE_ONLY.match(value):
        value += "T00:00:00"
    elif _DATE_HM.match(value):
        value += ":00"
    try:
        datetime.fromisoformat(value)
    except ValueError:
        return None
    if _DATE_HMS.match(value):  # "T" between date and time, no space before an offset
        return value[:10] + "T" + value[11:].replace(" ", "")
    return value


def parse_entry_payload(text: str) -> list[dict]:
    """Tolerantly decode the JSON array of raw entry records.

    Skips code fences and surrounding prose; missing optional fields
    become absent (None), never empty-string sentinels. The first array
    decides: a non-object element is a ParseFailure, so a broken outer
    array is repaired rather than read through one of its inner lists.
    """
    parsed = []
    for i, rec in enumerate(parse_json(text, lambda v: isinstance(v, list))):
        if not isinstance(rec, dict):
            raise ParseFailure(f"array element {i} is not an object")
        parsed.append({
            "lossless_restatement": rec.get("lossless_restatement"),
            "keywords": rec.get("keywords") or [],
            "timestamp": rec.get("timestamp") or None,
            "location": rec.get("location") or None,
            "persons": rec.get("persons") or [],
            "entities": rec.get("entities") or [],
            "topic": rec.get("topic") or "",
            "source_dialogue_ids": rec.get("source_dialogue_ids") or [],
        })
    return parsed


def _list_field(record: dict, name: str) -> list:
    value = record.get(name, [])
    if not isinstance(value, list):
        raise ValueError(f"{name} is not a list: {value!r}")
    return value


def entry_from_record(record: dict, window_index: int) -> MemoryEntry:
    """Build an entry from a raw record; ValueError names a wrong-typed field."""
    ids = _list_field(record, "source_dialogue_ids")
    try:
        source_ids = frozenset(int(i) for i in ids)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"source_dialogue_ids are not all integers: {ids!r}")
    location = record.get("location")
    if location is not None and not isinstance(location, str):
        raise ValueError(f"location is not a string: {location!r}")
    return MemoryEntry(
        lossless_restatement=str(record.get("lossless_restatement") or ""),
        keywords=frozenset(str(k) for k in _list_field(record, "keywords")),
        event_time=record.get("timestamp"),
        location=location,
        persons=frozenset(str(p) for p in _list_field(record, "persons")),
        entities=frozenset(str(e) for e in _list_field(record, "entities")),
        topic=str(record.get("topic") or ""),
        source_dialogue_ids=source_ids,
        origin_window=window_index,
    )


def validate_entry(entry: MemoryEntry, window: Window) -> tuple[Optional[MemoryEntry], list[str]]:
    """Check entry invariants against its origin window.

    Returns (normalized entry, diagnostics). A failing entry yields
    (None, diagnostics); the caller decides whether to drop or abort.
    """
    diagnostics: list[str] = []
    if not entry.lossless_restatement.strip():
        diagnostics.append("empty restatement")
    if not entry.source_dialogue_ids:
        diagnostics.append("missing source_dialogue_ids")
    elif not entry.source_dialogue_ids <= window.turn_ids:
        outside = sorted(entry.source_dialogue_ids - window.turn_ids)
        diagnostics.append(f"source ids {outside} outside window {window.index}")
    for person in entry.persons:
        if person.strip().casefold() in PRONOUNS:
            diagnostics.append(f"pronoun person: {person!r}")
    for keyword in entry.keywords:
        if keyword.strip().casefold() in PRONOUNS:
            diagnostics.append(f"pronoun keyword: {keyword!r}")

    event_time = entry.event_time
    if event_time is not None:
        event_time = _coerce_event_time(str(event_time))
        if event_time is None:
            diagnostics.append(f"unparseable event_time: {entry.event_time!r}")

    if diagnostics:
        return None, diagnostics
    normalized = replace(
        entry,
        persons=frozenset(normalize_display(p) for p in entry.persons if p.strip()),
        event_time=event_time,
    )
    return normalized, []


def extract_entries(window: Window, extraction_prompt: str,
                    backend: Backend) -> list[MemoryEntry]:
    """Run fact extraction on one window; return the entries that validate.

    An unreadable reply gets the one repair of ``complete_parsed``, and a
    second failure raises ParseFailure. Each entry that fails validation,
    or has a wrong-typed field, is dropped with a logged diagnostic (never
    clamped), and the rest of the window is kept.
    """
    dialogue_text = render_window(window)
    prompt = render(extraction_prompt, context="", dialogue_text=dialogue_text)
    records = complete_parsed(backend, prompt, parse_entry_payload,
                              "Return ONLY the JSON array.")

    entries: list[MemoryEntry] = []
    for record in records:
        try:
            candidate = entry_from_record(record, window.index)
        except ValueError as exc:  # a wrong-typed field
            validated, diagnostics = None, [str(exc)]
        else:
            validated, diagnostics = validate_entry(candidate, window)
        if validated is None:
            logger.warning("dropping entry from window %d: %s",
                           window.index, "; ".join(diagnostics))
            continue
        entries.append(validated)
    return entries
