"""Atomic fact extraction over dialogue windows.

Each accepted entry is a structured tuple: a lossless restatement (the
embedding key), optional event time and location, the persons and entities
it names, a topic, and the source dialogue IDs anchoring it back to the
verbatim turns of its origin window.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from datetime import datetime
from typing import Optional

from .backend import Backend, complete_parsed, drop_empty, parse_json, read_object
from .corpus import Window, render_window
from .errors import ParseFailure
from .prompts import render

logger = logging.getLogger(__name__)

PRONOUNS = frozenset({"he", "she", "it", "they", "this", "that"})

# timestamp shapes entry_from_record will coerce to full ISO 8601
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


def restatement_key(text: str) -> str:
    """The dedup key, and a person's display name: text's words one space apart."""
    return " ".join(text.split())


normalize_display = restatement_key


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

    Skips code fences and surrounding prose. The first array decides: a
    non-object element is a ParseFailure, so a broken outer array is
    repaired rather than read through one of its inner lists.
    """
    records = parse_json(text, lambda v: isinstance(v, list))
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ParseFailure(f"array element {i} is not an object")
    return records


# each reply field's type and its value when absent (missing, null, "" or [])
_REPLY_FIELDS = {
    "lossless_restatement": (str, ""), "keywords": ([str], ()),
    "timestamp": (str, None), "location": (str, None),
    "persons": ([str], ()), "entities": ([str], ()), "topic": (str, ""),
    "source_dialogue_ids": ([int], ()),
}


def entry_faults(entry: MemoryEntry, turn_ids: range, where: str, named=None) -> list[str]:
    """How entry breaks the stored-entry rule (reply path and load): a restatement; anchors,
    all in turn_ids, which where names; no pronoun in the persons and keywords named (a
    reply's, as given and in its order) or else entry's, sorted; persons in display form;
    an event time ``_coerce_event_time`` keeps; origin_window in 0..turn_ids[-1]."""
    faults = [] if entry.lossless_restatement.strip() else ["empty restatement"]
    if not (ids := entry.source_dialogue_ids):
        faults.append("missing source_dialogue_ids")
    elif min(ids) < turn_ids.start or max(ids) >= turn_ids.stop:
        faults.append(f"source ids {sorted(t for t in ids if t not in turn_ids)} outside {where}")
    persons, keywords = named or (entry.persons, entry.keywords)
    if not PRONOUNS.isdisjoint(map(str.casefold, map(str.strip, (*persons, *keywords)))):
        for label, values in (("person", persons), ("keyword", keywords)):
            faults += [f"pronoun {label}: {value!r}" for value in (values if named else
                       sorted(values)) if value.strip().casefold() in PRONOUNS]
    faults += [f"person {person!r} not in display form" for person in sorted(
        [p for p in entry.persons if not p or p != normalize_display(p)])]
    if entry.event_time is not None and _coerce_event_time(entry.event_time) != entry.event_time:
        faults.append(f"unparseable event_time: {entry.event_time!r}")
    if not 0 <= entry.origin_window < turn_ids.stop:
        faults.append(f"origin_window {entry.origin_window} outside 0..{turn_ids.stop - 1}")
    return faults


def entry_from_record(record: dict, window: Window) -> MemoryEntry:
    """The entry one reply record makes in its origin window: persons display-normalized,
    one per ``normalize_person_key`` (the first form given), the event time coerced to ISO
    8601. A wrong-typed field is a ValueError, and so are its ``entry_faults``, "; "-joined."""
    fields = read_object(drop_empty(record), _REPLY_FIELDS)
    persons: dict[str, str] = {}  # person key -> its first display form
    for person in fields["persons"]:
        if person.strip():
            persons.setdefault(normalize_person_key(person), normalize_display(person))
    given = fields["timestamp"]  # kept as given where it does not parse, for its diagnostic
    event_time = given and (_coerce_event_time(given) or given)
    entry = MemoryEntry(
        lossless_restatement=fields["lossless_restatement"],
        keywords=frozenset(fields["keywords"]),
        event_time=event_time,
        location=fields["location"],
        persons=frozenset(persons.values()),
        entities=frozenset(fields["entities"]),
        topic=fields["topic"],
        source_dialogue_ids=frozenset(fields["source_dialogue_ids"]),
        origin_window=window.index,
    )
    if faults := entry_faults(entry, window.turn_ids, f"window {window.index}",
                              (fields["persons"], fields["keywords"])):
        raise ValueError("; ".join(faults))
    return entry


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
            entries.append(entry_from_record(record, window))
        except ValueError as exc:
            logger.warning("dropping entry from window %d: %s", window.index, exc)
    return entries
