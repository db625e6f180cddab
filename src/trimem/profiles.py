"""Per-person entity profiles synthesized from grouped facts.

Profiles are sectioned text documents rebuilt in full on every update;
the version history is append-only and only the latest version serves
retrieval. A profile's section labels are the ones its prompt asks for:
the seed ``profile.txt`` lists ten after "Use this format:".
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .backend import Backend, complete_parsed
from .errors import ParseFailure
from .extraction import MemoryEntry, normalize_person_key
from .prompts import render

_SECTION_RE = re.compile(r"^\[([^\]]*[^\]\s][^\]]*)\]\s*(.*)$")  # a label is not blank


@dataclass(frozen=True)
class EntityProfile:
    """One profile version, field for field as the store writes it."""
    entity_key: str
    display_name: str
    version: int = 0
    window: int = 0  # the window whose facts made this version
    # label -> text, in order, read-only; compared, but left out of the hash
    sections: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "sections", MappingProxyType(dict(self.sections)))


def group_by_person(entries: Sequence[MemoryEntry]) -> dict[str, list[MemoryEntry]]:
    """Group entries by each person they name (normalized keys).

    An entry naming k persons appears in k groups; entries naming nobody
    appear in none.
    """
    groups: dict[str, list[MemoryEntry]] = {}
    for entry in entries:
        for person in sorted(entry.persons):
            groups.setdefault(normalize_person_key(person), []).append(entry)
    return groups


def parse_profile_text(text: str) -> tuple[str, dict[str, str]]:
    """Parse the bracketed-label profile format.

    Returns (display name, sections): the sections map each label to its
    text, in first-seen order. A repeated label is merged into its first
    section, the bodies joined by a newline. Raises
    ParseFailure when the ``Entity:`` header is missing or no labeled
    section is present.
    """
    display_name = None
    runs: list[tuple[str, list[str]]] = []  # (label, lines) of each bracketed header
    for line in (ln.rstrip() for ln in text.strip().splitlines()):
        if display_name is None and line.lower().startswith("entity:"):
            display_name = line.split(":", 1)[1].strip()
        elif match := _SECTION_RE.match(line):
            runs.append((match.group(1).strip(), [match.group(2)]))
        elif runs:
            runs[-1][1].append(line)
    sections: dict[str, str] = {}  # label -> body, in first-seen order
    for label, run in runs:
        if body := "\n".join(run).strip():
            sections[label] = f"{sections[label]}\n{body}" if label in sections else body

    if display_name is None:
        raise ParseFailure("profile output missing 'Entity:' header")
    if not sections:
        raise ParseFailure("profile output has no populated sections")
    return display_name, sections


def serialize_profile(profile: EntityProfile) -> str:
    lines = [f"Entity: {profile.display_name}"]
    for label, body in profile.sections.items():
        lines.append(f"[{label}] {body}")
    return "\n".join(lines)


def update_profile(person: str, new_entries: Sequence[MemoryEntry],
                   existing: Optional[EntityProfile],
                   profile_prompt: str, backend: Backend,
                   window_index: int = 0) -> EntityProfile:
    """Synthesize the replacement profile for person, named as the first new entry names them.

    With zero new entries no model call is made and the existing profile is
    returned unchanged. Output with no ``Entity:`` header or no populated
    section gets one repair retry before surfacing ParseFailure.
    """
    if not new_entries:
        if existing is None:
            raise ValueError("no existing profile and no new entries")
        return existing

    display = next(name for e in new_entries for name in sorted(e.persons)
                   if normalize_person_key(name) == normalize_person_key(person))
    facts = "\n".join(f"- {e.lossless_restatement}" for e in new_entries)
    existing_text = serialize_profile(existing) if existing else "No profile yet."
    prompt = render(profile_prompt, entity_name=display, facts=facts,
                    existing_profile=existing_text)
    display_name, sections = complete_parsed(
        backend, prompt, parse_profile_text,
        "Output the profile in the exact bracketed-label format.")

    return EntityProfile(
        entity_key=normalize_person_key(person),
        display_name=display_name or display,
        sections=sections,
        version=(existing.version if existing else 0) + 1,
        window=window_index,
    )
