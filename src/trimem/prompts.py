"""Prompt asset loading and placeholder substitution.

Prompts contain literal JSON braces, so templating is plain string
replacement of known ``{placeholder}`` slots rather than str.format.
"""
from __future__ import annotations

from functools import cache
from importlib import resources

EXTRACTION_PLACEHOLDERS = ("{context}", "{dialogue_text}")
PROFILE_PLACEHOLDERS = ("{entity_name}", "{facts}")
ANSWER_PLACEHOLDERS = ("{query}", "{context}")

_ASSET_PACKAGE = "trimem.assets.prompts"


def load_asset(name: str) -> str:
    return resources.files(_ASSET_PACKAGE).joinpath(f"{name}.txt").read_text(encoding="utf-8")


def render(template: str, **slots: str) -> str:
    for key, value in slots.items():
        template = template.replace("{" + key + "}", value)
    return template


def seed_prompts() -> dict[str, str]:
    """The hand-written round-0 prompt texts, keyed by role."""
    return {
        name: load_asset(name)
        for name in (
            "extraction",
            "profile",
            "answer",
            "question_analysis",
            "query_generation",
            "judge",
            "evolution",
        )
    }


@cache
def load_stopwords() -> frozenset[str]:
    text = resources.files("trimem.assets").joinpath("stopwords.txt").read_text(encoding="utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())
