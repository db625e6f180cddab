"""Prompt asset loading and placeholder substitution.

Prompts contain literal JSON braces, so templating is plain string
replacement of known ``{placeholder}`` slots rather than str.format.
"""
from __future__ import annotations

from functools import cache
from importlib import resources

# the slots of each trainable or frozen seed template, which every version keeps
EXTRACTION_PLACEHOLDERS = ("{context}", "{dialogue_text}")
PROFILE_PLACEHOLDERS = ("{entity_name}", "{facts}", "{existing_profile}")
ANSWER_PLACEHOLDERS = ("{query}", "{context}")

_ASSET_PACKAGE = "trimem.assets.prompts"


def render(template: str, **slots: str) -> str:
    for key, value in slots.items():
        template = template.replace("{" + key + "}", value)
    return template


def seed_prompts() -> dict[str, str]:
    """The hand-written round-0 prompt texts, keyed by role: each ``.txt``
    asset of the prompt package, by its name without the suffix."""
    assets = sorted(resources.files(_ASSET_PACKAGE).iterdir(), key=lambda asset: asset.name)
    return {asset.name.removesuffix(".txt"): asset.read_text(encoding="utf-8")
            for asset in assets if asset.name.endswith(".txt")}


@cache
def load_stopwords() -> frozenset[str]:
    text = resources.files("trimem.assets").joinpath("stopwords.txt").read_text(encoding="utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())
