"""Prompt asset loading and slot filling. A slot is a word in braces,
``{name}``; a prompt's literal JSON braces are none. ``render`` fills slots
in one pass, so a value it inserts is never read as a template, and leaves
a slot it was not given as it is."""
from __future__ import annotations

import re
from functools import cache
from importlib import resources

_SLOT = re.compile(r"\{(\w+)\}")
_ASSET_PACKAGE = "trimem.assets.prompts"


def slots(template: str) -> tuple[str, ...]:
    """The distinct ``{name}`` slots of template, in the order they first appear."""
    return tuple(dict.fromkeys(match[0] for match in _SLOT.finditer(template)))


def render(template: str, **values: str) -> str:
    return _SLOT.sub(lambda match: values.get(match[1], match[0]), template)


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
