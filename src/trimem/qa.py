"""The retrieved context, its rendering and token count, and the final answer.

``RetrievedContext`` renders itself once, when it is built, through this
module's ``assemble_context`` and ``estimate_tokens``; the answer prompt,
the context's token cost and the coverage metric all read that one text.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from .backend import Backend, complete_parsed, read_reply
from .corpus import DialogueTurn, render_turn
from .errors import ParseFailure
from .profiles import EntityProfile, serialize_profile
from .prompts import render

logger = logging.getLogger(__name__)

TOKEN_CALIBRATION = 1.3
_TOKEN_RE = re.compile(r"[\w']+|[^\w\s]+")


@dataclass
class Answer:
    question: str
    reasoning: str
    answer_text: str


@dataclass
class RetrievedContext:
    """Ranked facts, their anchored turns and profiles, rendered once."""
    ranked_entries: list  # (MemoryEntry, score), scores non-increasing
    recovered_turns: list[DialogueTurn]
    profiles: list[EntityProfile]
    text: str = field(init=False)
    token_cost: int = field(init=False)

    def __post_init__(self):
        self.text = assemble_context(self)
        self.token_cost = estimate_tokens(self.text)


def estimate_tokens(text: str) -> int:
    """Approximate token count: words plus punctuation clusters, scaled.

    Deterministic and provider-free; an exact tokenizer can be plugged in
    behind the same signature where bit-accurate accounting matters.
    """
    if not text:
        return 0
    pieces = _TOKEN_RE.findall(text)
    return round(len(pieces) * TOKEN_CALIBRATION)


def assemble_context(ctx: RetrievedContext) -> str:
    """Render the retrieved context in the answer prompt's sectioned format.

    Section order is fixed: structured entries, then verbatim source
    dialogue, then profiles. Empty sections are omitted entirely.
    """
    sections = {
        "[Structured Memory Entries]": [
            f"{i}. {entry.lossless_restatement}"
            + (f" (event time: {entry.event_time})" if entry.event_time else "")
            for i, (entry, _) in enumerate(ctx.ranked_entries, 1)],
        "[Source Dialogues]": [render_turn(turn) for turn in ctx.recovered_turns],
        "[Entity Profiles]": [serialize_profile(profile) for profile in ctx.profiles],
    }
    return "\n\n".join("\n".join([header, *lines])
                       for header, lines in sections.items() if lines)


_ANSWER_FIELDS = {"reasoning": (str, ""), "answer": ((str, int, float), "")}


def _parse_answer_payload(text: str) -> tuple[str, str]:
    reply = read_reply(text, _ANSWER_FIELDS)
    answer_text = str(reply["answer"])  # a string, or a number
    if not answer_text.strip():
        raise ParseFailure("answer is missing or blank")
    return reply["reasoning"], answer_text


def answer(question: str, ctx: RetrievedContext, answer_prompt: str,
           backend: Backend) -> Answer:
    """Produce the final structured answer from the assembled context.

    Parsing is total: when the repair fails too (no JSON, or no non-blank
    string or number answer), the first reply is returned verbatim as the
    answer ("(no answer)" if blank) with reasoning "(unparsed)".
    """
    prompt = render(answer_prompt, query=question, context=ctx.text)
    replies: list[str] = []

    def parse(reply: str) -> tuple[str, str]:
        replies.append(reply)
        return _parse_answer_payload(reply)

    try:
        reasoning, answer_text = complete_parsed(
            backend, prompt, parse,
            'Return ONLY {"reasoning": "...", "answer": "..."}.')
    except ParseFailure:
        logger.warning("answer output unparsed for question %r", question[:80])
        reasoning = "(unparsed)"
        answer_text = replies[0] if replies[0].strip() else "(no answer)"
    return Answer(question=question, reasoning=reasoning, answer_text=answer_text)
