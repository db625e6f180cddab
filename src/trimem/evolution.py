"""Lifelong prompt evolution from answer-quality feedback.

One round: rebuild memory if the extraction/profile prompts changed,
answer the training questions, judge them, aggregate the loss, ask the
senior model for full-text prompt rewrites, and apply them as the next
version. The answer prompt is frozen across all rounds. ``ROUND_PROMPTS``
is the one table of a round's prompts and the gradient field that rewrites
each. Every version of a prompt keeps each slot of its seed template: a
gradient reply's rewrites, and each prompt of a loaded round.
"""
from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .backend import (Backend, BackendRouter, call_scope, complete_parsed, parse_json,
                      read_input, read_parsed, read_reply)
from .corpus import DialogueCorpus, SegmentationConfig
from .errors import EmptyRecordSet, ParseFailure
from .metrics import EvalRecord
from .pipeline import build_store, run_eval
from .prompts import render, seed_prompts, slots
from .store import RetrievalConfig, make_dir, refuse_non_empty, write_bytes, write_text

logger = logging.getLogger(__name__)

_ROUND_DIR = re.compile(r"round_(0|[1-9][0-9]*)")  # as PromptSet.persist names it
# each prompt a round holds and its gradient field (None: the answer prompt is frozen)
ROUND_PROMPTS = {"extraction": "rewritten_p_ext", "profile": "rewritten_p_prof", "answer": None}
_REWRITES = {name: field for name, field in ROUND_PROMPTS.items() if field}


def _lost_slots(name: str, text: str) -> str:
    """The slots of prompt name's seed template that text lacks, joined in their order."""
    return ", ".join(slot for slot in slots(seed_prompts()[name]) if slot not in text)


@dataclass(frozen=True)
class PromptSet:
    """The trainable prompt pair plus the frozen answer prompt."""
    extraction: str
    profile: str
    answer: str
    round: int = 0

    @property
    def parent_round(self) -> Optional[int]:
        """The round this one was rewritten from; None for the seed."""
        return self.round - 1 if self.round else None

    @classmethod
    def seed(cls) -> "PromptSet":
        prompts = seed_prompts()
        return cls(**{name: prompts[name] for name in ROUND_PROMPTS})

    def as_prompt_dict(self) -> dict[str, str]:
        """Full prompt mapping for the pipeline (aux roles are fixed assets)."""
        return {**seed_prompts(), **{name: getattr(self, name) for name in ROUND_PROMPTS}}

    def persist(self, prompt_dir) -> None:
        round_dir = make_dir(Path(prompt_dir) / f"round_{self.round}")
        for name in ROUND_PROMPTS:
            write_text(round_dir / f"{name}.txt", getattr(self, name))

    @staticmethod
    def latest_round(prompt_dir) -> Optional[int]:
        """The highest round that ``persist`` wrote under prompt_dir, if any."""
        rounds = [int(match[1]) for p in Path(prompt_dir).glob("round_*")
                  if (match := _ROUND_DIR.fullmatch(p.name)) and p.is_dir()]
        return max(rounds, default=None)

    @classmethod
    def load_round(cls, prompt_dir, round_number: int) -> "PromptSet":
        """The round ``persist`` wrote, numbered by its directory; a prompt
        file that lacks a slot of its seed template is a ValueError."""
        round_dir = Path(prompt_dir) / f"round_{round_number}"
        prompts = {name: (round_dir / f"{name}.txt").read_text(encoding="utf-8")
                   for name in ROUND_PROMPTS}
        for name, text in prompts.items():
            if lost := _lost_slots(name, text):
                raise ValueError(f"{name}.txt lacks {lost}")
        return cls(**prompts, round=round_number)


_VERDICT_FIELDS = {"score": ((int, float), 0.0), "reasoning": (str, "")}


def _parse_verdict(text: str) -> tuple[float, str]:
    verdict = read_reply(text, _VERDICT_FIELDS)
    return (1.0 if verdict["score"] >= 0.5 else 0.0), verdict["reasoning"]


def judge(question: str, prediction: str, reference: str,
          judge_prompt: str, backend: Backend) -> tuple[float, str]:
    """Binary LLM-judge score; malformed output degrades to a 0.0 fail, logged."""
    if not (question and prediction and reference):
        raise ValueError("question, prediction, and reference must be non-empty")
    prompt = render(judge_prompt, question=question, reference=reference,
                    prediction=prediction)
    try:
        return complete_parsed(backend, prompt, _parse_verdict,
                               "Return ONLY the JSON.")
    except ParseFailure:
        logger.warning("judge output unparsed for question %r", question[:80])
        return 0.0, "(judge unparsed)"


def aggregate_loss(records: Sequence[EvalRecord]) -> float:
    """Empirical mean of the negated judge score; in [-1, 0] for the binary judge."""
    if not records:
        raise EmptyRecordSet("no evaluation records")
    return -sum(r.judge_score for r in records) / len(records)


_GRADIENT_FIELDS = dict.fromkeys((*_REWRITES.values(), "change_summary"), (str, ""))


def _read_gradient(reply: dict) -> dict[str, str]:
    """The gradient-log fields of a parsed senior reply or logged round: two
    rewrites that keep every slot of their prompt, and a summary."""
    gradient = read_parsed(reply, _GRADIENT_FIELDS)
    for name, field in _REWRITES.items():
        if lost := _lost_slots(name, gradient[field]):
            raise ParseFailure(f"{name} rewrite lost {lost}")
    return gradient


def _parse_gradient(text: str) -> dict[str, str]:
    """``_read_gradient`` over the first JSON object in a senior reply."""
    return _read_gradient(parse_json(text))


def textual_gradient(records: Sequence[EvalRecord], prompts: PromptSet,
                     evolution_prompt: str, backend: Backend) -> dict[str, str]:
    """Obtain full-text rewrites of the trainable prompts from the senior model.

    Returns the gradient-log fields ``rewritten_p_ext``, ``rewritten_p_prof``
    and ``change_summary``, by calls of stage "gradient". An unreadable
    reply, a wrong-typed field, or a rewrite that lost a slot gets the one
    repair of ``complete_parsed``; a second failure raises ParseFailure.
    """
    detailed = json.dumps({"detailed_results": [r.detailed_record() for r in records]})
    prompt = render(evolution_prompt,
                    **{f"{name}_prompt": getattr(prompts, name) for name in _REWRITES},
                    detailed_results=detailed)
    with call_scope(stage="gradient"):
        return complete_parsed(backend, prompt, _parse_gradient,
                               "Return ONLY the JSON object.", max_output_tokens=8192)


def apply_gradient(prompts: PromptSet, rec: dict) -> PromptSet:
    """The prompt-editing operator over one gradient-log record.

    Full-text replacement of the trainable prompts by a parsed gradient,
    version bumped; a no-op record carries the prompts forward.
    """
    rewrites = {} if rec.get("no_op") else {
        name: rec[field] for name, field in _REWRITES.items()}
    return replace(prompts, **rewrites, round=prompts.round + 1)


def replay_gradients(prompt_dir) -> list[PromptSet]:
    """Rebuild every prompt version from round 0 plus the gradient log. A
    line ends only at ``"\\n"``; a non-blank line that is not UTF-8 or not one
    JSON object, or a logged gradient that ``_read_gradient`` rejects, is a
    ParseFailure that names the log and the line. A last line with no
    ``"\\n"`` is an append that was cut short, and is ignored with one
    warning even if it parses: ``evolve`` writes a round's prompts only
    after its line is whole."""
    prompt_dir = Path(prompt_dir)
    current = PromptSet.load_round(prompt_dir, 0)
    trajectory = [current]
    log_path = prompt_dir / "gradients.jsonl"
    if not log_path.exists():
        return trajectory
    *lines, torn = read_input(log_path).split(b"\n")
    if torn:
        logger.warning("%s line %d: ignoring %d bytes with no newline, an append cut short",
                       log_path, len(lines) + 1, len(torn))
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line.decode("utf-8"))
            if type(rec) is not dict:
                raise ValueError(f"a JSON {type(rec).__name__}, not an object")
            if not rec.get("no_op"):
                rec = _read_gradient(rec)
        except (ValueError, RecursionError, ParseFailure) as exc:  # JSON, UTF-8, nesting
            raise ParseFailure(f"{log_path} line {number}: {exc}")
        current = apply_gradient(current, rec)
        trajectory.append(current)
    return trajectory


def evolve(corpus: DialogueCorpus, train_set, rounds: int,
           router: BackendRouter, prompt_dir,
           seg_config: Optional[SegmentationConfig] = None,
           retrieval_config: Optional[RetrievalConfig] = None) -> list[tuple[PromptSet, float]]:
    """Run the optimization loop and return the (prompts, loss) trajectory.

    Each of the ``rounds`` gradient steps rebuilds memory from scratch with
    the current prompts, evaluates, and applies the rewrite; the final
    version is evaluated too, so the trajectory has rounds+1 points, and
    step k's calls are keyed round k. A rejected gradient (unreadable,
    wrong-typed or missing a slot after its repair) is logged as a no-op
    round with its reason, and the prompts carry forward unchanged. A round
    whose extraction and profile texts equal the last build's reuses that
    sealed store and only evaluates. A ``prompt_dir`` that is not missing or
    empty is refused with UsageError before any model call, so one
    directory holds one run and its log.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    items = list(train_set)  # QaItems; every round reads them again
    if not items:
        raise EmptyRecordSet("empty train set")

    retrieval_config = retrieval_config or RetrievalConfig()
    evolution_prompt = seed_prompts()["evolution"]
    prompt_dir = Path(prompt_dir)
    refuse_non_empty(prompt_dir, "evolve writes one run per directory")
    make_dir(prompt_dir)
    log_path = prompt_dir / "gradients.jsonl"

    current = PromptSet.seed()
    current.persist(prompt_dir)
    trajectory: list[tuple[PromptSet, float]] = []
    built_for, store = None, None  # the last build's (extraction, profile) texts, its store

    write_text(log_path, "")  # before any model call; then one line appended per round
    for step in range(rounds + 1):  # the last step evaluates the final prompts
        pipeline_prompts = current.as_prompt_dict()
        with call_scope(round=step):
            if (current.extraction, current.profile) != built_for:
                built_for = current.extraction, current.profile
                store = build_store(corpus, pipeline_prompts, router, seg_config)
            records = run_eval(items, store, pipeline_prompts, router, retrieval_config)
            loss = aggregate_loss(records)
            trajectory.append((current, loss))
            if step == rounds:
                break
            rec = {"round": current.round, "loss": loss}
            try:
                rec.update(textual_gradient(records, current, evolution_prompt, router.senior))
            except ParseFailure as exc:
                logger.warning("round %d gradient rejected: %s", current.round, exc)
                rec.update(no_op=True, reason=str(exc))
        write_bytes(log_path, json.dumps(rec, sort_keys=True).encode() + b"\n", append=True)
        current = apply_gradient(current, rec)
        current.persist(prompt_dir)
    return trajectory


def best_round(trajectory: Sequence[tuple[PromptSet, float]]) -> PromptSet:
    """Minimum-loss round, ties to the earliest."""
    best = min(trajectory, key=lambda pair: (pair[1], pair[0].round))
    return best[0]
