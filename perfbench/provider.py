"""The benchmark's provider: a ``trimem.Backend`` that answers like a model.

Every reply is built from the prompt alone, so a run is a pure function of
its seed. Embeddings are bag-of-words sums over a seeded random word table,
which gives questions and the facts they ask about a high cosine. A sleep
per call stands in for provider round-trips: the configured delay times a
factor in [0.5, 1.5) fixed by seed and prompt, so the mean is the delay
and per-item latencies spread as a real provider's do instead of taking a
few discrete values. Charging goes through
``Backend._charge`` / ``_check_budget``, so ``usage`` is the engine's own
accounting.

Fault mix (deterministic per seed and prompt):

* about ``PARSE_FAULT`` of first-try extraction, profile, plan, answer and
  judge replies cannot be parsed; the repair reply is always valid, so the
  provider never sends two bad replies in a row;
* about ``entry_fault`` of proposed entries fail validation (pronoun
  person, source ID outside the window, or an unparseable timestamp);
* a profile always has populated sections.
"""
from __future__ import annotations

import hashlib
import json
import re
import time
import zlib

import numpy as np
from trimem.backend import Backend

from gen import PERSONS, RESTATEMENT, parse_fact_turn, restatement

REPAIR_MARK = "\n\nYour previous reply"
VOCAB = 4096
PARSE_FAULT = 0.05  # share of first-try replies that cannot be parsed
STOP = frozenset("a an the at on of in to by was that which who what when where "
                 "did with is it for and".split())

_TURN_LINE = re.compile(r"^\[ID:(\d+)\] \[([^\]]+)\] (\w+): (.*)$")
_QUESTION = re.compile(r"^Question: (.*)$", re.M)
_EVENT_SUFFIX = re.compile(r" \(event time: [^)]*\)$")
_WORD = re.compile(r"\w+")

# (kind, marker) in match order; the marker is each template's opening line
KINDS = (
    ("extraction", "extract all valuable FACTUAL information"),
    ("profile", "Update the persona profile for "),
    ("analysis", "determine what specific information is required"),
    ("queries", "generate the minimal set of targeted search queries"),
    ("key_info", "Analyze the following query and extract key information"),
    ("answer", "Answer the inference question"),
    ("judge", "Relevance & Accuracy Evaluator"),
)


def classify(prompt: str) -> str:
    for kind, marker in KINDS:
        if marker in prompt:
            return kind
    raise ValueError(f"provider cannot classify prompt: {prompt[:80]!r}")


def _line_after(prompt: str, label: str) -> str:
    m = re.search(rf"^{re.escape(label)}(.*)$", prompt, re.M)
    if m is None:
        raise ValueError(f"prompt has no {label!r} line")
    return m.group(1).strip()


def answer_for(question: str, top_restatement: str | None) -> str:
    """The provider's answer, read off the top-ranked entry."""
    m = RESTATEMENT.match(top_restatement or "")
    if m is None:
        return "I do not know"
    person, _verb, obj, partner, place, date = m.groups()
    wh = question.split(" ", 1)[0]
    if wh == "Where":
        return place
    if wh == "When":
        return date
    if wh == "Who":
        return partner or person
    return f"the {obj}"


def queries_for(question: str) -> list[str]:
    """The search queries the provider proposes for a question."""
    words = question.rstrip("?").split()
    names = [w for w in words[1:] if w[:1].isupper()]
    return [question, " ".join(words[2:]), " ".join(names) or words[-1]]


def expected_plan_queries(question: str, cap: int = 3) -> list[str]:
    """The engine's query list: question first, casefold-deduplicated, capped."""
    out, seen = [], set()
    for q in queries_for(question):
        if q.strip() and q.casefold() not in seen:
            seen.add(q.casefold())
            out.append(q)
    return out[:cap]


def build_profile(name: str, facts: list[str]) -> str:
    objects = sorted({m.group(3) for f in facts if (m := RESTATEMENT.match(f))})[:6]
    lines = [f"Entity: {name}",
             f"[Identity] {name} is one of the regular speakers in this history.",
             f"[Interests] {', '.join(objects) or 'everyday errands'}",
             f"[Life Events] {' '.join(facts[-2:])}"]
    return "\n".join(lines)


class Provider:
    """Reply, embedding and fault logic, shared by the Backend below."""

    def __init__(self, seed: int, dim: int = 384, entry_fault: float = 0.10):
        self.seed = seed
        self.dim = dim
        self.entry_fault = entry_fault
        table = np.random.default_rng(seed).standard_normal((VOCAB, dim))
        self.table = table.astype(np.float32)
        self._salt = str(seed).encode()

    def _chance(self, *parts: str) -> float:
        h = hashlib.blake2b(self._salt, digest_size=8)
        for part in parts:
            h.update(b"\x00" + part.encode())
        return int.from_bytes(h.digest(), "big") / 2.0 ** 64

    def jitter(self, text: str) -> float:
        """Delay factor in [0.5, 1.5), mean 1, fixed per seed and request."""
        return 0.5 + self._chance("delay", text)

    # -- embeddings -------------------------------------------------------

    def embed_one(self, text: str) -> np.ndarray:
        words = [w for w in _WORD.findall(text.lower()) if w not in STOP]
        rows = [zlib.crc32(w.encode()) % VOCAB for w in words] or \
            [zlib.crc32(text.encode()) % VOCAB]
        vec = self.table[rows].sum(axis=0)
        return vec / np.float32(np.linalg.norm(vec))

    def embed_texts(self, texts) -> np.ndarray:
        return np.stack([self.embed_one(t) for t in texts])

    # -- chat -------------------------------------------------------------

    def reply(self, prompt: str, kind: str, repair: bool) -> tuple[str, bool, dict]:
        """(reply, faulted, facts about the reply for the output checks)."""
        faulted = (not repair and
                   self._chance("parse", kind, prompt) < PARSE_FAULT)
        build = getattr(self, f"_{kind}")
        text, info = build(prompt)
        return (self._garbled(kind) if faulted else text), faulted, info

    @staticmethod
    def _garbled(kind: str) -> str:
        if kind == "profile":
            return "[Identity] Someone from the dialogue history."  # no header
        return f"Sorry, the {kind} result is not ready yet."  # no JSON at all

    def _extraction(self, prompt: str):
        body = prompt.split("[Current Window Dialogues]\n", 1)[1]
        lines = []
        for line in body.splitlines():
            m = _TURN_LINE.match(line)
            if m is None:
                break
            lines.append(m.groups())
        window_ids = [int(tid) for tid, *_ in lines]
        records, valid, invalid = [], [], 0
        for tid, ts, speaker, text in lines:
            parsed = parse_fact_turn(text)
            if parsed is None:
                continue
            verb, obj, partner, place = parsed
            rest = restatement(speaker, verb, obj, place, ts[:10], partner)
            rec = {"lossless_restatement": rest,
                   "keywords": [speaker, obj, place],
                   "timestamp": ts, "location": place,
                   "persons": [speaker] + ([partner] if partner else []),
                   "entities": [obj], "topic": f"{verb} {obj}",
                   "source_dialogue_ids": [int(tid)]}
            roll = self._chance("entry", str(window_ids[0]), rest)
            if roll < self.entry_fault:
                invalid += 1
                fault = int(roll / self.entry_fault * 3)
                if fault == 0:
                    rec["persons"] = rec["persons"] + ["she"]
                elif fault == 1:
                    rec["source_dialogue_ids"] = [int(tid), window_ids[-1] + 1000]
                else:
                    rec["timestamp"] = "sometime last week"
            else:
                valid.append(rest)
            records.append(rec)
        text = "```json\n" + json.dumps(records, indent=2) + "\n```"
        return text, {"window": window_ids[0], "valid": valid, "invalid": invalid}

    def _profile(self, prompt: str):
        m = re.search(r"Update the persona profile for (.+?) based on new", prompt)
        name = m.group(1)
        section = prompt.split("[New Facts]\n", 1)[1]
        facts = [ln[2:] for ln in section.split("\n\n", 1)[0].splitlines()
                 if ln.startswith("- ")]
        return build_profile(name, facts), {"person": name}

    def _analysis(self, prompt: str):
        question = _QUESTION.search(prompt).group(1)
        names = [p for p in PERSONS if p in question]
        obj = {"question_type": "temporal" if question.startswith("When")
               else "factual",
               "key_entities": names,
               "required_info": [{"info_type": "fact", "description": question,
                                  "priority": "high"}],
               "relationships": [], "minimal_queries_needed": 2}
        return json.dumps(obj), {"question": question}

    def _queries(self, prompt: str):
        question = _line_after(prompt, "Original Question: ")
        obj = {"reasoning": "The question plus two narrower rewrites.",
               "queries": queries_for(question)}
        return json.dumps(obj), {"question": question}

    def _key_info(self, prompt: str):
        query = _line_after(prompt, "Query: ")
        words = [w for w in re.findall(r"[A-Za-z]+", query) if w.lower() not in STOP]
        obj = {"keywords": words, "persons": [p for p in PERSONS if p in words],
               "time_expression": None, "location": None, "entities": []}
        return "```json\n" + json.dumps(obj) + "\n```", {"question": query}

    def _answer(self, prompt: str):
        question = _QUESTION.search(prompt).group(1)
        m = re.search(r"^\[Structured Memory Entries\]\n1\. (.*)$", prompt, re.M)
        top = _EVENT_SUFFIX.sub("", m.group(1)) if m else None
        ans = answer_for(question, top)
        obj = {"reasoning": f"The best matching entry reads: {top}", "answer": ans}
        return json.dumps(obj), {"question": question, "answer": ans}

    def _judge(self, prompt: str):
        question = _QUESTION.search(prompt).group(1)
        reference = _line_after(prompt, "Reference Answer: ")
        prediction = _line_after(prompt, "Predicted Answer: ")
        verdict = 1.0 if prediction.casefold() == reference.casefold() else 0.0
        obj = {"score": verdict,
               "reasoning": "Exact match." if verdict else "Core fact differs."}
        return json.dumps(obj), {"question": question, "verdict": verdict}


class BenchBackend(Backend):
    """The ``trimem.Backend`` the engine talks to, with a per-call log."""

    def __init__(self, provider: Provider):
        super().__init__()
        self.provider = provider
        self.chat_delay = 0.0   # seconds per call before the jitter factor
        self.embed_delay = 0.0
        self.tracer = None
        self.reset_log()

    def reset_log(self):
        """Forget the per-call log the output checks read."""
        self.infos: dict[str, list] = {kind: [] for kind, _ in KINDS}
        self.marks: list[tuple[float, object]] = []  # (time, window or question)
        self.last_embed: list[str] = []

    def _tracing(self) -> bool:
        return self.tracer is not None and self.tracer.active

    def _wait(self, seconds: float) -> float:
        if seconds <= 0:
            return 0.0
        t = time.perf_counter()
        time.sleep(seconds)
        return time.perf_counter() - t

    def complete(self, request) -> str:
        span = self.tracer.begin("backend.complete") if self._tracing() else None
        started = time.perf_counter()
        self._check_budget()
        prompt = request.prompt
        repair = REPAIR_MARK in prompt
        original = prompt.split(REPAIR_MARK, 1)[0]
        kind = classify(original)
        text, faulted, info = self.provider.reply(original, kind, repair)
        if not faulted:
            self.infos[kind].append(info)
        # an item starts with the first call about a new window or question
        key = info.get("window", info.get("question"))
        if not repair and key is not None and \
                (not self.marks or self.marks[-1][1] != key):
            self.marks.append((started, key))
        waited = self._wait(self.chat_delay * self.provider.jitter(prompt))
        self._charge(prompt, text)
        if span is not None:
            self.tracer.end(span, wait=waited, kind=kind, repair=repair)
        return text

    def embed(self, texts):
        if not texts or any(not t for t in texts):
            raise ValueError("texts must be non-empty strings")
        span = self.tracer.begin("backend.embed") if self._tracing() else None
        self._check_budget()
        vectors = self.provider.embed_texts(texts)
        self.last_embed = list(texts)
        waited = self._wait(self.embed_delay * self.provider.jitter(texts[0]))
        self._charge(" ".join(texts), "")
        if span is not None:
            self.tracer.end(span, wait=waited, rows=len(texts))
        return vectors
