"""Chat-completion and embedding backends.

The ``Backend`` base class owns the call protocol. ``complete`` and each
``EMBED_BATCH`` slice of ``embed`` pass through one gate, ``_gate``: it
counts the call under the caps, makes the round-trip, and charges the
tokens to the instance, and a round-trip that raises takes its count
back. ``embed`` checks the texts going out and, inside the gate, each
slice's rows by ``checked_block``, the one check of vectors wherever they
enter: one row per text, one width, finite and not all zero.
``read_object`` reads one JSON object through a field table: every model
reply (by ``read_reply``) and logged gradient (by ``read_parsed``),
provider reply body, corpus document, QA record, fixture rule and store
manifest; a record with a dataclass has the table ``fields_of`` derives
from it. Every type check is ``has_type`` or its column form ``all_of``.
The call and token caps belong to one instance, so two backends of one
run are capped apart; ``call_key`` names each call by its work item. A
concrete backend supplies only the provider round-trip, ``_complete``
and ``_embed``. Two exist: an HTTP backend speaking the common
``/chat/completions`` + ``/embeddings`` request shapes, and a scripted
backend that replays canned responses and derives embeddings from a
content hash, for fully offline deterministic runs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import threading
from collections import namedtuple
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    AuthError,
    BudgetExceeded,
    DimensionMismatch,
    FixtureExhausted,
    MissingFile,
    ParseFailure,
    TransportError,
)

T = TypeVar("T")

DEFAULT_EMBED_DIM = 64
EMBED_BATCH = 2048  # texts per embed round-trip: the OpenAI /embeddings input cap
RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 1.0
HTTP_CONNECT_TIMEOUT = 10.0  # seconds to open a connection
HTTP_READ_TIMEOUT = 120.0  # seconds between bytes of a reply


@dataclass
class ChatRequest:
    prompt: str
    max_output_tokens: int = 2048

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")


def complete_parsed(backend: "Backend", prompt: str,
                    parse: Callable[[str], T], hint: str,
                    max_output_tokens: int = 2048) -> T:
    """Send ``prompt`` and return ``parse(reply)``, repairing a bad reply once.

    ParseFailure is the one fault an unreadable reply raises at every site
    (no JSON payload, a wrong-typed field, a profile with no header or no
    section). On it the prompt is sent again with the failure and ``hint``
    appended. A second ParseFailure propagates; each caller applies its own
    fallback rule.
    """
    reply = backend.complete(ChatRequest(prompt, max_output_tokens))
    try:
        return parse(reply)
    except ParseFailure as exc:
        repair = f"{prompt}\n\nYour previous reply could not be parsed ({exc}). {hint}"
        return parse(backend.complete(ChatRequest(repair, max_output_tokens)))


def _is_object(value) -> bool:
    return isinstance(value, dict)


def parse_json(text: str, accept: Callable[[object], bool] = _is_object):
    """The first JSON list or dict embedded in ``text`` that ``accept`` takes.

    Every ``[`` and ``{`` of the raw reply is tried in order, so prose around
    the payload is skipped. A value that starts inside a broken one (a reply
    cut short, an unescaped quote) is part of it and is not read on its own,
    so a broken payload fails instead of yielding one of its inner lists.
    Markdown fences need no stripping: a fence body is a substring of the
    reply and decodes the same in place, while a stripped copy would cut
    short a payload whose strings quote a fence.
    """
    decoder = json.JSONDecoder()
    broken_until = 0
    for start, char in enumerate(text):
        if char not in "[{" or start < broken_until:
            continue
        try:
            value, _ = decoder.raw_decode(text, start)
        except json.JSONDecodeError as exc:
            broken_until = exc.pos  # the decoder read this far into the value
            continue
        except RecursionError:  # too deep to read, and its end is unknown
            break
        if accept(value):
            return value
    raise ParseFailure("no usable JSON in model output")


def all_of(values, kind) -> bool:
    """Whether each value is of kind by its exact JSON type (a bool is no int,
    an int no float): a tuple allows each of its types, and [kind] is a list
    of kind. One pass per list level, so values may be an iterator."""
    if isinstance(kind, list):
        values = list(values)  # walked twice: the lists, then their items
        return set(map(type, values)) <= {list} and all_of(
            itertools.chain.from_iterable(values), kind[0])
    return set(map(type, values)) <= set(kind if isinstance(kind, tuple) else (kind,))


def has_type(value, kind) -> bool:
    """Whether value is of kind, as ``all_of`` reads kinds."""
    return all_of((value,), kind)


REQUIRED = object()  # the default of a field table name that must be present


def _kind(hint):
    """Optional[t] as (t, NoneType), a frozenset, tuple or list of t as [t],
    and a dict[...] or Mapping[...] as dict."""
    args, origin = get_args(hint), get_origin(hint)
    if origin in (dict, Mapping):
        return dict
    return [_kind(args[0])] if origin in (frozenset, tuple, list) else args or hint


def fields_of(cls, *omit: str) -> dict:
    """The ``read_object`` table of a dataclass's fields but omit, in field
    order, each type as ``_kind`` reads it; a field with no default is REQUIRED."""
    hints = get_type_hints(cls)
    return {f.name: (_kind(hints[f.name]),
                     REQUIRED if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls) if f.name not in omit}


def read_input(path) -> bytes:
    """The bytes of an input file; a path that is not a regular file, or a
    file that cannot be read, is MissingFile."""
    if not Path(path).is_file():
        raise MissingFile(str(path))
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise MissingFile(f"{path}: {exc}")


def read_object(obj, fields: dict) -> dict:
    """The values of ``fields`` (name -> (kind, default)) in one JSON object.

    A present value must be of its kind by ``has_type``; nothing is coerced.
    A missing name takes its default, and is a fault if that is REQUIRED.
    Names outside the table are ignored. Every fault, or an obj that is no
    object, is one ValueError that joins the faults with "; " and adds no
    prefix, so each caller keeps its own location and error class.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"not a JSON object: {obj!r:.80}")
    values, faults = {}, []
    for name, (kind, default) in fields.items():
        value = values[name] = obj.get(name, default)
        if value is REQUIRED:
            faults.append(f"{name} is missing")
        elif name in obj and not has_type(value, kind):
            faults.append(f"{name} has the wrong type: {value!r}")
    if faults:
        raise ValueError("; ".join(faults))
    return values


def drop_empty(reply: dict) -> dict:
    """A reply object without its null, "" and [] values, which read as missing."""
    return {name: value for name, value in reply.items() if value not in (None, "", [])}


def read_parsed(reply: dict, fields: dict) -> dict:
    """``read_object`` over one parsed reply object, its empty values
    dropped; any fault is a ParseFailure."""
    try:
        return read_object(drop_empty(reply), fields)
    except ValueError as exc:
        raise ParseFailure(str(exc))


def read_reply(text: str, fields: dict) -> dict:
    """``read_parsed`` over the first JSON object in ``text``."""
    return read_parsed(parse_json(text), fields)


CallKey = namedtuple("CallKey", "round stage item n", defaults=(0, "", 0, 1))
_CALL_KEY = ContextVar("call_key", default=CallKey())


def call_key() -> CallKey:
    """The key of the model call in flight, else of the next call made here:
    (round, stage, item, n), n being the call's number in its item from 1."""
    return _CALL_KEY.get()


@contextmanager
def call_scope(**fields):
    """Key the calls inside by this key with ``fields`` set and n from 1, until exit."""
    token = _CALL_KEY.set(_CALL_KEY.get()._replace(**fields, n=1))
    try:
        yield
    finally:
        _CALL_KEY.reset(token)


def run_items(stage: str, items: Iterable[T], body: Callable[[T], object]) -> list:
    """``body(item)`` for each item in order, as item 1, 2, ... of stage; each
    body sets the whole key, so it keys alike on a thread, which starts at the default."""
    round_ = call_key().round

    def run(number: int, item: T):
        with call_scope(round=round_, stage=stage, item=number):
            return body(item)
    return [run(number, item) for number, item in enumerate(items, 1)]


@dataclass
class Usage:
    """Per-run accounting shared by all calls on one backend; a raised call is taken back."""
    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "total_tokens": self.total_tokens}


def _rough_tokens(text: str) -> int:
    # cheap accounting proxy; the qa module owns the calibrated estimator
    return max(1, len(text) // 4)


def checked_block(rows, count: int, dim: Optional[int]) -> np.ndarray:
    """rows as a (count, dim) float32 block; a dim of None takes the rows' own
    width. Ragged rows, a block that is not 2-D, another count or width, or
    a row that is not finite or is all zero is DimensionMismatch."""
    try:
        block = np.asarray(rows, dtype=np.float32)
    except ValueError as exc:  # rows of unequal size
        raise DimensionMismatch(f"embedding rows do not form a block: {exc}")
    if block.ndim != 2 or block.shape != (count, dim or block.shape[1]):
        raise DimensionMismatch(f"embedding block of shape {block.shape}, "
                                f"not {count} rows of width {dim}")
    if not (np.isfinite(block).all() and block.any(axis=1).all()):
        raise DimensionMismatch("an embedding row is not finite or is all zero")
    return block


class Backend:
    """The call protocol; subclasses supply ``_complete`` and ``_embed``."""

    def __init__(self, max_calls: Optional[int] = None,
                 max_tokens: Optional[int] = None):
        self.usage = Usage()
        self._max_calls = max_calls
        self._max_tokens = max_tokens
        self._lock = threading.Lock()

    def _check_budget(self) -> None:
        """Count one call before its round-trip, so that concurrent callers
        cannot pass the call cap together; the token cap sees only the
        replies charged so far."""
        with self._lock:
            if self._max_calls is not None and self.usage.calls >= self._max_calls:
                raise BudgetExceeded(f"call cap {self._max_calls} reached")
            if self._max_tokens is not None and self.usage.total_tokens >= self._max_tokens:
                raise BudgetExceeded(f"token cap {self._max_tokens} reached")
            self.usage.calls += 1

    def _charge(self, prompt_text: str, completion_text: str) -> None:
        """Charge the tokens of one call that ``_check_budget`` counted."""
        with self._lock:
            self.usage.prompt_tokens += _rough_tokens(prompt_text)
            self.usage.completion_tokens += _rough_tokens(completion_text)

    def _gate(self, prompt_text: str, send: Callable[[], T],
              reply_text: Callable[[T], str]) -> T:
        """The one round-trip path: count the call, ``send`` under its
        ``call_key``, and charge ``prompt_text`` and the reply's ``reply_text``.
        A ``send`` that raises takes its count back and is charged nothing."""
        self._check_budget()
        try:
            reply = send()
        except BaseException:
            with self._lock:
                self.usage.calls -= 1
            raise
        finally:  # the next call of this item, made here, is keyed n + 1
            _CALL_KEY.set(call_key()._replace(n=call_key().n + 1))
        self._charge(prompt_text, reply_text(reply))
        return reply

    def complete(self, request: ChatRequest) -> str:
        return self._gate(request.prompt, lambda: self._complete(request), lambda reply: reply)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, in slices of at most ``EMBED_BATCH`` texts.

        Each slice is one round-trip through ``_gate``, so a cap that runs
        out between slices raises BudgetExceeded and returns nothing. Each
        slice's rows pass ``checked_block`` inside the gate, at the first
        slice's width, so a refused slice is taken back.
        """
        if not texts or any(not t for t in texts):
            raise ValueError("texts must be non-empty strings")
        blocks: list[np.ndarray] = []
        for start in range(0, len(texts), EMBED_BATCH):
            batch = texts[start:start + EMBED_BATCH]
            dim = blocks[0].shape[1] if blocks else None
            blocks.append(self._gate(
                " ".join(batch),
                lambda: checked_block(self._embed(batch), len(batch), dim), lambda _: ""))
        return np.concatenate(blocks)

    def _complete(self, request: ChatRequest) -> str:
        raise NotImplementedError

    def _embed(self, texts: Sequence[str]) -> Sequence:
        raise NotImplementedError


def hash_embedding(text: str) -> np.ndarray:
    """Deterministic unit vector of ``DEFAULT_EMBED_DIM`` derived from the text content.

    Bytes come from chained SHA-256 digests of ``text || counter``, mapped
    to floats in [-1, 1] and L2-normalized. Stable across platforms and
    library versions; provides geometry, not semantics.
    """
    raw = text.encode("utf-8")
    digests = b"".join(hashlib.sha256(raw + b"\x00" + str(counter).encode()).digest()
                       for counter in range((DEFAULT_EMBED_DIM + 7) // 8))
    vec = np.frombuffer(digests, dtype=">u4")[:DEFAULT_EMBED_DIM] / 2147483648.0 - 1.0
    return (vec / np.linalg.norm(vec)).astype(np.float32)


@dataclass
class FixtureRule:
    """One canned chat response.

    ``contains`` substrings must all appear in the prompt; ``not_contains``
    must all be absent. Non-sticky rules are consumed on first use, giving
    queue semantics among rules with the same matcher.
    """
    response: str
    contains: tuple[str, ...] = ()
    not_contains: tuple[str, ...] = ()
    sticky: bool = False
    used: bool = field(default=False, compare=False)

    def matches(self, prompt: str) -> bool:
        if self.used and not self.sticky:
            return False
        return all(s in prompt for s in self.contains) and not any(
            s in prompt for s in self.not_contains
        )


# a fixture rule's fields; a [str] field may be one str
_FIXTURE_FIELDS = fields_of(FixtureRule, "used")


class ScriptedBackend(Backend):
    """Deterministic stand-in for chat/embedding providers.

    Chat replies come from an ordered rule list (first match wins);
    embeddings are content-hash unit vectors of ``DEFAULT_EMBED_DIM``.
    """

    def __init__(self, rules: Sequence[FixtureRule] = (),
                 max_calls: Optional[int] = None,
                 max_tokens: Optional[int] = None):
        super().__init__(max_calls=max_calls, max_tokens=max_tokens)
        self.rules = list(rules)
        self.request_log: list[str] = []

    @classmethod
    def from_fixture_file(cls, path, **kwargs) -> "ScriptedBackend":
        """Load rules from a UTF-8 JSONL fixture, one ``_FIXTURE_FIELDS`` object per line."""
        rules = []
        for line_no, line in enumerate(read_input(path).splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if isinstance(rec, dict):
                    rec.update((name, [rec[name]]) for name in ("contains", "not_contains")
                               if isinstance(rec.get(name), str))
                rule = read_object(rec, _FIXTURE_FIELDS)
            except (ValueError, RecursionError) as exc:  # JSON, UTF-8 or nesting fault
                raise TransportError(f"{path}:{line_no}: bad fixture record: {exc}")
            rules.append(FixtureRule(rule["response"], tuple(rule["contains"]),
                                     tuple(rule["not_contains"]), rule["sticky"]))
        return cls(rules=rules, **kwargs)

    def _complete(self, request: ChatRequest) -> str:
        with self._lock:
            self.request_log.append(request.prompt)
            for rule in self.rules:
                if rule.matches(request.prompt):
                    rule.used = True
                    return rule.response
        head = request.prompt[:120].replace("\n", " ")
        raise FixtureExhausted(f"no canned response matches prompt: {head!r}...")

    def _embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [hash_embedding(t) for t in texts]


# the provider reply bodies HttpBackend reads, one field table per object
_CHAT_FIELDS = {"choices": ([dict], REQUIRED)}
_CHOICE_FIELDS = {"message": (dict, REQUIRED)}
_MESSAGE_FIELDS = {"content": ((str, type(None)), REQUIRED)}
_EMBEDDINGS_FIELDS = {"data": ([dict], REQUIRED)}
_EMBEDDING_FIELDS = {"index": (int, REQUIRED), "embedding": ([(int, float)], REQUIRED)}


class HttpBackend(Backend):
    """Backend for OpenAI-compatible chat-completion and embedding endpoints."""

    def __init__(self, api_base: str, api_key: str = "",
                 model_tag: str = "", embedding_model: str = "",
                 max_calls: Optional[int] = None,
                 max_tokens: Optional[int] = None):
        super().__init__(max_calls=max_calls, max_tokens=max_tokens)
        self.api_base = api_base.rstrip("/")
        self.model_tag = model_tag
        self.embedding_model = embedding_model or model_tag
        # requests and urllib3 load only here: a scripted run never pays for them
        import requests
        from urllib3.util.retry import Retry

        # One session, so calls reuse one open connection. Its adapter retries
        # a failed connection, a 429 or a 5xx, for RETRY_ATTEMPTS attempts in
        # all. A retry waits the reply's Retry-After if it has one, else nothing
        # before the second attempt and 2 * RETRY_BASE_DELAY before the third;
        # nothing follows the last.
        self._session = requests.Session()
        self._session.mount(self.api_base, requests.adapters.HTTPAdapter(max_retries=Retry(
            total=RETRY_ATTEMPTS - 1, backoff_factor=RETRY_BASE_DELAY,
            status_forcelist=[429, *range(500, 600)], allowed_methods=None,
            raise_on_status=False)))
        if api_key:
            self._session.headers["Authorization"] = f"Bearer {api_key}"

    def _post(self, path: str, payload: dict) -> dict:
        """The JSON reply to POSTing payload as JSON; the session makes the retries."""
        import requests

        url = f"{self.api_base}{path}"
        try:
            resp = self._session.post(url, json=payload,
                                      timeout=(HTTP_CONNECT_TIMEOUT, HTTP_READ_TIMEOUT))
        except requests.RequestException as exc:
            raise TransportError(f"{url}: {exc}")
        if resp.status_code in (401, 403):
            raise AuthError(f"{url}: HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise TransportError(f"{url}: HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()
        except (ValueError, RecursionError):
            raise TransportError(f"{url}: reply is not JSON: {resp.text[:200]}")

    def _complete(self, request: ChatRequest) -> str:
        body = self._post("/chat/completions", {
            "model": self.model_tag,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": 0.0,
            "max_tokens": request.max_output_tokens,
        })
        try:
            choices = read_object(body, _CHAT_FIELDS)["choices"]
            if not choices:
                raise ValueError("choices is empty")
            message = read_object(choices[0], _CHOICE_FIELDS)["message"]
            reply = read_object(message, _MESSAGE_FIELDS)["content"]
        except ValueError as exc:
            raise TransportError(f"malformed chat response ({exc}): {str(body)[:200]}")
        return reply or ""

    def _embed(self, texts: Sequence[str]) -> list[list[float]]:
        body = self._post("/embeddings", {
            "model": self.embedding_model,
            "input": list(texts),
        })
        try:
            rows = [read_object(row, _EMBEDDING_FIELDS)
                    for row in read_object(body, _EMBEDDINGS_FIELDS)["data"]]
            if sorted(row["index"] for row in rows) != list(range(len(texts))):
                raise ValueError("the indices are not 0..n-1")
        except ValueError as exc:
            raise TransportError(f"malformed embedding response ({exc}): {str(body)[:200]}")
        return [row["embedding"] for row in sorted(rows, key=lambda row: row["index"])]


@dataclass
class BackendRouter:
    """The backend for each role.

    ``pipeline`` makes every extraction, profile, planning, answer and
    judge call, and every embedding. ``senior`` writes the prompt
    gradients during evolution; it is the pipeline backend when not given.
    """
    pipeline: Backend
    senior: Optional[Backend] = None

    def __post_init__(self):
        if self.senior is None:
            self.senior = self.pipeline
