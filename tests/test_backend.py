import http.server
import importlib
import json
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from trimem.backend import (
    DEFAULT_EMBED_DIM,
    EMBED_BATCH,
    REQUIRED,
    Backend,
    BackendRouter,
    ChatRequest,
    FixtureRule,
    HttpBackend,
    ScriptedBackend,
    all_of,
    fields_of,
    has_type,
    hash_embedding,
    parse_json,
    read_object,
)
from trimem.corpus import DialogueTurn, Window
from trimem.errors import (
    AuthError,
    BudgetExceeded,
    DimensionMismatch,
    FixtureExhausted,
    ParseFailure,
    TransportError,
)
from trimem.evolution import PromptSet, judge, textual_gradient
from trimem.extraction import MemoryEntry, extract_entries
from trimem.metrics import EvalRecord
from trimem.profiles import update_profile
from trimem.qa import answer
from trimem.retrieval import (
    DEGENERATE_PLAN,
    RetrievedContext,
    analyze_question,
    generate_queries,
)


# -- hash embeddings ---------------------------------------------------

def test_hash_embedding_deterministic_and_unit_norm():
    a = hash_embedding("hello")
    b = hash_embedding("hello")
    assert np.array_equal(a, b)
    assert a.shape == (64,)
    assert a.dtype == np.float32
    assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-6


def test_hash_embedding_distinct_texts_differ():
    assert not np.array_equal(hash_embedding("hello"), hash_embedding("world"))


def test_hash_embedding_is_the_scripted_backends_row():
    v = hash_embedding("x")
    assert v.shape == (DEFAULT_EMBED_DIM,)
    assert ScriptedBackend().embed(["x"])[0].tobytes() == v.tobytes()


def test_hash_embedding_platform_stable_golden():
    # frozen components guard against library/platform drift
    v = hash_embedding("hello")
    assert list(v[:4]) == pytest.approx(
        [0.0856376513838768, -0.03318658843636513,
         -0.17272892594337463, 0.011826763860881329], abs=1e-9)


# -- the type vocabulary ----------------------------------------------

@pytest.mark.parametrize("value, kind, want", [
    (True, bool, True), (True, int, False), (1, bool, False), (1, int, True),
    (1, float, False), (1.0, int, False), (1.0, (int, float), True),
    (False, (int, float), False), (None, (str, type(None)), True),
    ("", (str, type(None)), True), (1, (str, type(None)), False),
    ([], [int], True), ([1, True], [int], False),
    ((1,), [int], False), ([[1.0], [2]], [[(int, float)]], True),
    ({"a": 1}, dict, True), ([{}], [dict], True),
])
def test_has_type_checks_the_exact_json_type(value, kind, want):
    assert has_type(value, kind) is want
    assert all_of([value, value], kind) is want
    assert all_of(iter([value]), kind) is want


def test_a_nested_kind_reads_a_one_pass_iterator_once():
    """The outer lists and their items are both checked, from one iterator."""
    assert all_of(iter([["a"], ["b", "c"]]), [str])
    assert not all_of(iter([["a"], ["b", 1]]), [str])
    assert not has_type([["a"], ["b", 1]], [[str]])
    assert not has_type([["a"], "b"], [[str]])
    assert has_type([["a"], [], ["b", "c"]], [[str]])
    assert all_of((), [[str]])


def test_read_object_reads_a_field_table():
    table = {"name": (str, REQUIRED), "count": (int, 0), "tags": ([str], ())}
    assert read_object({"name": "a", "extra": [1]}, table) == {
        "name": "a", "count": 0, "tags": ()}
    assert read_object({"name": "a", "count": 3, "tags": ["x"]}, table) == {
        "name": "a", "count": 3, "tags": ["x"]}
    with pytest.raises(ValueError, match="^name is missing$"):
        read_object({"count": 3}, table)
    with pytest.raises(ValueError, match="^name is missing; count has the wrong type: True$"):
        read_object({"count": True}, table)
    with pytest.raises(ValueError, match="not a JSON object"):
        read_object([], table)


def test_fields_of_derives_a_table_from_a_dataclass():
    @dataclass
    class Record:
        name: str
        ids: frozenset[int] = frozenset()
        tags: tuple[str, ...] = ()
        rows: list[float] = ()
        note: Optional[str] = None
        flag: bool = False
        skipped: int = 0

    assert list(fields_of(Record, "skipped").items()) == [
        ("name", (str, REQUIRED)), ("ids", ([int], frozenset())), ("tags", ([str], ())),
        ("rows", ([float], ())), ("note", ((str, type(None)), None)), ("flag", (bool, False))]


NONE = type(None)
# the tables fields_of now derives, as each was written out before: name ->
# (kind, default), in field order
PINNED_TABLES = {
    "store._ENTRY_TYPES": {
        "lossless_restatement": (str, REQUIRED), "keywords": ([str], frozenset()),
        "event_time": ((str, NONE), None), "location": ((str, NONE), None),
        "persons": ([str], frozenset()), "entities": ([str], frozenset()),
        "topic": (str, ""), "source_dialogue_ids": ([int], frozenset()),
        "origin_window": (int, 0)},
    "store._TURN_TYPES": {
        "session_id": (int, REQUIRED), "speaker": (str, REQUIRED),
        "text": (str, REQUIRED), "timestamp": ((str, NONE), None)},
    "pipeline._QA_FIELDS": {
        "question": (str, REQUIRED), "reference": (str, REQUIRED), "category": (int, 4),
        "evidence": ([int], frozenset())},
    "backend._FIXTURE_FIELDS": {
        "response": (str, REQUIRED), "contains": ([str], ()), "not_contains": ([str], ()),
        "sticky": (bool, False)},
    "cli._CONFIG_TYPES": {
        "top_k": (int, 25), "per_query_k": ((int, NONE), None), "anchor_count": (int, 5),
        "profile_count": (int, 2), "query_cap": (int, 3), "window_size": (int, 40),
        "stride": (int, 38), "corpus": ((str, NONE), None),
        "store_dir": ((str, NONE), None), "prompt_dir": ((str, NONE), None),
        "prompt_round": ((int, NONE), None), "hit_k": (int, 5),
        "api_base": ((str, NONE), None), "api_key": ((str, NONE), None),
        "model_tag": (str, ""), "senior_model_tag": (str, ""), "embedding_model": (str, ""),
        "scripted_fixture": ((str, NONE), None), "max_calls": ((int, NONE), None),
        "max_tokens": ((int, NONE), None), "rounds": (int, 4)},
}


def _types(kind):
    """A kind as the set of exact types it allows, [...] for a list."""
    if isinstance(kind, list):
        return [_types(kind[0])]
    return frozenset(kind) if isinstance(kind, (set, tuple)) else frozenset([kind])


def _comparable(spec):
    """A (kind, default) pair as its kind's types and its default, an empty collection as ()."""
    kind, default = spec
    empty = isinstance(default, (list, tuple, frozenset)) and not default
    return _types(kind), () if empty else default


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_derived_field_tables_keep_their_kinds_and_defaults(name):
    module, table = name.split(".")
    table = getattr(importlib.import_module(f"trimem.{module}"), table)
    pinned = PINNED_TABLES[name]
    assert list(table) == list(pinned)
    for field_name, spec in table.items():
        assert _comparable(spec) == _comparable(pinned[field_name]), field_name


# -- fixture rules -----------------------------------------------------

def test_fixture_rule_matching():
    rule = FixtureRule(response="r", contains=("abc", "def"), not_contains=("xyz",))
    assert rule.matches("zz abc zz def")
    assert not rule.matches("abc only")
    assert not rule.matches("abc def xyz")


def test_scripted_backend_queue_semantics():
    backend = ScriptedBackend(rules=[
        FixtureRule(response="first", contains=("q",)),
        FixtureRule(response="second", contains=("q",)),
        FixtureRule(response="always", contains=("q",), sticky=True),
    ])
    assert backend.complete(ChatRequest(prompt="q")) == "first"
    assert backend.complete(ChatRequest(prompt="q")) == "second"
    assert backend.complete(ChatRequest(prompt="q")) == "always"
    assert backend.complete(ChatRequest(prompt="q")) == "always"


def test_scripted_backend_exhaustion_is_transport_error():
    backend = ScriptedBackend(rules=[FixtureRule(response="r", contains=("q",))])
    backend.complete(ChatRequest(prompt="q"))
    with pytest.raises(FixtureExhausted) as err:
        backend.complete(ChatRequest(prompt="q"))
    assert isinstance(err.value, TransportError)


def test_scripted_backend_request_log_and_reset():
    backend = ScriptedBackend(rules=[FixtureRule(response="r", contains=("q",))])
    backend.complete(ChatRequest(prompt="q one"))
    assert backend.request_log == ["q one"]


def test_fixture_file_loading(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps({"contains": "hi", "response": "yo"}) + "\n")
    backend = ScriptedBackend.from_fixture_file(path)
    assert backend.complete(ChatRequest(prompt="well hi there")) == "yo"


def test_fixture_file_rejects_bad_json(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text("{broken\n")
    with pytest.raises(TransportError):
        ScriptedBackend.from_fixture_file(path)


@pytest.mark.parametrize("bad", [
    {"contains": "hi"},
    {"response": 5},
    {"response": "yo", "contains": ["hi", 1]},
    {"response": "yo", "not_contains": 5},
    {"response": "yo", "sticky": "false"},
    ["not", "an", "object"],
], ids=["response-missing", "response-a-number", "contains-a-number",
        "not-contains-a-number", "sticky-a-string", "not-an-object"])
def test_fixture_file_rejects_a_wrong_typed_field(tmp_path, bad):
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps({"response": "ok"}) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(TransportError) as excinfo:
        ScriptedBackend.from_fixture_file(path)
    assert f"{path}:2: bad fixture record" in str(excinfo.value)


# -- budgets and accounting -------------------------------------------

def test_usage_accounting_monotone():
    backend = ScriptedBackend(rules=[
        FixtureRule(response="reply text", contains=("q",), sticky=True)])
    seen = []
    for _ in range(3):
        backend.complete(ChatRequest(prompt="q" * 50))
        seen.append((backend.usage.calls, backend.usage.total_tokens))
    assert seen == sorted(seen)
    assert seen[0][0] == 1 and seen[-1][0] == 3
    assert all(t > 0 for _, t in seen)


@pytest.mark.parametrize("call", [
    lambda b: b.complete(ChatRequest(prompt="q")),
    lambda b: b.embed(["q"]),
], ids=["complete", "embed"])
def test_call_budget_enforced(call):
    backend = ScriptedBackend(
        rules=[FixtureRule(response="r", contains=("q",), sticky=True)],
        max_calls=2)
    call(backend)
    call(backend)
    with pytest.raises(BudgetExceeded):
        call(backend)


def test_token_budget_enforced():
    backend = ScriptedBackend(
        rules=[FixtureRule(response="r" * 400, contains=("q",), sticky=True)],
        max_tokens=50)
    backend.complete(ChatRequest(prompt="q"))
    with pytest.raises(BudgetExceeded):
        backend.complete(ChatRequest(prompt="q"))


class SlowBackend(Backend):
    """A backend whose round-trip takes 10 ms and is counted."""

    def __init__(self, **caps):
        super().__init__(**caps)
        self.round_trips = 0
        self.count_lock = threading.Lock()

    def _complete(self, request):
        time.sleep(0.01)
        with self.count_lock:
            self.round_trips += 1
        return "r"


def test_call_cap_holds_under_threads():
    backend = SlowBackend(max_calls=10)
    outcomes = []

    def worker():
        for _ in range(4):
            try:
                outcomes.append(backend.complete(ChatRequest(prompt="q")))
            except BudgetExceeded as exc:
                outcomes.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert backend.round_trips == backend.usage.calls == 10
    assert outcomes.count("r") == 10
    assert sum(isinstance(o, BudgetExceeded) for o in outcomes) == 8 * 4 - 10


def test_a_failed_round_trip_releases_its_reservation(monkeypatch):
    backend = _scripted(monkeypatch, max_calls=1)
    monkeypatch.setattr(backend, "_complete", lambda request: 1 / 0)
    monkeypatch.setattr(backend, "_embed", lambda texts: [[1.0], [1.0, 0.0]])
    with pytest.raises(ZeroDivisionError):
        backend.complete(ChatRequest(prompt="q"))
    with pytest.raises(DimensionMismatch):
        backend.embed(["a", "b"])
    monkeypatch.undo()
    backend.complete(ChatRequest(prompt="q"))  # the one call the cap allows
    with pytest.raises(BudgetExceeded):
        backend.complete(ChatRequest(prompt="q"))


def test_embed_rejects_empty_input():
    backend = ScriptedBackend()
    with pytest.raises(ValueError):
        backend.embed([])
    with pytest.raises(ValueError):
        backend.embed(["ok", ""])


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(prompt="")


# -- http backend (transport mocked) ----------------------------------

class FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body
        self.text = json.dumps(body)

    def json(self):
        return self._body


def test_http_backend_auth_error(monkeypatch):
    import requests

    monkeypatch.setattr(requests.Session, "post",
                        lambda *a, **k: FakeResponse(401, {}))
    backend = HttpBackend("http://api.test", "bad-key")
    with pytest.raises(AuthError):
        backend.complete(ChatRequest(prompt="q"))


def test_http_backend_embeddings(monkeypatch):
    import requests

    body = {"data": [
        {"index": 1, "embedding": [0.0, 1.0]},
        {"index": 0, "embedding": [1.0, 0.0]},
    ]}
    monkeypatch.setattr(requests.Session, "post", lambda *a, **k: FakeResponse(200, body))
    backend = HttpBackend("http://api.test")
    vectors = backend.embed(["a", "b"])
    assert vectors.shape == (2, 2)
    assert list(vectors[0]) == [1.0, 0.0]  # re-sorted by index


class NotJsonResponse(FakeResponse):
    def json(self):
        import requests

        raise requests.exceptions.JSONDecodeError("Expecting value", self.text, 0)


@pytest.mark.parametrize("reply, call", [
    (NotJsonResponse(200, "<html>busy</html>"),
     lambda b: b.complete(ChatRequest(prompt="q"))),
    (FakeResponse(200, {"data": [{"index": 0, "embedding": ["x", "y"]}]}),
     lambda b: b.embed(["a"])),
], ids=["reply-not-json", "embedding-not-numeric"])
def test_http_backend_malformed_200_is_transport_error(monkeypatch, reply, call):
    import requests

    monkeypatch.setattr(requests.Session, "post", lambda *a, **k: reply)
    with pytest.raises(TransportError):
        call(HttpBackend("http://api.test"))


class ProviderHandler(http.server.BaseHTTPRequestHandler):
    """A keep-alive chat and embedding provider; each instance serves one
    connection, with Nagle's algorithm off so that a reply is not held back.
    Each POST is logged in ``posts`` as (path, Authorization header). It
    takes its status and headers from the front of ``script`` while that
    lasts, and is otherwise a 200 with a well-formed body, or with ``body``'s
    bytes when set. A status of None sends nothing until ``release`` is set."""
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    connections: list = []
    posts: list = []
    script: list = []
    release = threading.Event()
    body = None

    def setup(self):
        super().setup()
        self.connections.append(self.client_address)

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.posts.append((self.path, self.headers["Authorization"]))
        status, headers = self.script.pop(0) if self.script else (200, {})
        if status is None:
            self.release.wait(10)
            return
        if status != 200:
            body = {"error": f"scripted {status}"}
        elif self.path.endswith("/embeddings"):
            body = {"data": [{"index": i, "embedding": [1.0, 0.0]}
                             for i in range(len(request["input"]))]}
        else:
            body = {"choices": [{"message": {"content": "ok"}}]}
        data = self.body or json.dumps(body).encode()
        self.send_response(status)
        for name, value in {**headers, "Content-Type": "application/json",
                            "Content-Length": str(len(data))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def provider(monkeypatch):
    """The base URL of a ProviderHandler served on 127.0.0.1 for one test."""
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    for name in ("connections", "posts", "script"):
        monkeypatch.setattr(ProviderHandler, name, [])
    monkeypatch.setattr(ProviderHandler, "release", threading.Event())
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), ProviderHandler)
    # shutdown() waits out one poll, 0.5 s by default
    serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                               daemon=True)
    serving.start()
    yield f"http://127.0.0.1:{server.server_port}"
    ProviderHandler.release.set()
    server.shutdown()
    server.server_close()
    serving.join(timeout=10)


@pytest.fixture
def waits(monkeypatch):
    """The seconds urllib3's Retry waits between attempts, recorded, not slept."""
    slept = []
    monkeypatch.setattr("urllib3.util.retry.time.sleep", slept.append)
    return slept


def test_http_backend_reuses_one_connection(provider):
    backend = HttpBackend(provider)
    for _ in range(3):
        assert backend.complete(ChatRequest(prompt="q")) == "ok"
        assert backend.embed(["a", "b"]).shape == (2, 2)
    backend._session.close()
    assert backend.usage.calls == 6
    assert len(ProviderHandler.connections) == 1


def test_http_backend_retries_then_succeeds(provider, waits):
    ProviderHandler.script[:] = [(503, {}), (503, {})]
    backend = HttpBackend(provider)
    assert backend.complete(ChatRequest(prompt="q")) == "ok"
    assert len(ProviderHandler.posts) == 3
    assert waits == [2.0]
    assert backend.usage.calls == 1


def test_http_backend_gives_up_after_retries(provider, waits):
    ProviderHandler.script[:] = [(500, {})] * 4
    backend = HttpBackend(provider)
    with pytest.raises(TransportError, match="HTTP 500"):
        backend.complete(ChatRequest(prompt="q"))
    assert len(ProviderHandler.posts) == 3  # the fourth 500 is never asked for
    assert waits == [2.0]  # and nothing after the last attempt
    assert backend.usage.calls == 0


def test_http_backend_waits_the_retry_after_of_a_429(provider, waits):
    ProviderHandler.script[:] = [(429, {"Retry-After": "7"})]
    backend = HttpBackend(provider)
    assert backend.embed(["a"]).shape == (1, 2)
    assert len(ProviderHandler.posts) == 2
    assert waits == [7]


@pytest.mark.parametrize("status, error", [
    (401, AuthError), (403, AuthError), (400, TransportError)])
def test_http_backend_does_not_retry_a_client_error(provider, waits, status, error):
    ProviderHandler.script[:] = [(status, {})]
    with pytest.raises(error, match=f"HTTP {status}"):
        HttpBackend(provider, "key").complete(ChatRequest(prompt="q"))
    assert ProviderHandler.posts == [("/chat/completions", "Bearer key")]
    assert waits == []


def test_http_backend_gives_up_on_a_stalled_reply(provider, waits, monkeypatch):
    # each attempt is cut at the read timeout, not held for the provider's stall
    monkeypatch.setattr("trimem.backend.HTTP_READ_TIMEOUT", 0.2)
    ProviderHandler.script[:] = [(None, {})] * 3
    backend = HttpBackend(provider)
    started = time.monotonic()
    with pytest.raises(TransportError, match="Read timed out"):
        backend.complete(ChatRequest(prompt="q"))
    assert time.monotonic() - started < 5
    assert len(ProviderHandler.posts) == 3
    assert backend.usage.calls == 0


@pytest.mark.parametrize("call", [lambda b: b.complete(ChatRequest(prompt="q")),
                                  lambda b: b.embed(["a"])], ids=["chat", "embeddings"])
def test_http_backend_refuses_a_reply_nested_too_deep(provider, monkeypatch, call):
    monkeypatch.setattr(ProviderHandler, "body", b"[" * 10_000 + b"]" * 10_000)
    backend = HttpBackend(provider)
    with pytest.raises(TransportError, match="reply is not JSON"):
        call(backend)
    backend._session.close()


def test_http_backend_gives_up_on_a_refused_connection(monkeypatch, waits):
    import urllib3.util.connection

    attempts = []
    connect = urllib3.util.connection.create_connection

    def counted(*args, **kwargs):
        attempts.append(args[0])
        return connect(*args, **kwargs)

    monkeypatch.setattr(urllib3.util.connection, "create_connection", counted)
    with socket.socket() as bound:  # bound and not listening: a connect is refused
        bound.bind(("127.0.0.1", 0))
        backend = HttpBackend(f"http://127.0.0.1:{bound.getsockname()[1]}")
        with pytest.raises(TransportError, match="Connection refused"):
            backend.complete(ChatRequest(prompt="q"))
    assert len(attempts) == 3
    assert waits == [2.0]


def _embedding_rows(*rows):
    return {"data": [{"index": index, "embedding": row} for index, row in rows]}


@pytest.mark.parametrize("body, call", [
    ({"choices": [{"message": {"content": 5}}]},
     lambda b: b.complete(ChatRequest(prompt="q"))),
    ({"choices": [{"message": {"content": ["ok"]}}]},
     lambda b: b.complete(ChatRequest(prompt="q"))),
    ({"choices": []}, lambda b: b.complete(ChatRequest(prompt="q"))),
    (_embedding_rows((1, [1.0, 0.0]), (1, [0.0, 1.0])), lambda b: b.embed(["a", "b"])),
    (_embedding_rows((5, [1.0, 0.0]), (9, [0.0, 1.0])), lambda b: b.embed(["a", "b"])),
    (_embedding_rows(("0", [1.0, 0.0]), ("1", [0.0, 1.0])), lambda b: b.embed(["a", "b"])),
    (_embedding_rows((0, ["0.5", "0.5"])), lambda b: b.embed(["a"])),
    (_embedding_rows((0, [True, False])), lambda b: b.embed(["a"])),
    (_embedding_rows((0, [[0.5, 0.5]])), lambda b: b.embed(["a"])),
    (_embedding_rows((0, [1.0, 0.0])), lambda b: b.embed(["a", "b"])),
    (_embedding_rows((0, [1.0, 0.0]), (1, [0.0, 1.0]), (2, [1.0, 0.0])),
     lambda b: b.embed(["a", "b"])),
], ids=["content-a-number", "content-a-list", "choices-empty", "index-repeated",
        "index-skipped", "index-a-string", "embedding-strings", "embedding-bools",
        "embedding-nested", "one-row-for-two-texts", "three-rows-for-two-texts"])
def test_http_backend_refuses_a_bad_reply_body(monkeypatch, body, call):
    import requests

    monkeypatch.setattr(requests.Session, "post", lambda *a, **k: FakeResponse(200, body))
    with pytest.raises(TransportError, match="malformed"):
        call(HttpBackend("http://api.test"))


# -- the call protocol every backend inherits --------------------------

def _scripted(monkeypatch, rows=None, **caps):
    backend = ScriptedBackend(rules=[FixtureRule(response="r", sticky=True)], **caps)
    if rows is not None:
        monkeypatch.setattr(backend, "_embed", rows)
    return backend


def _http(monkeypatch, rows=lambda texts: [[1.0, 0.0]] * len(texts), **caps):
    import requests

    def fake_post(session, url, json, **kwargs):
        if url.endswith("/embeddings"):
            data = [{"index": i, "embedding": row}
                    for i, row in enumerate(rows(json["input"]))]
            return FakeResponse(200, {"data": data})
        return FakeResponse(200, {"choices": [{"message": {"content": "r"}}]})

    monkeypatch.setattr(requests.Session, "post", fake_post)
    return HttpBackend("http://api.test", **caps)


@pytest.mark.parametrize("make", [_scripted, _http], ids=["scripted", "http"])
def test_backend_call_protocol(monkeypatch, make):
    for call in (lambda b: b.complete(ChatRequest(prompt="q")),
                 lambda b: b.embed(["q"])):
        for caps in ({"max_calls": 1}, {"max_tokens": 1}):
            backend = make(monkeypatch, **caps)
            call(backend)
            assert backend.usage.calls == 1  # one successful call charges once
            with pytest.raises(BudgetExceeded):
                call(backend)
            assert backend.usage.calls == 1

    backend = make(monkeypatch)
    for texts in ([], ["ok", ""]):
        with pytest.raises(ValueError):
            backend.embed(texts)
    assert backend.usage.calls == 0
    cases = [lambda texts: [[1.0, 0.0], [1.0]]]  # mixed sizes
    if make is _scripted:  # an HTTP reply with another row count is malformed
        cases.append(lambda texts: [[1.0, 0.0]])  # one row for two texts
    for rows in cases:
        backend = make(monkeypatch, rows=rows)
        with pytest.raises(DimensionMismatch):
            backend.embed(["a", "b"])
        assert backend.usage.calls == 0


def test_embed_checks_row_sizes_across_slices(monkeypatch):
    calls = []

    def rows(texts):
        calls.append(len(texts))
        return [[1.0] * (2 if len(calls) == 1 else 3)] * len(texts)

    backend = _scripted(monkeypatch, rows=rows)
    with pytest.raises(DimensionMismatch):
        backend.embed(["t"] * (EMBED_BATCH + 1))
    assert calls == [EMBED_BATCH, 1]
    assert backend.usage.calls == 1  # the first slice's round-trip is charged


# -- router ------------------------------------------------------------

def test_router_role_defaults():
    pipeline = ScriptedBackend()
    senior = ScriptedBackend()
    router = BackendRouter(pipeline=pipeline, senior=senior)
    assert router.pipeline is pipeline
    assert router.senior is senior
    assert BackendRouter(pipeline=pipeline).senior is pipeline


# -- reply parsing and repair ------------------------------------------

def is_list(value):
    return isinstance(value, list)


def test_parse_json_reads_fenced_bodies():
    assert parse_json("```json\n[1]\n```", is_list) == [1]
    assert parse_json("```\n[1]\n```", is_list) == [1]
    assert parse_json("[1]", is_list) == [1]
    # a string value quoting a fence stays whole
    quoted = {"answer": "use ```json\n[1]\n``` fences"}
    assert parse_json("```json\n" + json.dumps(quoted) + "\n```") == quoted


def test_parse_json_returns_first_accepted_value():
    text = 'See [3] below: {"a": [1]} then {"answer": "x"}'
    assert parse_json(text) == {"a": [1]}
    assert parse_json(text, is_list) == [3]
    assert parse_json(text, lambda v: isinstance(v, dict) and "answer" in v) \
        == {"answer": "x"}
    with pytest.raises(ParseFailure):
        parse_json("no json {here", is_list)
    with pytest.raises(ParseFailure):  # deeper than the decoder can recurse
        parse_json("[" * 3000)


def test_parse_json_does_not_read_inside_a_broken_value():
    cut = '[{"entities": [], "keywords": ["Alice"], "topic": "tra'
    with pytest.raises(ParseFailure):
        parse_json(cut, is_list)
    with pytest.raises(ParseFailure):
        parse_json('[{"answer": "x"}, {"answer": "y"')
    # a value after the broken one is still found
    assert parse_json('{"a": "he said "hi""} so {"answer": "x"}') == {"answer": "x"}


def _window():
    turns = (DialogueTurn(turn_id=1, session_id=0, speaker="A", text="t1"),)
    return Window(index=1, turns=turns)


def _judge(backend):
    return judge("q", "p", "r", "Judge.\n{question} {reference} {prediction}", backend)


def _answer(backend):
    return answer("where?", RetrievedContext([], [], []),
                  "Answer.\nQuestion: {query}\n{context}", backend)


def _gradient(backend):
    record = EvalRecord(question="q", prediction="p", reference="r", category=1,
                        f1=0.0, judge_score=0.0)
    return textual_gradient([record], PromptSet.seed(),
                            "Evolve.\n{extraction_prompt}\n{profile_prompt}", backend)


_SEED = PromptSet.seed()
_GRADIENT = {"rewritten_p_ext": _SEED.extraction, "rewritten_p_prof": _SEED.profile,
             "change_summary": "none"}

_ENTRY = MemoryEntry(lossless_restatement="Alice moved.",
                     persons=frozenset({"Alice"}),
                     source_dialogue_ids=frozenset({1}))

# site -> (run the site on a backend, a valid reply, a malformed reply)
REPAIR_SITES = {
    "extraction": (
        lambda b: extract_entries(_window(), "Extract.\n{dialogue_text}", b),
        json.dumps([{"lossless_restatement": "A said t1.",
                     "source_dialogue_ids": [1]}]),
        "sorry, no JSON"),
    "profile": (
        lambda b: update_profile("alice", [_ENTRY], None,
                                 "Profile {entity_name}.\n{facts}", b),
        "Entity: Alice\n[Identity] Lives in Rome.",
        "[Identity] no header"),
    "profile-no-sections": (
        lambda b: update_profile("alice", [_ENTRY], None,
                                 "Profile {entity_name}.\n{facts}", b),
        "Entity: Alice\n[Identity] Lives in Rome.",
        "Entity: Alice\njust prose"),
    "plan": (
        lambda b: analyze_question("when?", "Analyse.\nQuestion: {query}", b),
        json.dumps({"question_type": "temporal"}),
        "not json"),
    "plan-wrong-typed-field": (
        lambda b: analyze_question("when?", "Analyse.\nQuestion: {query}", b),
        json.dumps({"question_type": "temporal", "minimal_queries_needed": 2}),
        json.dumps({"question_type": "temporal", "minimal_queries_needed": 2.0})),
    "queries-non-string": (
        lambda b: generate_queries("who?", DEGENERATE_PLAN, "Queries.\n{original_query}", b, 3),
        json.dumps({"queries": ["Ann", "Bob"]}),
        json.dumps({"queries": ["Ann", 5]})),
    "answer": (
        _answer, json.dumps({"reasoning": "r", "answer": "Rome"}), "free text"),
    "answer-null": (
        _answer, json.dumps({"reasoning": "r", "answer": "Rome"}),
        json.dumps({"reasoning": "r", "answer": None})),
    "judge": (_judge, json.dumps({"score": 1, "reasoning": "ok"}), "???"),
    "judge-non-numeric-score": (
        _judge, json.dumps({"score": 1, "reasoning": "ok"}),
        json.dumps({"score": "high", "reasoning": "ok"})),
    "judge-numeric-string-score": (
        _judge, json.dumps({"score": 1, "reasoning": "ok"}),
        json.dumps({"score": "0.7", "reasoning": "ok"})),
    "judge-bool-score": (
        _judge, json.dumps({"score": 1, "reasoning": "ok"}),
        json.dumps({"score": True, "reasoning": "ok"})),
    "gradient-lost-placeholder": (
        _gradient, json.dumps(_GRADIENT),
        json.dumps({**_GRADIENT, "rewritten_p_ext":
                    _SEED.extraction.replace("{dialogue_text}", "the dialogue")})),
}


@pytest.mark.parametrize("site", sorted(REPAIR_SITES))
def test_every_site_repairs_once_with_the_same_note(site):
    run_site, valid, malformed = REPAIR_SITES[site]
    backend = ScriptedBackend(rules=[FixtureRule(response=malformed),
                                     FixtureRule(response=valid)])
    result = run_site(backend)
    first, repair = backend.request_log
    assert repair.startswith(first + "\n\nYour previous reply could not be parsed")
    assert "unparsed" not in repr(result)  # the repaired reply was used
