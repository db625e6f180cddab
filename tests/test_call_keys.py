"""Each model call's key, (round, stage, item, n), names its work item, not
its place in the run.

``run_items`` keys each item's calls by the item's number and restores the
enclosing key after each item, also when a body raises; ``Backend._gate``
counts n, also past a round-trip that raises; a thread starts at the
default key. An eval whose questions run on a pool of threads, the last
submitted first, makes the calls a serial eval makes, under the same keys,
and writes the same records.
"""
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from trimem import pipeline
from trimem.backend import (BackendRouter, CallKey, ChatRequest, FixtureRule, ScriptedBackend,
                            call_key, call_scope, run_items)
from trimem.errors import BudgetExceeded, FixtureExhausted
from trimem.metrics import build_report, write_report
from trimem.prompts import seed_prompts
from trimem.store import RetrievalConfig


def echo_backend(**caps) -> ScriptedBackend:
    return ScriptedBackend([FixtureRule("ok", sticky=True)], **caps)


def test_run_items_keys_each_items_calls_from_one():
    backend, seen = echo_backend(), []

    def body(item):
        seen.append((item, call_key()))
        backend.complete(ChatRequest(item))
        seen.append((item, call_key()))
        backend.embed([item])
        return item.upper()

    with call_scope(round=2, stage="evolve-step"):
        assert run_items("eval", ["a", "b"], body) == ["A", "B"]
        assert call_key() == (2, "evolve-step", 0, 1)
    assert seen == [("a", (2, "eval", 1, 1)), ("a", (2, "eval", 1, 2)),
                    ("b", (2, "eval", 2, 1)), ("b", (2, "eval", 2, 2))]


def test_a_round_trip_runs_under_its_key_and_advances_n_even_when_it_raises():
    backend, in_flight = ScriptedBackend(), []
    real = ScriptedBackend._complete

    def recorded(self, request):
        in_flight.append(call_key())
        return real(self, request)

    backend._complete = recorded.__get__(backend)
    with call_scope(stage="build", item=3):
        for _ in range(2):
            with pytest.raises(FixtureExhausted):  # no rule matches: the round-trip raises
                backend.complete(ChatRequest("hello"))
        assert call_key() == (0, "build", 3, 3)
    assert in_flight == [(0, "build", 3, 1), (0, "build", 3, 2)]
    assert backend.usage.calls == 0  # each raised call was taken back


def test_a_body_that_raises_restores_the_enclosing_key_and_ends_the_run():
    backend, ran = echo_backend(max_calls=3), []

    def body(item):
        ran.append(item)
        backend.complete(ChatRequest("one"))
        backend.complete(ChatRequest("two"))  # the fourth call passes the cap

    with call_scope(round=1, stage="gradient"):
        with pytest.raises(BudgetExceeded):
            run_items("eval", [1, 2, 3], body)
        assert call_key() == (1, "gradient", 0, 1)
    assert ran == [1, 2]


def test_a_fresh_thread_reads_the_default_key():
    seen = []
    with call_scope(round=4, stage="eval", item=7):
        thread = threading.Thread(target=lambda: seen.append(call_key()))
        thread.start()
        thread.join()
        assert call_key() == (4, "eval", 7, 1)
    assert seen == [CallKey()] == [(0, "", 0, 1)]


def pooled(stage, items, body):
    """``run_items`` on a pool of 4 threads, the last item submitted first."""
    round_ = call_key().round

    def run(number, item):
        with call_scope(round=round_, stage=stage, item=number):
            return body(item)

    numbered = list(enumerate(items, 1))
    with ThreadPoolExecutor(4) as pool:
        futures = [pool.submit(run, number, item) for number, item in reversed(numbered)]
    return [future.result() for future in reversed(futures)]


def keyed_eval(data_dir, store, qa_items, out_dir):
    """run_eval over the fixture: each call's key -> (kind, prompt), the
    threads that made them, and the detailed records' bytes as written."""
    backend = ScriptedBackend.from_fixture_file(data_dir / "fixture.jsonl")
    calls, threads, lock = {}, set(), threading.Lock()

    def record(key, value):
        with lock:
            assert key not in calls, f"two calls keyed {key}"
            calls[key] = value
            threads.add(threading.current_thread().name)

    real_complete, real_embed = backend._complete, backend._embed

    def complete(request):
        record(call_key(), ("chat", request.prompt))
        return real_complete(request)

    def embed(texts):
        record(call_key(), ("embed", tuple(texts)))
        return real_embed(texts)

    backend._complete, backend._embed = complete, embed
    records = pipeline.run_eval(qa_items, store, seed_prompts(),
                                BackendRouter(pipeline=backend), RetrievalConfig())
    out_dir.mkdir()
    write_report(build_report(records), records, out_dir / "report.json",
                 out_dir / "detailed.jsonl")
    return calls, threads, (out_dir / "detailed.jsonl").read_bytes()


def test_an_eval_on_a_pool_in_reverse_order_keys_and_records_as_a_serial_one(
        data_dir, built_store, qa_items, tmp_path, monkeypatch):
    serial, serial_threads, serial_records = keyed_eval(
        data_dir, built_store, qa_items, tmp_path / "serial")
    monkeypatch.setattr(pipeline, "run_items", pooled)
    pooled_calls, pool_threads, pooled_records = keyed_eval(
        data_dir, built_store, qa_items, tmp_path / "pooled")
    assert serial_threads == {threading.current_thread().name}
    assert threading.current_thread().name not in pool_threads
    assert len(serial) == 40
    assert pooled_calls == serial
    assert pooled_records == serial_records
