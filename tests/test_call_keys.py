"""Each model call's key, (round, stage, item, n), names its work item, not
its place in the run.

``run_items`` keys each item's calls by the item's number and restores the
enclosing key after each item, also when a body raises; ``Backend._gate``
counts n, also past a round-trip that raises; a thread starts at the
default key. An eval whose questions run on a pool of threads, the last
submitted first, makes the calls a serial eval makes, under the same keys,
and writes the same report and records: on 4 threads, and on 4 and 8
threads under five seeded schedules, each of which delays every round-trip
by 0-3 ms chosen by a hash of the seed and the call's key. A pool that
returns records in the order they complete writes other records under
some seed, so the byte comparison sees a mixed-up pool.
"""
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed

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


def pooled(workers, in_completion_order=False):
    """``run_items`` on a pool of workers threads, the last item submitted
    first, returning the results in item order or, as a pool that mixes up
    its records would, in the order they complete."""
    def run_items(stage, items, body):
        round_ = call_key().round

        def run(number, item):
            with call_scope(round=round_, stage=stage, item=number):
                return body(item)

        numbered = list(enumerate(items, 1))
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(run, number, item) for number, item in reversed(numbered)]
            done = as_completed(futures) if in_completion_order else reversed(futures)
            return [future.result() for future in done]
    return run_items


def delay(seed, key) -> float:
    """The sleep in seconds, 0 to 3 ms, before the round-trip keyed key in
    seed's schedule: a hash of both, so a seed gives the same delays in every run."""
    return random.Random(f"{seed}/{key}").uniform(0, 3e-3)


def keyed_eval(data_dir, store, qa_items, out_dir, seed=None):
    """run_eval over the fixture, each round-trip after seed's delay, if a
    seed is given: each call's key -> (kind, prompt), the threads that made
    them, and the report's and the detailed records' bytes as written."""
    backend = ScriptedBackend.from_fixture_file(data_dir / "fixture.jsonl")
    calls, threads, lock = {}, set(), threading.Lock()

    def record(key, value):
        with lock:
            assert key not in calls, f"two calls keyed {key}"
            calls[key] = value
            threads.add(threading.current_thread().name)
        if seed is not None:
            time.sleep(delay(seed, key))

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
    outputs = [out_dir / "report.json", out_dir / "detailed_results.jsonl"]
    write_report(build_report(records), records, *outputs)
    return calls, threads, [path.read_bytes() for path in outputs]


def test_an_eval_on_a_pool_in_reverse_order_keys_and_records_as_a_serial_one(
        data_dir, built_store, qa_items, tmp_path, monkeypatch):
    serial, serial_threads, serial_outputs = keyed_eval(
        data_dir, built_store, qa_items, tmp_path / "serial")
    monkeypatch.setattr(pipeline, "run_items", pooled(4))
    pooled_calls, pool_threads, pooled_outputs = keyed_eval(
        data_dir, built_store, qa_items, tmp_path / "pooled")
    assert serial_threads == {threading.current_thread().name}
    assert threading.current_thread().name not in pool_threads
    assert len(serial) == 40
    assert pooled_calls == serial
    assert pooled_outputs == serial_outputs


def test_an_eval_on_4_and_8_threads_under_seeded_schedules_writes_as_a_serial_one(
        data_dir, built_store, qa_items, tmp_path, monkeypatch):
    serial_calls, _, serial_outputs = keyed_eval(data_dir, built_store, qa_items,
                                                 tmp_path / "serial")
    mixed_up = []
    for seed in range(5):
        for workers in (4, 8):
            monkeypatch.setattr(pipeline, "run_items", pooled(workers))
            calls, _, outputs = keyed_eval(data_dir, built_store, qa_items,
                                           tmp_path / f"{seed}-{workers}", seed)
            assert (calls, outputs) == (serial_calls, serial_outputs), (seed, workers)
        # the control: a pool that keeps completion order must show in the outputs
        monkeypatch.setattr(pipeline, "run_items", pooled(8, in_completion_order=True))
        mixed_up.append(keyed_eval(data_dir, built_store, qa_items,
                                   tmp_path / f"{seed}-unordered", seed)[2] != serial_outputs)
    assert any(mixed_up)
