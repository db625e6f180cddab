"""The benchmark's tracer wraps engine names by lookup; they must all exist.

``perfbench/spans.py`` swaps module attributes and ``MemoryStore`` methods
for timing wrappers and puts them back afterwards. A refactor that drops or
renames one of those names would otherwise show only in a traced benchmark
run (``perfbench/run.py --trace 1``), so one such run is made here too.
"""
import importlib
import json
import subprocess
import sys
from pathlib import Path

from trimem import evolution, metrics, pipeline, qa
from trimem.store import MemoryStore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (pipeline, qa, evolution, metrics, MemoryStore)


def test_spans_install_and_uninstall_restore_the_engine(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = [dict(vars(owner)) for owner in OWNERS]

    uninstall = spans.install(spans.Tracer())
    try:
        assert qa.assemble_context is not before[1]["assemble_context"]
        assert pipeline.retrieve is not before[0]["retrieve"]
    finally:
        uninstall()

    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        changed = [k for k in saved if now.get(k) is not saved[k]]
        assert not changed, f"{owner.__name__}: {changed} not restored"


def test_bench_backend_charges_through_the_engine(monkeypatch):
    # perfbench/provider.py overrides complete/embed and charges through
    # Backend._check_budget and Backend._charge
    monkeypatch.syspath_prepend(str(PERFBENCH))
    provider = importlib.import_module("provider")
    backend = provider.BenchBackend(provider.Provider(1, dim=32))
    backend.embed(["a b"])
    assert backend.usage.calls == 1


def test_benchmark_ingest_op_passes_its_output_checks_traced():
    # one ingest operation through every output check and through the tracer
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "ingest",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_benchmark_eval_rtt_op_passes_its_output_checks_traced():
    # one eval-rtt operation, the second listed workload, the same way
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "eval-rtt",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
