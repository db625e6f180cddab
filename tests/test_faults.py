"""Fault sweep over the fixture build, eval and evolve.

Every model call of ``trimem build`` on the fixture fails in turn, with
each fault the backend can raise, and two unreadable chat replies in a row
(a reply and its one repair). A call is picked by its ``call_key``, so a
case names the same call in any order the work items run; each case's id
keeps the call's number in the serial run. An unfaulted build, eval and
evolve each make the serial run's calls in its order: window k's
extraction and profile updates before window k+1's extraction, the
build's one embed last. Each faulted run must end in the fault's
documented exit code, a fresh directory must hold no store afterwards,
and a built store that ``build --force`` was replacing must still load,
byte for byte.
A kill at any build call, which no ``except`` of the engine catches, leaves
that store byte for byte and its ``.lock`` gone.
Every call of ``trimem eval`` fails in turn the same way: a raised fault
ends in its exit code with nothing written to ``--out``, and two unreadable
replies fall back and end in a full report.
A ``persist`` over the built store fails after each of its writes, and
with each file it writes cut short: the old store is left byte for byte,
with no staged ``.tmp`` file, and loads. The same faults in the first
persist of ``trimem build`` leave an empty directory, so the build runs
again without ``--force``.
Gate 6's two-round ``trimem evolve`` fails the same ways at the first and
last call of each build, eval and gradient step: a raised fault, or two
unreadable build replies, end in the exit code; two unreadable replies fall
back at an eval call and make a no-op round at a gradient call. A full disk
during a gradient-log write keeps the lines of the earlier rounds, and the
log replays to the rounds written, its cut last line ignored.
"""
import errno
import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from trimem.backend import BackendRouter, ScriptedBackend, call_key
from trimem.cli import main
from trimem.errors import (EXIT_BACKEND, EXIT_DATA, EXIT_OK, AuthError, BudgetExceeded,
                           StoreIOError, TransportError)
from trimem.evolution import PromptSet, evolve, replay_gradients
from trimem.store import STAGED_FILES, STORE_FILES, MemoryStore

# each build call's key (round, stage, item, n) and kind, in the serial call
# order: window k's extraction and its two profile updates come before window
# k+1's extraction, and the one embed, outside any window, comes last
BUILD_CALLS = {**{(0, "build", window, n): "chat" for window in range(1, 9) for n in (1, 2, 3)},
               (0, "build", 0, 1): "embed"}
UNREADABLE = "no JSON and no 'Entity:' header"  # fails every build-time parser

# fault -> (the exception raised at a call, or None for two unreadable
# replies, the call's and its repair's), the exit code and the error it reports
FAULTS = {
    "transport": (TransportError, EXIT_BACKEND, "TransportError"),
    "auth": (AuthError, EXIT_BACKEND, "AuthError"),
    "budget": (BudgetExceeded, EXIT_BACKEND, "BudgetExceeded"),
    "unreadable-twice": (None, EXIT_DATA, "ParseFailure"),
}
CASES = [(fault, key) for fault in FAULTS for key, kind in BUILD_CALLS.items()
         if FAULTS[fault][0] or kind == "chat"]


def call_number(key, calls) -> int:
    """The 1-based place of key among calls, in the serial run: a case's id."""
    return list(calls).index(key) + 1


def repair_of(key) -> tuple:
    """The key of the repair call that follows the call keyed key."""
    return (*key[:3], key[3] + 1)


class Killed(BaseException):
    """A kill at a call: not an Exception, so no engine ``except`` catches it."""


def inject(monkeypatch, fault=None, key=None) -> dict:
    """Patch every ScriptedBackend round-trip to record its ``call_key`` and
    fail the call keyed key with fault, a FAULTS key or an exception class;
    returns each call's key and kind, in call order. No key may repeat."""
    error = FAULTS[fault][0] if isinstance(fault, str) else fault
    calls: dict[tuple, str] = {}

    def counted(kind, real):
        def round_trip(self, request):
            made = call_key()
            assert made not in calls, f"two calls keyed {made}"
            calls[made] = kind
            if fault and error is None and made in (key, repair_of(key)):
                return UNREADABLE
            if fault and error and made == key:
                raise error(f"injected at call {key}")
            return real(self, request)
        return round_trip

    monkeypatch.setattr(ScriptedBackend, "_complete",
                        counted("chat", ScriptedBackend._complete))
    monkeypatch.setattr(ScriptedBackend, "_embed", counted("embed", ScriptedBackend._embed))
    return calls


def build(capsys, store, *extra):
    code = main(["build", "--corpus", "corpus.json", "--store", store,
                 "--scripted", "fixture.jsonl", *extra])
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def built(tmp_path_factory, data_dir):
    """A store from the unfaulted fixture build, for each case to copy."""
    store = tmp_path_factory.mktemp("built") / "store"
    assert main(["build", "--corpus", str(data_dir / "corpus.json"), "--store", str(store),
                 "--scripted", str(data_dir / "fixture.jsonl")]) == EXIT_OK
    return store


def snapshot(store):
    return {p.name: p.read_bytes() for p in sorted(store.iterdir())}


def test_the_fixture_build_makes_24_chat_calls_then_one_embed(work_dir, capsys, monkeypatch):
    calls = inject(monkeypatch)
    assert build(capsys, "store")[0] == EXIT_OK
    assert list(calls.items()) == list(BUILD_CALLS.items())  # order too: dict == ignores it


@pytest.mark.parametrize("fault,key", CASES,
                         ids=[f"{f}-call-{call_number(key, BUILD_CALLS)}" for f, key in CASES])
def test_a_fault_at_any_build_call_leaves_no_store_or_the_old_one(
        work_dir, capsys, monkeypatch, built, fault, key):
    _, want_code, want_error = FAULTS[fault]
    shutil.copytree(built, work_dir / "built")
    before = snapshot(work_dir / "built")

    calls = inject(monkeypatch, fault, key)
    code, err = build(capsys, "fresh")
    assert (code, json.loads(err)["error"]) == (want_code, want_error)
    assert calls[key] == BUILD_CALLS[key]
    assert list((work_dir / "fresh").iterdir()) == []
    with pytest.raises(StoreIOError):
        MemoryStore.load(work_dir / "fresh")

    calls.clear()  # the same fault at the same call, over the built store
    code, err = build(capsys, "built", "--force")
    assert (code, json.loads(err)["error"]) == (want_code, want_error)
    assert snapshot(work_dir / "built") == before
    assert len(MemoryStore.load(work_dir / "built")) == 60


@pytest.mark.parametrize("key", BUILD_CALLS,
                         ids=[str(call_number(key, BUILD_CALLS)) for key in BUILD_CALLS])
def test_a_kill_at_any_build_call_leaves_the_old_store_and_no_lock(
        work_dir, capsys, monkeypatch, built, key):
    shutil.copytree(built, work_dir / "built")
    before = snapshot(work_dir / "built")
    calls = inject(monkeypatch, Killed, key)
    with pytest.raises(Killed, match=rf"injected at call {re.escape(str(key))}$"):
        build(capsys, "built", "--force")
    assert list(calls)[-1] == key  # no call follows the kill
    assert not (work_dir / "built" / ".lock").exists()
    assert snapshot(work_dir / "built") == before


# per question: the analysis and query calls of its plan, the query embed,
# the answer and the judge
EVAL_CALLS = {(0, "eval", question, n): kind for question in range(1, 9)
              for n, kind in enumerate(["chat", "chat", "embed", "chat", "chat"], 1)}
EVAL_CASES = [(fault, key) for fault in FAULTS for key, kind in EVAL_CALLS.items()
              if FAULTS[fault][0] or kind == "chat"]
EVAL_OUTPUTS = ["detailed_results.jsonl", "report.json", "run_manifest.json"]


def evaluate(capsys, store):
    code = main(["eval", "--store", str(store), "--qa", "qa.jsonl", "--out", "out",
                 "--scripted", "fixture.jsonl"])
    return code, capsys.readouterr().err


def test_the_fixture_eval_makes_32_chat_calls_and_8_embeds(work_dir, capsys, monkeypatch,
                                                           built):
    calls = inject(monkeypatch)
    assert evaluate(capsys, built)[0] == EXIT_OK
    assert list(calls.items()) == list(EVAL_CALLS.items())  # order too: dict == ignores it
    assert sorted(p.name for p in (work_dir / "out").iterdir()) == EVAL_OUTPUTS


@pytest.mark.parametrize("fault,key", EVAL_CASES,
                         ids=[f"{f}-call-{call_number(key, EVAL_CALLS)}" for f, key in EVAL_CASES])
def test_a_fault_at_any_eval_call_writes_nothing_or_falls_back(
        work_dir, capsys, monkeypatch, built, fault, key):
    error, _, error_name = FAULTS[fault]
    calls = inject(monkeypatch, fault, key)
    code, err = evaluate(capsys, built)
    assert calls[key] == EVAL_CALLS[key]
    written = sorted(p.name for p in (work_dir / "out").iterdir())
    if error:
        assert (code, json.loads(err)["error"]) == (EXIT_BACKEND, error_name)
        assert written == []
    else:  # the reply and its repair are both unreadable; the site falls back
        assert calls[repair_of(key)] == "chat"
        assert code == EXIT_OK
        assert written == EVAL_OUTPUTS


# -- persist -------------------------------------------------------------

# records.json.gz in one write; vectors.bin's magic and planes 0-3;
# then manifest.json; each under its staged name
RECORDS, VECTORS, MANIFEST = STAGED_FILES.values()
PERSIST_WRITES = [RECORDS] + [VECTORS] * 5 + [MANIFEST]
CUT_FRACTIONS = (0.001, 0.1, 0.37, 0.5, 0.81, 0.999)  # where a file is cut


@pytest.fixture(scope="module")
def new_store(built):
    """A store to persist over ``built`` with its turns, profiles and counts
    but other restatements, so other bytes in every file, and not sealed: a
    mix of the two stores' files is told apart by the checksums alone."""
    old = MemoryStore.load(built)
    store = MemoryStore(old.turns)
    store.insert_entries([replace(entry, lossless_restatement=f"{entry.lossless_restatement}!")
                          for entry in old.entries.values()], ScriptedBackend())
    for profile in old.profile_history:
        store.add_profile(profile)
    assert len(store) == len(old)
    return store


def fill_disk(patch, after=None, cut=None) -> list[str]:
    """Patch ``Path.open`` as a disk that fills up, and return the list that
    collects the file name of each write made. After ``after`` writes, the
    next open or write fails; with cut = (name, b), the write that would
    take that file past b bytes writes up to b, then fails."""
    writes, real_open = [], Path.open

    def full(name):
        return OSError(errno.ENOSPC, "No space left on device", name)

    class Counted:
        def __init__(self, fh, name):
            self.fh, self.name, self.size = fh, name, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            if len(writes) == after:
                raise full(self.name)
            writes.append(self.name)
            if cut and cut[0] == self.name and self.size + len(data) > cut[1]:
                self.fh.write(data[:cut[1] - self.size])
                raise full(self.name)
            self.size += len(data)
            return self.fh.write(data)

    def counted_open(self, mode="r", *args, **kwargs):
        if "w" not in mode:
            return real_open(self, mode, *args, **kwargs)
        if len(writes) == after:
            raise full(self.name)
        return Counted(real_open(self, mode, *args, **kwargs), self.name)

    patch.setattr(Path, "open", counted_open)
    return writes


def persist_failing(monkeypatch, store, path, **disk) -> list[str]:
    """Persist store to path on a ``fill_disk`` disk, and return the file
    name of each write made."""
    with monkeypatch.context() as patch:
        writes = fill_disk(patch, **disk)
        store.persist(path)
    return writes


def test_persist_makes_eight_writes_over_three_files(tmp_path, monkeypatch, new_store):
    assert persist_failing(monkeypatch, new_store, tmp_path / "store") == PERSIST_WRITES
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == sorted(STORE_FILES)


def test_a_persist_that_fails_at_any_write_leaves_the_old_store(
        work_dir, capsys, monkeypatch, built, new_store):
    new_store.persist(work_dir / "new")
    sizes = {name: len(data) for name, data in snapshot(work_dir / "new").items()}
    # fail after each write, or cut each staged file at each fraction of its size
    cases = [{"after": k} for k in range(len(PERSIST_WRITES))] + [
        {"cut": (STAGED_FILES[name], max(1, int(f * size)))} for name, size in sizes.items()
        for f in CUT_FRACTIONS]
    assert len(cases) == 25
    old = snapshot(built)
    for number, case in enumerate(cases):
        store = work_dir / f"case_{number}"
        shutil.copytree(built, store)
        with pytest.raises(StoreIOError, match="No space left on device"):
            persist_failing(monkeypatch, new_store, store, **case)
        assert snapshot(store) == old, case  # byte for byte, and no *.tmp left
        code = main(["inspect", "--store", str(store)])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK and json.loads(out)["entries"] == 60, case


@pytest.mark.parametrize("after", range(len(PERSIST_WRITES)))
def test_a_failed_first_persist_leaves_an_empty_directory_to_build_into(
        work_dir, capsys, monkeypatch, after):
    with monkeypatch.context() as patch:
        writes = fill_disk(patch, after=after)
        code, err = build(capsys, "fresh")
    assert len(writes) == after
    assert (code, json.loads(err)["error"]) == (EXIT_DATA, "StoreIOError")
    assert list((work_dir / "fresh").iterdir()) == []
    assert build(capsys, "fresh")[0] == EXIT_OK  # no --force
    assert len(MemoryStore.load(work_dir / "fresh")) == 60


# -- evolve --------------------------------------------------------------

# gate 6's evolve over two rounds: each round builds, evaluates and asks the
# senior model for one gradient, and the final prompts are built and
# evaluated too; a call keeps its build or eval key, in its round
GRADIENT_CALLS = [(0, "gradient", 0, 1), (1, "gradient", 0, 1)]
EVOLVE_CALLS = {(rnd, *key[1:]): kind for rnd in range(3)
                for key, kind in [*BUILD_CALLS.items(), *EVAL_CALLS.items(),
                                  *((g, "chat") for g in GRADIENT_CALLS if g[0] == rnd)]}
# the first and the last key of each round's build, eval and gradient
_FIRST, _LAST = {}, {}
for _key in EVOLVE_CALLS:
    _FIRST.setdefault(_key[:2], _key)
    _LAST[_key[:2]] = _key
EVOLVE_SAMPLE = [key for key in EVOLVE_CALLS if key in {*_FIRST.values(), *_LAST.values()}]
EVOLVE_CASES = [(fault, key) for fault in FAULTS for key in EVOLVE_SAMPLE
                if FAULTS[fault][0] or EVOLVE_CALLS[key] == "chat"]


def run_evolve(capsys):
    code = main(["evolve", "--corpus", "corpus.json", "--qa", "qa.jsonl", "--rounds", "2",
                 "--out", "evolved", "--scripted", "evolve_fixture.jsonl"])
    return code, capsys.readouterr().err


def assert_log_replays(prompt_dir):
    """Each line of the gradient log replays to the round_k/ prompts written,
    and each round written after round 0 has its line."""
    replayed = replay_gradients(prompt_dir)
    assert replayed == [PromptSet.load_round(prompt_dir, ps.round) for ps in replayed]
    assert PromptSet.latest_round(prompt_dir) == len(replayed) - 1


def test_the_gate_6_evolve_makes_170_chat_calls_and_27_embeds(work_dir, capsys, monkeypatch):
    calls = inject(monkeypatch)
    assert run_evolve(capsys)[0] == EXIT_OK
    assert list(calls.items()) == list(EVOLVE_CALLS.items())  # order too: dict == ignores it
    kinds = list(calls.values())
    assert (kinds.count("chat"), kinds.count("embed")) == (170, 27)
    assert len(replay_gradients(work_dir / "evolved")) == 3


@pytest.mark.parametrize("fault,key", EVOLVE_CASES, ids=[
    f"{f}-{key[1]}-call-{call_number(key, EVOLVE_CALLS)}" for f, key in EVOLVE_CASES])
def test_a_fault_at_an_evolve_call_ends_the_run_or_is_survived(
        work_dir, capsys, monkeypatch, fault, key):
    error, want_code, want_error = FAULTS[fault]
    calls = inject(monkeypatch, fault, key)
    code, err = run_evolve(capsys)
    assert calls[key] == EVOLVE_CALLS[key]
    log = (work_dir / "evolved" / "gradients.jsonl").read_text().splitlines()
    if error or key[1] == "build":  # a raised fault, or two unreadable build replies
        assert (code, json.loads(err)["error"]) == (want_code, want_error)
        assert not (work_dir / "evolved" / "evolution_summary.json").exists()
    else:  # an eval site falls back; a gradient becomes a no-op round
        assert (code, err) == (EXIT_OK, "")
        assert [json.loads(line).get("no_op", False) for line in log] == \
            [key == gradient for gradient in GRADIENT_CALLS]
    assert_log_replays(work_dir / "evolved")


def failing_log_writes(monkeypatch, n, cut):
    """Make the n-th write to a gradients.jsonl write its first cut bytes,
    then fail as a full disk does."""
    writes, real_open = [], Path.open

    class Cut:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            writes.append(data)
            if len(writes) == n:
                self.fh.write(data[:cut])
                raise OSError(errno.ENOSPC, "No space left on device", "gradients.jsonl")
            return self.fh.write(data)

    def cut_open(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return Cut(fh) if self.name == "gradients.jsonl" and mode[0] in "wa" else fh

    monkeypatch.setattr(Path, "open", cut_open)


def test_a_full_disk_during_a_gradient_log_write_keeps_the_earlier_rounds(
        data_dir, fixture_corpus, qa_items, tmp_path, monkeypatch):
    def run(prompt_dir):
        router = BackendRouter(pipeline=ScriptedBackend.from_fixture_file(
            data_dir / "evolve_fixture.jsonl"))
        return evolve(fixture_corpus, qa_items, rounds=2, router=router,
                      prompt_dir=prompt_dir)

    run(tmp_path / "whole")
    round_0, _ = (tmp_path / "whole" / "gradients.jsonl").read_bytes().splitlines(True)
    # writes: the empty log, round 0's record, then round 1's, cut after 40 bytes
    with monkeypatch.context() as patch:
        failing_log_writes(patch, 3, 40)
        with pytest.raises(StoreIOError, match="No space left on device"):
            run(tmp_path / "cut")
    log = tmp_path / "cut" / "gradients.jsonl"
    assert log.read_bytes().startswith(round_0)
    assert_log_replays(tmp_path / "cut")
