"""``scripts/bench.py`` runs against the engine, the store and perfbench as they are now.

The script times evaluations and persist/load outside tier-1, so an engine,
store format or perfbench change that broke it would otherwise show only
the next time someone ran it. These smoke runs use small cases: one pair
of passes over a 300-entry store, or over 5 questions of a 60-turn corpus
with no delay per call.
"""
import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

import trimem
from trimem.store import DATA_FILES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
SRC = str(Path(trimem.__file__).resolve().parents[1])
SPEC = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench)

SMALL = {"eval": {"PAIRS": 2, "QUESTIONS": 5, "TURNS": 60, "DELAY": False},
         "store": {"PAIRS": 2, "SIZES": (300,)}}


@pytest.fixture
def small(monkeypatch):
    def shrink(mode):
        for name, value in SMALL[mode].items():
            monkeypatch.setattr(bench, name, value)
    return shrink


def test_bench_store_measures_the_current_store_layout(tmp_path):
    result = bench.measure(300, tmp_path)
    assert sorted(result["file_bytes"]) == sorted([*DATA_FILES, "manifest.json"])
    assert (result["entries"], result["turns"], result["profile_versions"]) == \
        (300, 200, 12)
    assert len(result["load_runs_ms"]) == len(result["persist_runs_ms"]) == bench.REPEAT
    assert not any(tmp_path.iterdir())  # measure removes its store


@pytest.mark.parametrize("mode", ["eval", "store"])
def test_bench_alternates_parent_and_change_and_compares_outputs(mode, small, tmp_path):
    small(mode)
    out = tmp_path / "bench.json"

    def runs_after(run):
        assert bench.main([mode, "--parent", SRC, "--change", SRC, "--run", run,
                           "--out", str(out)]) == 0
        return json.loads(out.read_text())["runs"]

    first = runs_after("first")["first"]
    runs = runs_after("second")
    assert runs["first"] == first  # a later run leaves an earlier one as it was
    case = next(iter(bench.MODES[mode].cases()))
    for result in runs.values():
        assert list(result["cases"]) == [case]
        found = result["cases"][case]
        passes, ratios = found["passes"], found["pair_ratios"]
        assert [p["side"] for p in passes] == ["parent", "change", "change", "parent"]
        assert result["outputs_equal"] is True
        if mode == "eval":
            assert [p["questions"] for p in passes] == [5] * 4
            assert ratios["calls_per_question"] == ratios["tokens_per_question"] == [1.0, 1.0]
            count = found["metrics"]["calls_per_question"]
        else:
            assert [p["entries"] for p in passes] == [300] * 4
            assert ratios["store_bytes"] == [1.0, 1.0]
            count = found["metrics"]["store_bytes"]
        assert (count["above"], count["below"], count["verdict"]) == (0, 0, "unresolved")
        assert set(found["metrics"]) == set(bench.MODES[mode].metrics)
        for key, metric in found["metrics"].items():
            assert metric["parent"]["median"] == statistics.median(
                p[key] for p in passes if p["side"] == "parent")
            assert metric["above"] + metric["below"] <= 2
            assert metric["verdict"] in {"higher", "lower", "unresolved"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]


PARENT = [10, 11, 12, 13, 14] * 2  # quartiles 10.75 and 13.25, median 12


@pytest.mark.parametrize("change, verdict", [
    ([2 * p for p in PARENT], "higher"),
    ([p / 2 for p in PARENT], "lower"),
    # nine pairs one way, one 2.92x outlier pair the other
    ([2 * p for p in PARENT[:9]] + [PARENT[9] / 2.92], "higher"),
    ([p / 2 for p in PARENT[:9]] + [PARENT[9] * 2.92], "lower"),
    # eight pairs one way is too few, however wide the gap
    ([2 * p for p in PARENT[:8]] + [p / 2 for p in PARENT[8:]], "unresolved"),
    # every pair one way, but the medians 1 apart, inside the parent's quartiles
    ([p + 1 for p in PARENT], "unresolved"),
    # every pair tied, as a count metric's are
    (list(PARENT), "unresolved"),
], ids=["all-above", "all-below", "nine-above", "nine-below", "eight-above",
        "gap-inside-quartiles", "all-tied"])
def test_a_verdict_needs_nine_pairs_in_ten_and_a_gap_past_the_parents_quartiles(
        change, verdict):
    found = bench.compare(PARENT, change)
    assert found["verdict"] == verdict
    assert (found["parent"]["q1"], found["parent"]["median"], found["parent"]["q3"]) == \
        (10.75, 12, 13.25)
    assert found["change"]["median"] == statistics.median(change)
    assert found["above"] == sum(c > p for p, c in zip(PARENT, change))
    assert found["below"] == sum(c < p for p, c in zip(PARENT, change))


@pytest.mark.parametrize("mode", ["eval", "store"])
def test_a_pass_that_imports_trimem_from_another_tree_is_refused(mode, small, tmp_path,
                                                                 monkeypatch):
    small(mode)
    monkeypatch.setenv("PYTHONPATH", SRC)
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "bench.json"
    refusal = f"pass over {empty} imported trimem from {Path(SRC) / 'trimem'}"
    with pytest.raises(SystemExit, match=re.escape(refusal)):
        bench.main([mode, "--parent", str(empty), "--change", SRC, "--out", str(out)])
    assert not out.exists()
