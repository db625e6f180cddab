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
    for run in ("parent_over_parent", "change_over_parent"):
        assert bench.main([mode, "--parent", SRC, "--change", SRC, "--run", run,
                           "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    result = runs["change_over_parent"]
    case = next(iter(bench.MODES[mode].cases()))
    assert list(result["cases"]) == [case]
    passes, ratios = result["cases"][case]["passes"], result["cases"][case]["pair_ratios"]
    assert [p["side"] for p in passes] == ["parent", "change", "change", "parent"]
    assert result["outputs_equal"] is True
    if mode == "eval":
        assert [p["questions"] for p in passes] == [5] * 4
        assert ratios["calls_per_question"] == ratios["tokens_per_question"] == [1.0, 1.0]
    else:
        assert [p["entries"] for p in passes] == [300] * 4
        assert ratios["store_bytes"] == [1.0, 1.0]
    assert set(result["verdicts"][case]) == set(bench.MODES[mode].metrics)
    assert set(result["verdicts"][case].values()) <= {"higher", "lower", "unresolved"}
    assert "verdicts" not in runs["parent_over_parent"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]


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


def test_a_same_tree_run_of_two_trees_is_refused_before_any_pass(tmp_path, monkeypatch,
                                                                  capsys):
    monkeypatch.setattr(bench, "run_pass", lambda *args: pytest.fail("a pass ran"))
    other = tmp_path / "other"
    other.mkdir()
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as refused:
        bench.main(["store", "--parent", str(other), "--change", SRC,
                    "--run", "parent_over_parent", "--out", str(out)])
    assert refused.value.code == 2
    assert "--parent and --change are different directories" in capsys.readouterr().err
    assert not out.exists()
