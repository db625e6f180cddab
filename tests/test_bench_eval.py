"""``scripts/bench.py eval`` runs against the engine and perfbench as they are now.

The script times evaluations outside tier-1, so an engine or perfbench
change that broke it would otherwise show only the next time someone ran
it. This smoke run uses a small corpus and no delay per call.
"""
import importlib.util
import json
from pathlib import Path

import trimem

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


def test_bench_eval_alternates_parent_and_change_and_compares_records(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name, value in (("PAIRS", 2), ("QUESTIONS", 5), ("TURNS", 60), ("DELAY", False)):
        monkeypatch.setattr(bench, name, value)
    src = str(Path(trimem.__file__).resolve().parents[1])
    out = tmp_path / "bench.json"
    for run in ("parent_over_parent", "change_over_parent"):
        assert bench.main(["eval", "--parent", src, "--change", src, "--run", run,
                           "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    result = runs["change_over_parent"]
    assert [p["side"] for p in result["passes"]] == ["parent", "change", "change", "parent"]
    assert [p["questions"] for p in result["passes"]] == [5] * 4
    assert result["records_equal"] is True
    assert result["pair_ratios"]["calls_per_question"] == [1.0, 1.0]
    assert result["pair_ratios"]["tokens_per_question"] == [1.0, 1.0]
    assert set(result["verdicts"].values()) <= {"higher", "lower", "unresolved"}
    assert "verdicts" not in runs["parent_over_parent"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]
