"""``scripts/bench_store.py`` runs against the store as it is now.

The script measures persist/load outside tier-1, so a store format change
that broke it would otherwise show only the next time someone ran it.
"""
import importlib.util
import json
from pathlib import Path

import trimem
from trimem.store import DATA_FILES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_store.py"


def test_bench_store_measures_the_current_store_layout(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_store", SCRIPT)
    bench_store = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_store)
    result = bench_store.measure(trimem, 300, tmp_path)
    assert sorted(result["file_bytes"]) == sorted([*DATA_FILES, "manifest.json"])
    assert (result["entries"], result["turns"], result["profile_versions"]) == \
        (300, 200, 12)
    assert len(result["load_runs_ms"]) == len(result["persist_runs_ms"]) == \
        bench_store.REPEAT
    assert not any(tmp_path.iterdir())  # measure removes its store


def test_bench_store_alternates_parent_and_change_passes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_store", SCRIPT)
    bench_store = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_store)
    monkeypatch.setattr(bench_store, "SIZES", (300,))
    monkeypatch.setattr(bench_store, "PAIRS", 2)
    src = str(Path(trimem.__file__).resolve().parents[1])
    out = tmp_path / "bench.json"
    for run in ("parent_over_parent", "change_over_parent"):
        assert bench_store.main(["--parent", src, "--change", src, "--run", run,
                                 "--out", str(out),
                                 "--workdir", str(tmp_path)]) == 0
    runs = json.loads(out.read_text())["runs"]
    result = runs["change_over_parent"]["sizes"]["300"]
    assert [p["side"] for p in result["passes"]] == ["parent", "change"] * 2
    assert result["pair_ratios"]["store_bytes"] == [1.0, 1.0]
    assert set(runs["change_over_parent"]["verdicts"]["300"].values()) <= \
        {"faster", "slower", "unresolved"}
    assert "verdicts" not in runs["parent_over_parent"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]
