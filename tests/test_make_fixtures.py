"""``scripts/make_fixtures.py`` still reproduces ``tests/data/`` byte for byte.

Nothing else runs the generator, so an engine or script change that made it
write other fixtures would otherwise show only when someone reran it.
"""
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_make_fixtures_reproduces_tests_data(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("scripts", "src", "tests/data"):
        shutil.copytree(REPO / part, tmp_path / part, ignore=ignore)
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "make_fixtures.py")],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    made, kept = _files(tmp_path / "tests" / "data"), _files(REPO / "tests" / "data")
    assert sorted(made) == sorted(kept)
    assert [name for name in kept if made[name] != kept[name]] == []
