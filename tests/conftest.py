import gzip
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from trimem.backend import BackendRouter, ScriptedBackend
from trimem.corpus import load_corpus
from trimem.pipeline import QaItem, build_store
from trimem.prompts import seed_prompts
from trimem.store import _KINDS, _columns

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def fixture_corpus():
    return load_corpus(DATA / "corpus.json")


@pytest.fixture
def scripted_backend():
    return ScriptedBackend.from_fixture_file(DATA / "fixture.jsonl")


@pytest.fixture
def router(scripted_backend):
    return BackendRouter(pipeline=scripted_backend)


@pytest.fixture(scope="session")
def qa_items():
    lines = (DATA / "qa.jsonl").read_text(encoding="utf-8").splitlines()
    return [QaItem.from_dict(json.loads(ln)) for ln in lines if ln.strip()]


@pytest.fixture(scope="session")
def built_store(fixture_corpus):
    """One store built from the golden fixture, shared read-only."""
    backend = ScriptedBackend.from_fixture_file(DATA / "fixture.jsonl")
    return build_store(fixture_corpus, seed_prompts(),
                       BackendRouter(pipeline=backend))


@pytest.fixture(scope="session")
def store_with_kind():
    """``put(store_dir, kind, rows)``: make one kind of a persisted store's
    ``records.json.gz`` the columns of rows, as persist writes them, and re-sign
    the file's sha256 in ``manifest.json``, so load reaches the rule a crafted
    row is meant to test, past the checks a build's doors make first."""
    def put(store_dir, kind, rows):
        path, manifest_path = Path(store_dir, "records.json.gz"), Path(store_dir, "manifest.json")
        records = json.loads(gzip.decompress(path.read_bytes()))
        records[kind] = _columns(rows, _KINDS[kind][0], kind)
        path.write_bytes(gzip.compress(json.dumps(records).encode("utf-8")))
        manifest = json.loads(manifest_path.read_text())
        manifest["sha256"]["records.json.gz"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
    return put


@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    """A temp cwd pre-seeded with the fixture files, for CLI runs."""
    for name in ("corpus.json", "fixture.jsonl", "evolve_fixture.jsonl", "qa.jsonl"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path
