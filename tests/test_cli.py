import argparse
import fcntl
import gzip
import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from trimem import cli, errors
from trimem.backend import BackendRouter, ChatRequest, HttpBackend, ScriptedBackend
from trimem.cli import (EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, RunConfig,
                        build_parser, load_qa_set, main, make_router, write_manifest)
from trimem.evolution import PromptSet
from trimem.qa import estimate_tokens
from trimem.store import (DATA_FILES, SCHEMA_VERSION, STORE_FILES, MemoryStore, RetrievalConfig,
                          store_paths)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build(capsys, store="store", extra=()):
    return run(capsys, "build", "--corpus", "corpus.json", "--store", store,
               "--scripted", "fixture.jsonl", *extra)


# -- run config --------------------------------------------------------

# a valid value off the default of each RunConfig field; config_hash reads
# every field but the paths, addresses, credential and caps
OFF_DEFAULT = {
    "window_size": 50, "stride": 30, "top_k": 5, "per_query_k": 3, "anchor_count": 0,
    "profile_count": 0, "query_cap": 1, "use_search_plan": False, "corpus": "c.json",
    "store_dir": "s", "prompt_dir": "p", "prompt_round": 1, "hit_k": 3,
    "api_base": "http://localhost:9/v1", "api_key": "secret", "model_tag": "m",
    "senior_model_tag": "sm", "embedding_model": "e", "scripted_fixture": "f.jsonl",
    "max_calls": 1000, "max_tokens": 100000, "rounds": 2,
}
UNHASHED_FIELDS = {"corpus", "store_dir", "prompt_dir", "prompt_round", "api_base", "api_key",
                   "scripted_fixture", "max_calls", "max_tokens"}
EVOLVE_ONLY_FIELDS = {"rounds", "senior_model_tag"}  # only evolve's hash reads them
DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def test_the_all_default_config_hashes_as_an_empty_object():
    # a new field must be listed above, and its default must leave gate 5's hash alone
    assert sorted(set(DEFAULTS) ^ set(OFF_DEFAULT)) == []
    assert RunConfig().config_hash() == hashlib.sha256(b"{}").hexdigest()[:16]
    assert RunConfig().config_hash() == "44136fa355b3678a"


def test_config_hash_reads_each_hashed_field_only_off_its_default():
    for command, unread in (("eval", UNHASHED_FIELDS | EVOLVE_ONLY_FIELDS),
                            ("evolve", UNHASHED_FIELDS)):
        default_hash = RunConfig().config_hash(command)
        moved = [name for name, value in OFF_DEFAULT.items()
                 if RunConfig(**{name: value}).config_hash(command) != default_hash]
        assert sorted(moved) == sorted(set(OFF_DEFAULT) - unread), command
        for name in OFF_DEFAULT:  # a field set to its default hashes as if left unset
            others = {key: value for key, value in OFF_DEFAULT.items() if key != name}
            assert RunConfig(**others, **{name: DEFAULTS[name]}).config_hash(command) \
                == RunConfig(**others).config_hash(command), (command, name)


def test_only_evolve_hashes_rounds_and_the_senior_model(work_dir, capsys):
    assert build(capsys)[0] == EXIT_OK
    (work_dir / "rounds.json").write_text(json.dumps({"rounds": 2}))
    for out, extra in (("plain", ()), ("rounds", ("--config", "rounds.json"))):
        assert run(capsys, "eval", "--store", "store", "--qa", "qa.jsonl",
                   "--scripted", "fixture.jsonl", "--out", out, *extra)[0] == EXIT_OK
    reports = [json.loads((work_dir / out / "report.json").read_text())
               for out in ("plain", "rounds")]
    assert [r["metadata"]["config_hash"] for r in reports] == ["44136fa355b3678a"] * 2
    assert (work_dir / "plain" / "detailed_results.jsonl").read_bytes() == \
        (work_dir / "rounds" / "detailed_results.jsonl").read_bytes()
    evolve_hashes = {RunConfig(**knob).config_hash("evolve")
                     for knob in ({}, {"rounds": 2}, {"senior_model_tag": "sm"})}
    assert len(evolve_hashes) == 3


def test_an_eval_report_does_not_depend_on_how_its_paths_are_spelled_or_its_caps(
        work_dir, capsys):
    assert build(capsys)[0] == EXIT_OK
    assert run(capsys, "eval", "--store", "store", "--qa", "qa.jsonl",
               "--scripted", "fixture.jsonl", "--out", "a")[0] == EXIT_OK
    assert run(capsys, "eval", "--store", str(work_dir / "store"), "--qa", "qa.jsonl",
               "--scripted", "./fixture.jsonl", "--max-calls", "1000", "--out", "b")[0] == EXIT_OK
    for name in ("report.json", "detailed_results.jsonl"):
        assert (work_dir / "a" / name).read_bytes() == (work_dir / "b" / name).read_bytes()


def test_a_store_manifest_and_its_eval_report_give_one_config_hash(work_dir, capsys):
    assert build(capsys)[0] == EXIT_OK
    assert run(capsys, "eval", "--store", "store", "--qa", "qa.jsonl",
               "--scripted", "fixture.jsonl")[0] == EXIT_OK
    manifest = json.loads((work_dir / "store" / "manifest.json").read_text())
    report = json.loads((work_dir / "store" / "eval" / "report.json").read_text())
    assert manifest["config_hash"] == report["metadata"]["config_hash"]


def test_an_ablate_row_at_the_defaults_writes_what_build_then_eval_writes(work_dir, capsys):
    assert build(capsys)[0] == EXIT_OK
    assert run(capsys, "eval", "--store", "store", "--qa", "qa.jsonl",
               "--scripted", "fixture.jsonl", "--out", "eval")[0] == EXIT_OK
    assert run(capsys, "ablate", "--corpus", "corpus.json", "--qa", "qa.jsonl",
               "--knob", "stride", "--values", "38", "--scripted", "fixture.jsonl",
               "--out", "sweep")[0] == EXIT_OK
    for name in ("report.json", "detailed_results.jsonl"):
        assert (work_dir / "sweep" / "stride_38" / name).read_bytes() \
            == (work_dir / "eval" / name).read_bytes()


@pytest.mark.parametrize("how", ["flag", "config-file"])
def test_seed_is_not_a_knob(work_dir, capsys, how):
    (work_dir / "conf.json").write_text(json.dumps({"seed": 0}))
    extra = ["--seed", "0"] if how == "flag" else ["--config", "conf.json"]
    code, out, err = run(capsys, "ingest", "--corpus", "corpus.json", *extra)
    assert (code, out, json.loads(err)["error"]) == (EXIT_USAGE, "", "UsageError")
    assert "seed" in json.loads(err)["message"]


def test_config_file_and_env_precedence(work_dir, capsys, monkeypatch):
    (work_dir / "conf.json").write_text(json.dumps({"top_k": 7}))
    monkeypatch.setenv("TRIMEM_CONFIG", str(work_dir / "conf.json"))
    code, out, _ = build(capsys)
    assert code == EXIT_OK
    manifest = json.loads((work_dir / "store" / "run_manifest.json").read_text())
    assert manifest["config"]["top_k"] == 7
    # flags beat the config file
    code, out, _ = run(capsys, "query", "--store", "store",
                       "--question", "What museum did Ethan visit in March 2024?",
                       "--scripted", "fixture.jsonl", "--k", "3")
    assert code == EXIT_OK
    assert len(json.loads(out)["entries"]) == 3


def test_unknown_config_key_is_usage_error(work_dir, capsys, monkeypatch):
    (work_dir / "conf.json").write_text(json.dumps({"bogus": 1}))
    monkeypatch.setenv("TRIMEM_CONFIG", str(work_dir / "conf.json"))
    code, _, err = build(capsys)
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "UsageError"


BAD_CONFIGS = {
    "top-level-a-list": [1],
    "window-size-a-float": {"window_size": 40.5},
    "use-search-plan-a-string": {"use_search_plan": "no"},
    "top-k-a-bool": {"top_k": True},
    "hit-k-negative": {"hit_k": -1},
    "prompt-round-a-string": {"prompt_round": "1"},
    "api-base-a-number": {"api_base": 8080},
    "a-method-name": {"config_hash": None},
    "an-inherited-property": {"effective_per_query_k": 3},
    "stride-above-window-size": {"stride": 41},
    "anchor-count-negative": {"anchor_count": -1},
    "profile-count-negative": {"profile_count": -2},
    "query-cap-0": {"query_cap": 0},
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_file_is_one_json_usage_error(work_dir, capsys, case):
    (work_dir / "conf.json").write_text(json.dumps(BAD_CONFIGS[case]))
    code, out, err = run(capsys, "ingest", "--corpus", "corpus.json",
                         "--config", "conf.json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "UsageError"


def test_config_file_takes_null_for_an_optional_field(work_dir, capsys):
    (work_dir / "conf.json").write_text(json.dumps(
        {"per_query_k": None, "use_search_plan": False, "window_size": 30,
         "stride": 30}))
    code, out, _ = run(capsys, "ingest", "--corpus", "corpus.json",
                       "--config", "conf.json")
    assert code == EXIT_OK
    assert json.loads(out)["windows"] == 10


# -- the parser --------------------------------------------------------

# each subcommand's function and options, as the parser declared them one
# add_argument call at a time: (option, dest, type, action, default, required)
STORE, STORE_TRUE = "_StoreAction", "_StoreTrueAction"
COMMON_OPTIONS = [
    ("--config", "config", None, STORE, None, False),
    ("--scripted", "scripted_fixture", None, STORE, None, False),
    ("--prompts", "prompt_dir", None, STORE, None, False),
    ("--round", "prompt_round", int, STORE, None, False),
    ("--k", "top_k", int, STORE, None, False),
    ("--no-search-plan", "use_search_plan", None, "_StoreConstAction", None, False),
    ("--max-calls", "max_calls", int, STORE, None, False),
    ("--max-tokens", "max_tokens", int, STORE, None, False),
]
PARSER_PIN = {
    "ingest": ("cmd_ingest", [
        ("--corpus", "corpus", None, STORE, None, True),
        ("--window", "window_size", int, STORE, None, False),
        ("--stride", "stride", int, STORE, None, False)]),
    "build": ("cmd_build", [
        ("--corpus", "corpus", None, STORE, None, True),
        ("--store", "store_dir", None, STORE, None, True),
        ("--window", "window_size", int, STORE, None, False),
        ("--stride", "stride", int, STORE, None, False),
        ("--force", "force", None, STORE_TRUE, False, False)]),
    "query": ("cmd_query", [
        ("--store", "store_dir", None, STORE, None, True),
        ("--question", "question", None, STORE, None, True)]),
    "answer": ("cmd_answer", [
        ("--store", "store_dir", None, STORE, None, True),
        ("--question", "question", None, STORE, None, True),
        ("--dump-context", "dump_context", None, STORE, None, False)]),
    "eval": ("cmd_eval", [
        ("--store", "store_dir", None, STORE, None, True),
        ("--qa", "qa", None, STORE, None, True),
        ("--out", "out", None, STORE, None, False)]),
    "evolve": ("cmd_evolve", [
        ("--corpus", "corpus", None, STORE, None, True),
        ("--qa", "qa", None, STORE, None, True),
        ("--rounds", "rounds", int, STORE, None, False),
        ("--out", "out", None, STORE, None, True)]),
    "ablate": ("cmd_ablate", [
        ("--store", "store_dir", None, STORE, None, False),
        ("--corpus", "corpus", None, STORE, None, False),
        ("--qa", "qa", None, STORE, None, True),
        ("--knob", "knob", None, STORE, None, True),
        ("--values", "values", None, STORE, None, True),
        ("--out", "out", None, STORE, None, True)]),
    "inspect": ("cmd_inspect", [
        ("--store", "store_dir", None, STORE, None, True),
        ("--entry-id", "entry_id", None, STORE, None, False)]),
}


def test_every_subcommand_keeps_its_options():
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert list(commands.choices) == list(PARSER_PIN)
    for name, (func, options) in PARSER_PIN.items():
        parser = commands.choices[name]
        assert parser.get_default("func").__name__ == func
        assert [(*a.option_strings, a.dest, a.type, type(a).__name__, a.default, a.required)
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)] == options + COMMON_OPTIONS, name


# -- exit codes --------------------------------------------------------

ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.TriMemError)]
EXIT_CODES = {"UsageError": EXIT_USAGE, "UnknownKnob": EXIT_USAGE,
              "TransportError": EXIT_BACKEND, "FixtureExhausted": EXIT_BACKEND,
              "AuthError": EXIT_BACKEND, "BudgetExceeded": EXIT_BACKEND}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_carries_its_exit_code(cls):
    assert cls.exit_code == EXIT_CODES.get(cls.__name__, EXIT_DATA)


def test_no_backend_is_usage_error(work_dir, capsys, monkeypatch):
    monkeypatch.delenv("TRIMEM_API_BASE", raising=False)
    code, _, err = run(capsys, "build", "--corpus", "corpus.json",
                       "--store", "store")
    assert code == EXIT_USAGE
    assert "error" in json.loads(err)


def test_a_bad_api_base_is_a_usage_error_before_any_call(work_dir, capsys, monkeypatch):
    monkeypatch.setenv("TRIMEM_API_BASE", "localhost:9/v1")
    monkeypatch.setattr(HttpBackend, "_post", lambda *a: pytest.fail("a call was made"))
    code, out, err = run(capsys, "build", "--corpus", "corpus.json", "--store", "store")
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err)["error"] == "UsageError"


def test_an_http_api_base_makes_a_router():
    for api_base in ("http://127.0.0.1:9/v1", "HTTPS://api.test", "http://[::1]:8080"):
        assert isinstance(make_router(RunConfig(api_base=api_base)).pipeline, HttpBackend)


def test_missing_corpus_is_data_error(work_dir, capsys):
    code, _, err = run(capsys, "ingest", "--corpus", "nope.json")
    assert code == EXIT_DATA
    assert json.loads(err)["error"] == "MissingFile"


def test_a_zero_norm_embedding_is_a_data_error(work_dir, capsys, monkeypatch):
    monkeypatch.setattr(ScriptedBackend, "_embed",
                        lambda self, texts: [np.zeros(64, np.float32)] * len(texts))
    code, out, err = build(capsys)
    assert (code, out) == (EXIT_DATA, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "DimensionMismatch"
    with pytest.raises(errors.TriMemError):
        MemoryStore.load(work_dir / "store")


def test_fixture_exhaustion_is_backend_error(work_dir, capsys):
    (work_dir / "empty.jsonl").write_text("")
    code, _, err = run(capsys, "build", "--corpus", "corpus.json",
                       "--store", "store", "--scripted", "empty.jsonl")
    assert code == EXIT_BACKEND
    assert json.loads(err)["error"] == "FixtureExhausted"


BAD_INPUTS = {
    "query-k-0": (["query", "--store", "store", "--question", "q", "--k", "0"],
                  EXIT_USAGE, "UsageError"),
    "ingest-window-0": (["ingest", "--corpus", "corpus.json", "--window", "0"],
                        EXIT_USAGE, "UsageError"),
    "ablate-non-integer-value": (["ablate", "--store", "store", "--qa", "qa.jsonl",
                                  "--knob", "top_k", "--values", "5,x",
                                  "--out", "sweep"], EXIT_USAGE, "UsageError"),
    # --max-calls 0: a build or model call before the check would exit 3
    "ablate-value-not-json": (["ablate", "--store", "store", "--qa", "qa.jsonl",
                               "--knob", "use_search_plan", "--values", "true,nope",
                               "--out", "sweep", "--max-calls", "0"],
                              EXIT_USAGE, "UsageError"),
    "ablate-stride-above-window-size": (["ablate", "--corpus", "corpus.json",
                                         "--qa", "qa.jsonl", "--knob", "stride",
                                         "--values", "50", "--out", "sweep",
                                         "--max-calls", "0"], EXIT_USAGE, "UsageError"),
    "ablate-stride-without-corpus": (["ablate", "--store", "store", "--qa", "qa.jsonl",
                                      "--knob", "stride", "--values", "38",
                                      "--out", "sweep", "--max-calls", "0"],
                                     EXIT_USAGE, "UsageError"),
    "answer-empty-question": (["answer", "--store", "store", "--question", ""],
                              EXIT_USAGE, "UsageError"),
    "eval-missing-qa": (["eval", "--store", "store", "--qa", "missing.jsonl"],
                        EXIT_DATA, "MissingFile"),
    "eval-qa-not-a-qa-set": (["eval", "--store", "store", "--qa", "corpus.json"],
                             EXIT_DATA, "MalformedDocument"),
    "eval-missing-fixture": (["eval", "--store", "store", "--qa", "qa.jsonl",
                              "--scripted", "missing.jsonl"], EXIT_DATA, "MissingFile"),
    "evolve-rounds-0": (["evolve", "--corpus", "corpus.json", "--qa", "qa.jsonl",
                         "--rounds", "0", "--out", "evolved"], EXIT_USAGE, "UsageError"),
    "build-missing-prompt-round": (["build", "--corpus", "corpus.json", "--store", "store",
                                    "--prompts", "prompts", "--round", "3"],
                                   EXIT_DATA, "MissingFile"),
    "query-negative-max-calls": (["query", "--store", "store", "--question", "q",
                                  "--max-calls", "-1"], EXIT_USAGE, "UsageError"),
    "build-negative-max-tokens": (["build", "--corpus", "corpus.json", "--store", "store",
                                   "--max-tokens", "-1"], EXIT_USAGE, "UsageError"),
    "query-negative-round": (["query", "--store", "store", "--question", "q",
                              "--prompts", "prompts", "--round", "-1"], EXIT_USAGE, "UsageError"),
    "build-negative-round": (["build", "--corpus", "corpus.json", "--store", "store",
                              "--prompts", "prompts", "--round", "-1"], EXIT_USAGE, "UsageError"),
    "ingest-session-id-a-string": (["ingest", "--corpus", "session-id-x.json"],
                                   EXIT_DATA, "MalformedDocument"),
    "ingest-session-a-number": (["ingest", "--corpus", "session-1.json"],
                                EXIT_DATA, "MalformedDocument"),
    "ingest-sessions-a-number": (["ingest", "--corpus", "sessions-5.json"],
                                 EXIT_DATA, "MalformedDocument"),
    "ingest-corpus-a-directory": (["ingest", "--corpus", "."], EXIT_DATA, "MissingFile"),
    "ingest-corpus-not-utf-8": (["ingest", "--corpus", "latin-1.json"],
                                EXIT_DATA, "MalformedDocument"),
    "build-config-not-utf-8": (["build", "--corpus", "corpus.json", "--store", "store",
                                "--config", "latin-1.json"], EXIT_USAGE, "UsageError"),
    "eval-fixture-not-utf-8": (["eval", "--store", "store", "--qa", "qa.jsonl",
                                "--scripted", "latin-1.json"], EXIT_BACKEND, "TransportError"),
    # a regular file whose read fails with EIO
    "ingest-corpus-unreadable": (["ingest", "--corpus", "/proc/self/mem"],
                                 EXIT_DATA, "MissingFile"),
    "eval-qa-unreadable": (["eval", "--store", "store", "--qa", "/proc/self/mem"],
                           EXIT_DATA, "MissingFile"),
    "eval-fixture-unreadable": (["eval", "--store", "store", "--qa", "qa.jsonl",
                                 "--scripted", "/proc/self/mem"], EXIT_DATA, "MissingFile"),
}
# api_base values that are no http:// or https:// URL with a host, each in a
# config file of its own name; a run refuses them even with a fixture
BAD_API_BASES = {"api-base-no-scheme": "localhost:9/v1", "api-base-no-host": "http://",
                 "api-base-ftp": "ftp://x/v1", "api-base-unclosed-ipv6": "http://[::1/v1"}
BAD_INPUTS.update((f"build-{name}", (["build", "--corpus", "corpus.json", "--store", "store",
                                      "--config", f"{name}.json"], EXIT_USAGE, "UsageError"))
                  for name in BAD_API_BASES)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_json_error(work_dir, capsys, case):
    (command, *options), want_code, want_error = BAD_INPUTS[case]
    # the fixture corpus with a string session_id, for ingest-session-id-a-string
    corpus = json.loads((work_dir / "corpus.json").read_text())
    corpus["sessions"][0]["session_id"] = "x"
    (work_dir / "session-id-x.json").write_text(json.dumps(corpus))
    (work_dir / "session-1.json").write_text(json.dumps({"sessions": [1]}))
    (work_dir / "sessions-5.json").write_text(json.dumps({"sessions": 5}))
    # byte 0xE9, "é" in Latin-1, is no UTF-8: read as a corpus, a config or a fixture
    (work_dir / "latin-1.json").write_bytes('{"corpus_id": "caf\xe9"}\n'.encode("latin-1"))
    for name, api_base in BAD_API_BASES.items():
        (work_dir / f"{name}.json").write_text(json.dumps({"api_base": api_base}))
    code, out, err = run(capsys, command, "--scripted", "fixture.jsonl", *options)
    assert code == want_code
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == want_error


BAD_COMMAND_LINES = {
    "no-command": [],
    "unknown-command": ["bogus"],
    "missing-required-flag": ["build", "--corpus", "corpus.json"],
    "unknown-flag": ["ingest", "--corpus", "corpus.json", "--bogus"],
    "window-not-an-int": ["ingest", "--corpus", "corpus.json", "--window", "abc"],
}


@pytest.mark.parametrize("case", sorted(BAD_COMMAND_LINES))
def test_a_bad_command_line_is_one_json_usage_error(work_dir, capsys, case):
    code, out, err = run(capsys, *BAD_COMMAND_LINES[case])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("\n") == 1 and json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("argv", [["--help"], ["build", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert "usage: trimem" in capsys.readouterr().out


BAD_QA_FIELDS = {
    "reference-empty": {"reference": ""},
    "reference-an-object": {"reference": {"a": 1}},
    "reference-and-answer-missing": {"reference": None},
    "question-a-number": {"question": 5},
    "question-empty": {"question": ""},
    "category-7": {"category": 7},
    "category-a-string": {"category": "2"},
    "category-a-float": {"category": 2.7},
    "category-a-bool": {"category": True},
    "evidence-a-string": {"evidence": "12"},
    "evidence-strings": {"evidence": ["3"]},
    "evidence-a-float": {"evidence": [2.7]},
    "evidence-a-bool": {"evidence": [True]},
}


@pytest.mark.parametrize("case", [*sorted(BAD_QA_FIELDS), "not-json"])
def test_eval_refuses_bad_qa_record_before_any_call(work_dir, capsys, case):
    assert build(capsys)[0] == EXIT_OK
    good, *_ = (work_dir / "qa.jsonl").read_text().splitlines()
    bad = good[:-1]  # not-json: the record cut short
    if case in BAD_QA_FIELDS:
        bad = json.dumps({k: v for k, v in {**json.loads(good), **BAD_QA_FIELDS[case]}.items()
                          if v is not None})
    (work_dir / "bad.jsonl").write_text(good + "\n" + bad + "\n")
    (work_dir / "empty.jsonl").write_text("")  # any model call would exit 3
    code, out, err = run(capsys, "eval", "--store", "store", "--qa", "bad.jsonl",
                         "--scripted", "empty.jsonl", "--out", "eval")
    assert code == EXIT_DATA
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "MalformedDocument"
    assert json.loads(err)["message"].startswith("bad.jsonl:2: bad QA record: ")


def test_a_bad_qa_record_in_an_array_names_its_number(work_dir):
    good = json.loads((work_dir / "qa.jsonl").read_text().splitlines()[0])
    (work_dir / "bad.json").write_text(json.dumps([good, good, {**good, "category": 7}]))
    with pytest.raises(errors.MalformedDocument, match="^bad.json: record 3: bad QA record: "):
        load_qa_set("bad.json")


def test_a_bad_qa_line_is_reported_without_a_class_name(work_dir):
    (work_dir / "bad.jsonl").write_text("{\n")
    with pytest.raises(errors.MalformedDocument) as caught:
        load_qa_set("bad.jsonl")
    assert str(caught.value) == ("bad.jsonl:1: bad QA record: Expecting property name "
                                 "enclosed in double quotes: line 1 column 2 (char 1)")


def test_a_qa_line_may_hold_a_raw_line_separator(work_dir):
    # JSON lets a string hold U+2028 unescaped; a line ends only at "\n"
    good = json.loads((work_dir / "qa.jsonl").read_text().splitlines()[0])
    record = {**good, "question": "first\u2028second"}
    (work_dir / "sep.jsonl").write_text(json.dumps(record, ensure_ascii=False) + "\r\n\n",
                                        encoding="utf-8")
    assert [item.question for item in load_qa_set("sep.jsonl")] == ["first\u2028second"]


# -- commands ----------------------------------------------------------

QUESTION = "What museum did Ethan visit in March 2024?"
SCRIPTED = ("--scripted", "fixture.jsonl")
# each command's run on the fixture after a build into "store", and the file
# that holds what it prints, if any
SUCCESS_RUNS = {
    "ingest": (("ingest", "--corpus", "corpus.json"), None),
    "build": (("build", "--corpus", "corpus.json", "--store", "again", *SCRIPTED), None),
    "query": (("query", "--store", "store", "--question", QUESTION, *SCRIPTED), None),
    "answer": (("answer", "--store", "store", "--question", QUESTION, *SCRIPTED,
                "--dump-context", "ctx.txt"), None),
    "eval": (("eval", "--store", "store", "--qa", "qa.jsonl", *SCRIPTED, "--out", "out"),
             None),
    "evolve": (("evolve", "--corpus", "corpus.json", "--qa", "qa.jsonl", "--rounds", "1",
                "--out", "out", "--scripted", "evolve_fixture.jsonl"),
               "out/evolution_summary.json"),
    "ablate": (("ablate", "--store", "store", "--qa", "qa.jsonl", "--knob", "top_k",
                "--values", "3,5", *SCRIPTED, "--out", "out"), "out/sweep_report.json"),
    "inspect": (("inspect", "--store", "store"), None),
    "inspect-entry": (("inspect", "--store", "store", "--entry-id", "e000001"), None),
}


@pytest.mark.parametrize("command", SUCCESS_RUNS)
def test_a_command_that_succeeds_prints_one_json_object_indented_2(work_dir, capsys,
                                                                   command):
    assert build(capsys)[0] == EXIT_OK
    argv, written = SUCCESS_RUNS[command]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    result = json.loads(out)
    assert type(result) is dict and out == json.dumps(result, indent=2) + "\n"
    if written:
        assert json.loads((work_dir / written).read_text()) == result


def test_ingest_summary(work_dir, capsys):
    code, out, _ = run(capsys, "ingest", "--corpus", "corpus.json")
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["turn_count"] == 300
    assert summary["session_count"] == 6
    assert summary["windows"] == 8


def test_build_writes_store_and_manifest(work_dir, capsys):
    code, out, _ = build(capsys)
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["entries"] == 60
    assert result["profiles"] == 16
    store = work_dir / "store"
    assert sorted(p.name for p in store.iterdir()) == [
        "manifest.json", "records.json.gz", "run_manifest.json", "vectors.bin"]
    manifest = json.loads((store / "run_manifest.json").read_text())
    assert manifest["prompt_round"] == 0
    assert manifest["backend_usage"]["calls"] > 0
    assert not (store / ".lock").exists()  # lock released


def test_every_run_manifest_has_one_shape(work_dir, capsys):
    # a store's counts live in its manifest.json, not in the run manifest
    scripted = ("--scripted", "fixture.jsonl")
    assert build(capsys)[0] == EXIT_OK
    assert run(capsys, "eval", "--store", "store", "--qa", "qa.jsonl", *scripted,
               "--out", "eval")[0] == EXIT_OK
    assert run(capsys, "evolve", "--corpus", "corpus.json", "--qa", "qa.jsonl",
               "--rounds", "1", "--out", "evolved",
               "--scripted", "evolve_fixture.jsonl")[0] == EXIT_OK
    assert run(capsys, "ablate", "--store", "store", "--qa", "qa.jsonl", "--knob", "top_k",
               "--values", "3", *scripted, "--out", "sweep")[0] == EXIT_OK
    keys = {out_dir: set(json.loads((work_dir / out_dir / "run_manifest.json").read_text()))
            for out_dir in ("store", "eval", "evolved", "sweep/top_k_3")}
    assert keys == dict.fromkeys(keys, {"config", "config_hash", "prompt_round",
                                        "backend_usage"})
    manifest = json.loads((work_dir / "store" / "manifest.json").read_text())
    assert (manifest["entry_count"], manifest["profile_versions"]) == (60, 16)


def test_write_manifest_records_a_senior_backend_apart(tmp_path):
    router = make_router(RunConfig(api_base="http://api.test", model_tag="small",
                                   senior_model_tag="large"))
    assert router.senior is not router.pipeline
    router.pipeline.usage.calls, router.senior.usage.calls = 5, 2
    write_manifest(tmp_path / "two.json", RunConfig(), 0, router)
    manifest = json.loads((tmp_path / "two.json").read_text())
    assert manifest["backend_usage"]["calls"] == 5
    assert manifest["senior_usage"]["calls"] == 2
    write_manifest(tmp_path / "one.json", RunConfig(), 0, BackendRouter(router.pipeline))
    assert "senior_usage" not in json.loads((tmp_path / "one.json").read_text())


@pytest.mark.parametrize("cap", [{"max_calls": 2}, {"max_tokens": 4}])
def test_each_backend_of_a_run_has_the_full_caps(monkeypatch, cap):
    # --max-calls and --max-tokens cap each backend apart: with a senior
    # model, a run may spend twice the cap
    reply = {"choices": [{"message": {"content": "ok"}}]}  # 2 tokens a call
    monkeypatch.setattr(HttpBackend, "_post", lambda self, path, payload: reply)
    router = make_router(RunConfig(api_base="http://api.test", model_tag="small",
                                   senior_model_tag="large", **cap))
    for backend in (router.pipeline, router.senior) * 2:
        assert backend.complete(ChatRequest("q")) == "ok"
    for backend in (router.pipeline, router.senior):
        with pytest.raises(errors.BudgetExceeded):
            backend.complete(ChatRequest("q"))


def test_build_uses_the_latest_prompt_round(work_dir, capsys):
    seed = PromptSet.seed()
    for round_number in (0, 1):
        replace(seed, round=round_number).persist(work_dir / "prompts")
    for stray in ("round_best", "round_02", "round_1x"):
        (work_dir / "prompts" / stray).mkdir()
    code, _, err = build(capsys, extra=("--prompts", "prompts"))
    assert code == EXIT_OK, err
    manifest = json.loads((work_dir / "store" / "run_manifest.json").read_text())
    assert manifest["prompt_round"] == 1


def test_build_without_prompt_rounds_is_usage_error(work_dir, capsys):
    (work_dir / "prompts" / "round_best").mkdir(parents=True)
    code, _, err = build(capsys, extra=("--prompts", "prompts"))
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "UsageError"


def test_a_round_without_prompts_is_usage_error(work_dir, capsys):
    # a round number names a round of a prompt directory, so it needs one
    assert build(capsys)[0] == EXIT_OK
    code, out, err = run(capsys, "query", "--store", "store", "--question", "q",
                         "--scripted", "fixture.jsonl", "--round", "3")
    assert (code, out, json.loads(err)["error"]) == (EXIT_USAGE, "", "UsageError")
    (work_dir / "conf.json").write_text(json.dumps({"prompt_round": 0}))
    code, out, err = build(capsys, store="store2", extra=("--config", "conf.json"))
    assert (code, out, json.loads(err)["error"]) == (EXIT_USAGE, "", "UsageError")
    assert not (work_dir / "store2").exists()


def test_build_refuses_non_empty_dir_without_force(work_dir, capsys):
    assert build(capsys)[0] == EXIT_OK
    code, _, err = build(capsys)
    assert code == EXIT_USAGE
    assert "force" in json.loads(err)["message"]
    assert build(capsys, extra=("--force",))[0] == EXIT_OK


def test_a_held_store_lock_refuses_a_build(work_dir, capsys):
    lock = work_dir / "store" / ".lock"
    lock.parent.mkdir()
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY)  # another open file description
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code, out, err = build(capsys, extra=("--force",))
    finally:
        os.close(fd)
    assert (code, out) == (EXIT_USAGE, "")
    assert "locked" in json.loads(err)["message"]
    assert [p.name for p in lock.parent.iterdir()] == [".lock"]


HOLD_LOCK = """import fcntl, os, sys, time
fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
time.sleep(60)
"""


def test_a_lock_holder_killed_with_sigkill_frees_the_lock(work_dir, capsys):
    lock = work_dir / "store" / ".lock"
    lock.parent.mkdir()
    holder = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(lock)],
                              stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "locked\n"
        assert build(capsys, extra=("--force",))[0] == EXIT_USAGE
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait()
        holder.stdout.close()
    assert lock.exists()  # the killed holder never unlinked it
    code, out, err = build(capsys, extra=("--force",))
    assert code == EXIT_OK, err
    assert json.loads(out)["entries"] == 60
    assert not lock.exists()


def _reaped_child_pid():
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return str(child.pid)


LEFTOVER_LOCKS = {
    "own-pid": lambda: str(os.getpid()), "reaped-child-pid": _reaped_child_pid,
    "empty": lambda: "", "not-a-pid": lambda: "not a pid", "float": lambda: "12.5",
    "40-digits": lambda: "9" * 40,
}


@pytest.mark.parametrize("case", sorted(LEFTOVER_LOCKS))
def test_a_leftover_lock_of_any_content_is_taken(work_dir, capsys, case):
    # no holder has it locked, so whatever the file says, the build may go on
    lock = work_dir / "store" / ".lock"
    lock.parent.mkdir()
    lock.write_text(LEFTOVER_LOCKS[case]())
    code, out, err = build(capsys, extra=("--force",))
    assert code == EXIT_OK, err
    assert json.loads(out)["entries"] == 60
    assert not lock.exists()


@pytest.mark.parametrize("replaced", [True, False], ids=["swapped", "unlinked"])
def test_a_lock_file_swapped_before_flock_is_refused(work_dir, capsys, monkeypatch,
                                                     replaced):
    # what a finishing holder's unlink, and a next command's create, look like
    # to a command that opened the old .lock just before
    lock = work_dir / "store" / ".lock"
    flock = fcntl.flock

    def swap_then_flock(fd, operation):
        lock.unlink()
        if replaced:
            lock.write_text("")
        flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", swap_then_flock)
    code, out, err = build(capsys, extra=("--force",))
    assert (code, out) == (EXIT_USAGE, "")
    assert "locked" in json.loads(err)["message"]
    assert [p.name for p in lock.parent.iterdir()] == ([".lock"] if replaced else [])


def test_a_lock_that_cannot_be_opened_is_a_usage_error(work_dir, capsys):
    lock = work_dir / "store" / ".lock"
    lock.mkdir(parents=True)
    code, out, err = build(capsys, extra=("--force",))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("\n") == 1 and json.loads(err)["error"] == "UsageError"
    assert [p.name for p in lock.parent.iterdir()] == [".lock"] and lock.is_dir()


def test_query_and_answer(work_dir, capsys):
    build(capsys)
    question = "What museum did Ethan visit in March 2024?"
    code, out, _ = run(capsys, "query", "--store", "store",
                       "--question", question, "--scripted", "fixture.jsonl")
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["queries"][0] == question
    assert len(result["entries"]) == 25
    assert result["token_cost"] > 0

    code, out, _ = run(capsys, "answer", "--store", "store",
                       "--question", question, "--scripted", "fixture.jsonl")
    assert code == EXIT_OK
    assert json.loads(out)["answer"] == "The Harbor Museum"


def test_answer_dump_context_matches_token_cost(work_dir, capsys):
    build(capsys)
    code, out, _ = run(capsys, "answer", "--store", "store",
                       "--question", "What museum did Ethan visit in March 2024?",
                       "--scripted", "fixture.jsonl", "--dump-context", "ctx.txt")
    assert code == EXIT_OK
    text = (work_dir / "ctx.txt").read_text(encoding="utf-8")
    assert text.startswith("[Structured Memory Entries]")
    assert json.loads(out)["context_token_cost"] == estimate_tokens(text)


def test_answer_without_a_backend_makes_no_dump_context_directory(work_dir, capsys,
                                                                  monkeypatch):
    assert build(capsys)[0] == EXIT_OK
    monkeypatch.delenv("TRIMEM_API_BASE", raising=False)
    code, out, err = run(capsys, "answer", "--store", "store", "--question", "Where?",
                         "--dump-context", "new/deep/ctx.txt")
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err)["error"] == "UsageError"
    assert not (work_dir / "new").exists()


def test_answer_no_search_plan_uses_single_query(work_dir, capsys):
    build(capsys)
    code, out, _ = run(capsys, "query", "--store", "store",
                       "--question", "What museum did Ethan visit in March 2024?",
                       "--scripted", "fixture.jsonl", "--no-search-plan")
    assert code == EXIT_OK
    assert json.loads(out)["queries"] == ["What museum did Ethan visit in March 2024?"]


def test_eval_writes_report(work_dir, capsys):
    build(capsys)
    code, out, _ = run(capsys, "eval", "--store", "store", "--qa", "qa.jsonl",
                       "--scripted", "fixture.jsonl", "--out", "eval")
    assert code == EXIT_OK
    report = json.loads((work_dir / "eval" / "report.json").read_text())
    assert report["overall"]["count"] == 8
    assert (work_dir / "eval" / "detailed_results.jsonl").exists()
    assert (work_dir / "eval" / "run_manifest.json").exists()


def test_eval_reads_a_qa_set_given_as_one_json_array(work_dir, capsys):
    build(capsys)
    (work_dir / "qa.json").write_text(json.dumps(_fixture_qa(work_dir)))
    for qa, out in (("qa.jsonl", "lines"), ("qa.json", "array")):
        code, _, err = run(capsys, "eval", "--store", "store", "--qa", qa,
                           "--scripted", "fixture.jsonl", "--out", out)
        assert code == EXIT_OK, err
    assert (work_dir / "array" / "report.json").read_bytes() == \
        (work_dir / "lines" / "report.json").read_bytes()


def _eval_records(work_dir, capsys, records, out):
    (work_dir / f"{out}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    code, _, err = run(capsys, "eval", "--store", "store", "--qa", f"{out}.jsonl",
                       "--scripted", "fixture.jsonl", "--out", out)
    assert code == EXIT_OK, err
    return json.loads((work_dir / out / "report.json").read_text())


def _fixture_qa(work_dir):
    return [json.loads(line) for line in (work_dir / "qa.jsonl").read_text().splitlines()]


def test_eval_reports_hit_at_k_when_a_question_repeats_with_its_evidence(
        work_dir, capsys, caplog):
    assert build(capsys)[0] == EXIT_OK
    a, b, *_ = _fixture_qa(work_dir)
    once = _eval_records(work_dir, capsys, [a, b], "once")
    with caplog.at_level("WARNING", logger="trimem.cli"):
        twice = _eval_records(work_dir, capsys, [a, b, a], "twice")
    assert twice["overall"]["count"] == 3
    assert twice["hit_at_k"] == once["hit_at_k"]
    assert not [r for r in caplog.records if r.name == "trimem.cli"]


@pytest.mark.parametrize("case", ["repeat-with-other-evidence", "record-without-evidence"])
def test_eval_omits_hit_at_k_and_names_the_question(work_dir, capsys, caplog, case):
    assert build(capsys)[0] == EXIT_OK
    a, b, c, *_ = _fixture_qa(work_dir)
    if case == "repeat-with-other-evidence":
        third = {**a, "evidence": [1]}
    else:
        third = {k: v for k, v in c.items() if k != "evidence"}
    with caplog.at_level("WARNING", logger="trimem.cli"):
        report = _eval_records(work_dir, capsys, [a, b, third], "eval")
    assert "hit_at_k" not in report
    [warning] = [r for r in caplog.records if r.name == "trimem.cli"]
    assert repr(third["question"]) in warning.getMessage()


def test_inspect_store_and_entry(work_dir, capsys):
    build(capsys)
    code, out, _ = run(capsys, "inspect", "--store", "store")
    assert code == EXIT_OK
    assert json.loads(out)["entries"] == 60

    code, out, _ = run(capsys, "inspect", "--store", "store",
                       "--entry-id", "e000001")
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["entry_id"] == "e000001"
    assert result["anchored_turns"]
    assert result["profiles"]

    code, out, err = run(capsys, "inspect", "--store", "store", "--entry-id", "e999999")
    assert (code, out) == (EXIT_DATA, "")
    assert json.loads(err) == {"error": "UnknownEntry", "message": "e999999"}


def _vector_shape(path):
    """The dim and row count of the vectors.bin at path, which only its
    store's manifest gives."""
    manifest = json.loads((path.parent / "manifest.json").read_text())
    return manifest["dim"], manifest["entry_count"]


def _vector_planes(path):
    """The four byte planes of a schema-5 vectors.bin: after the 4-byte
    magic, planes 0-2 raw, plane 3 as one zlib stream."""
    raw, (dim, count) = path.read_bytes(), _vector_shape(path)
    size = dim * count
    planes = [raw[4 + k * size:4 + (k + 1) * size] for k in range(3)]
    planes.append(zlib.decompress(raw[4 + 3 * size:]))
    return planes


def _edit_vector_planes(edit):
    """Apply edit(planes, dim, count) -> planes to the byte planes of
    vectors.bin, then write them back after the magic, plane 3 Huffman-coded."""
    def apply(path):
        planes = edit(_vector_planes(path), *_vector_shape(path))
        coder = zlib.compressobj(strategy=zlib.Z_HUFFMAN_ONLY)
        path.write_bytes(path.read_bytes()[:4] + b"".join(planes[:3])
                         + coder.compress(planes[3]) + coder.flush())
    return apply


# every plane loses the last 10 rows together, so load finds fewer rows
# than the manifest's entry count
_drop_vector_rows = _edit_vector_planes(
    lambda planes, dim, count: [p[:-10 * dim] for p in planes])


def _set_vector_values(value, n=None):
    """An edit of vectors.bin that sets its first n values (default: row 1's
    dim values) to the float32 value."""
    packed = struct.pack("<f", value)
    return _edit_vector_planes(lambda planes, dim, count: [
        packed[k:k + 1] * (n or dim) + plane[n or dim:] for k, plane in enumerate(planes)])


def _scale_vector_row_1(factor):
    """An edit of vectors.bin that multiplies row 1's values by factor."""
    def edit(planes, dim, count):
        values = np.stack([np.frombuffer(plane, np.uint8) for plane in planes], axis=1)
        rows = values.view("<f4").reshape(count, dim)
        rows[0] *= factor
        return [values[:, k].tobytes() for k in range(4)]
    return _edit_vector_planes(edit)


def _damage_plane_3(path):
    raw = bytearray(path.read_bytes())
    dim, count = _vector_shape(path)
    start = 4 + 3 * dim * count
    raw[(start + len(raw)) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def _cut_planes_0_to_2(path):
    dim, count = _vector_shape(path)
    path.write_bytes(path.read_bytes()[:4 + 2 * dim * count])


def _edit_manifest_text(old, new):
    def apply(path):
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
    return apply


def _edit_records_text(edit):
    """An edit of records.json.gz that applies edit(text) -> text to the
    gunzipped JSON text."""
    def apply(path):
        path.write_bytes(gzip.compress(edit(gzip.decompress(path.read_bytes()))))
    return apply


def _edit_records(edit):
    """An edit of records.json.gz that applies edit(records) to the decoded
    object in place."""
    def apply(records_text):
        records = json.loads(records_text)
        edit(records)
        return json.dumps(records).encode("utf-8")
    return _edit_records_text(apply)


def _edit_kind(kind, edit):
    """An in-place edit(columns) of one kind's object of columns."""
    def apply(records):
        edit(records[kind])
    return _edit_records(apply)


def _set_value(kind, column, value, row=0):
    """One value of one column set to value."""
    return _edit_kind(kind, lambda columns: columns[column].__setitem__(row, value))


def _with_turn_ids(ids):
    """The turns given a turn_id column of ids(turn count), as schema 4 stored
    one. A turn's id is its row, so load refuses a stored turn_id column, here
    one whose ids disagree with the rows, rather than read it in their place."""
    return _edit_kind("turns", lambda c: c.update(turn_id=ids(len(c["text"]))))


def _drop_rows(kind, n):
    """Every column of kind loses its last n values."""
    def edit(columns):
        for values in columns.values():
            del values[-n:]
    return _edit_kind(kind, edit)


def _copy_row_1_over_row_2(columns):
    for values in columns.values():
        values[1] = values[0]


def _repeat_restatement_1_in_row_2(columns):
    restatements = columns["lossless_restatement"]
    restatements[1] = restatements[0]


def _cut_40_bytes(path):
    path.write_bytes(path.read_bytes()[:-40])


def _flip_byte_at(fraction):
    def apply(path):
        raw = bytearray(path.read_bytes())
        raw[int(fraction * (len(raw) - 1))] ^= 0xFF
        path.write_bytes(bytes(raw))
    return apply


def _bad_deflate_block(path):
    raw = bytearray(path.read_bytes())
    raw[10] = 0xFF  # the first block header after the 10-byte gzip header
    path.write_bytes(bytes(raw))


def _corrupt(store, part, edit):
    """Apply edit to part, then record the part's new sha256 in the manifest,
    so load gets past the checksums to the check the edit is meant to reach."""
    edit(store / part)
    if part != "manifest.json" and (store / part).exists():
        manifest_path = store / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["sha256"][part] = hashlib.sha256((store / part).read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))


# Case ids that name a schema-3 part ("entries-gz-...", "...-lines-short",
# "...-record-...") now edit the matching part of records.json.gz: its gzip
# bytes, a kind's rows, or a kind's columns.
R = "records.json.gz"
TRUNCATIONS = {
    "vectors-10-rows-short": ("vectors.bin", _drop_vector_rows),
    "vectors-header-cut": ("vectors.bin", lambda p: p.write_bytes(p.read_bytes()[:10])),
    "vectors-plane-3-damaged": ("vectors.bin", _damage_plane_3),
    "vectors-plane-3-too-long": ("vectors.bin", _edit_vector_planes(
        lambda planes, dim, count: planes[:3] + [planes[3] + bytes(dim)])),
    "vectors-plane-3-too-short": ("vectors.bin", _edit_vector_planes(
        lambda planes, dim, count: planes[:3] + [planes[3][:-dim]])),
    "vectors-plane-2-too-short": ("vectors.bin", _edit_vector_planes(
        lambda planes, dim, count: planes[:2] + [planes[2][:-dim], planes[3]])),
    "vectors-plane-3-trailing-bytes": ("vectors.bin", lambda p: p.write_bytes(
        p.read_bytes() + b"\0")),
    "vectors-bad-magic": ("vectors.bin", lambda p: p.write_bytes(b"MIRT" + p.read_bytes()[4:])),
    "vectors-planes-0-2-cut-short": ("vectors.bin", _cut_planes_0_to_2),
    # every row must be of unit length, so no NaN, infinity or zero either
    "vectors-row-1-nan": ("vectors.bin", _set_vector_values(float("nan"))),
    "vectors-one-value-infinite": ("vectors.bin", _set_vector_values(float("-inf"), n=1)),
    "vectors-row-1-all-zero": ("vectors.bin", _set_vector_values(0.0)),
    "vectors-row-1-scaled-by-3": ("vectors.bin", _scale_vector_row_1(3)),
    "entries-gz-cut-40-bytes": (R, _cut_40_bytes),
    "turns-gz-byte-flipped": (R, _flip_byte_at(0.5)),
    "turns-gz-bad-deflate-block": (R, _bad_deflate_block),
    "profiles-gz-not-gzip": (R, lambda p: p.write_bytes(b"{}\n")),
    "records-missing": (R, lambda p: p.unlink()),
    "records-not-an-object": (R, _edit_records_text(lambda text: b"[" + text + b"]")),
    "records-with-an-extra-kind": (R, _edit_records(lambda records: records.update(x={}))),
    "entries-10-lines-short": (R, _drop_rows("entries", 10)),
    "entries-cut-mid-record": (R, _edit_records_text(lambda text: text[:-40])),
    "entries-not-an-object": (R, _edit_records(
        lambda records: records.update(entries=[records["entries"]]))),
    "entries-record-without-topic": (R, _edit_kind("entries", lambda c: c.pop("topic"))),
    "entries-topic-column-1-value-short": (R, _edit_kind(
        "entries", lambda c: c["topic"].pop())),
    # a string as long as the column, so only the column's own type is wrong
    "entries-topic-column-a-string": (R, _edit_kind(
        "entries", lambda c: c.update(topic="t" * len(c["topic"])))),
    "turns-record-with-extra-field": (R, _edit_kind(
        "turns", lambda c: c.update(extra=c["text"]))),
    "entries-record-with-extra-field": (R, _edit_kind(
        "entries", lambda c: c.update(extra=c["topic"]))),
    "entries-record-topic-renamed": (R, _edit_kind(
        "entries", lambda c: c.update(subject=c.pop("topic")))),
    "profiles-record-with-extra-field": (R, _edit_kind(
        "profiles", lambda c: c.update(extra=c["version"]))),
    "profiles-version-gap": (R, _edit_kind(
        "profiles", lambda c: c["version"].__setitem__(0, c["version"][0] + 1))),
    "manifest-not-an-object": ("manifest.json", lambda p: p.write_text(
        "[1]\n", encoding="utf-8")),
    "manifest-sealed-key-renamed": ("manifest.json", _edit_manifest_text(
        '"sealed"', '"sealee"')),
    "manifest-dim-a-string": ("manifest.json", _edit_manifest_text(
        '"dim": 64', '"dim": "64"')),
    "manifest-dim-not-the-vectors-dim": ("manifest.json", _edit_manifest_text(
        '"dim": 64', '"dim": 32')),
    "manifest-sealed-a-string": ("manifest.json", _edit_manifest_text(
        '"sealed": true', '"sealed": "true"')),
    "manifest-prompt-round-a-string": ("manifest.json", _edit_manifest_text(
        '"prompt_round": 0', '"prompt_round": "0"')),
    "manifest-config-hash-a-number": ("manifest.json", _edit_manifest_text(
        '"config_hash": "', '"config_hash": 1, "was": "')),
    "manifest-schema-version-a-string": ("manifest.json", _edit_manifest_text(
        f'"schema_version": {SCHEMA_VERSION}', f'"schema_version": "{SCHEMA_VERSION}"')),
    "manifest-sha256-names-a-fifth-file": ("manifest.json", _edit_manifest_text(
        '"sha256": {', '"sha256": {"extra.bin": "0", ')),
    "manifest-profile-versions-a-bool": ("manifest.json", _edit_manifest_text(
        '"profile_versions": 16', '"profile_versions": true')),
    "entries-restatement-a-number": (R, _set_value("entries", "lossless_restatement", 1)),
    "entries-keywords-a-string": (R, _set_value("entries", "keywords", "abc")),
    "entries-keywords-holding-a-bool": (R, _set_value("entries", "keywords", [True])),
    "entries-event-time-a-number": (R, _set_value("entries", "event_time", 20240101)),
    "entries-location-a-list": (R, _set_value("entries", "location", ["Rome"])),
    "entries-persons-a-string": (R, _set_value("entries", "persons", "Maya")),
    "entries-entities-holding-null": (R, _set_value("entries", "entities", [None])),
    "entries-topic-null": (R, _set_value("entries", "topic", None)),
    "entries-source-ids-strings": (R, _set_value("entries", "source_dialogue_ids", ["1"])),
    "entries-source-ids-holding-a-float": (R, _set_value(
        "entries", "source_dialogue_ids", [1.0])),
    "entries-anchor-past-the-last-turn": (R, _set_value(
        "entries", "source_dialogue_ids", [9999])),
    "entries-anchor-turn-0": (R, _set_value("entries", "source_dialogue_ids", [0, 1])),
    "entries-origin-window-a-string": (R, _set_value("entries", "origin_window", "x")),
    "entries-origin-window-past-the-last-turn": (R, _set_value(
        "entries", "origin_window", 999)),
    "entries-no-anchors": (R, _set_value("entries", "source_dialogue_ids", [])),
    "entries-pronoun-person": (R, _set_value("entries", "persons", ["he"])),
    "entries-person-not-in-display-form": (R, _set_value("entries", "persons", [" Maya"])),
    "entries-event-time-not-a-date": (R, _set_value("entries", "event_time", "not a date")),
    "entries-restatement-empty": (R, _set_value("entries", "lossless_restatement", "")),
    "entries-origin-window-a-bool": (R, _set_value("entries", "origin_window", True)),
    "profiles-2-lines-short": (R, _drop_rows("profiles", 2)),
    "turns-3-lines-short": (R, _drop_rows("turns", 3)),
    "profiles-missing": (R, _edit_records(lambda records: records.pop("profiles"))),
    "entries-row-1-copied-over-row-2": (R, _edit_kind("entries", _copy_row_1_over_row_2)),
    "entries-restatement-repeated": (R, _edit_kind(
        "entries", _repeat_restatement_1_in_row_2)),
    "turns-turn-id-repeated": (R, _with_turn_ids(lambda n: [1, 1] + list(range(3, n + 1)))),
    "turns-turn-ids-gapped": (R, _with_turn_ids(lambda n: [1] + list(range(3, n + 2)))),
    "turns-turn-ids-out-of-order": (R, _with_turn_ids(lambda n: [2, 1] + list(range(3, n + 1)))),
    "turns-turn-id-a-string": (R, _with_turn_ids(lambda n: ["1"] + list(range(2, n + 1)))),
    "turns-session-id-a-string": (R, _set_value("turns", "session_id", "1")),
    "turns-speaker-a-list": (R, _set_value("turns", "speaker", ["A"])),
    "turns-text-a-number": (R, _set_value("turns", "text", 7)),
    "turns-timestamp-a-number": (R, _set_value("turns", "timestamp", 20240101)),
    "turns-speaker-empty": (R, _set_value("turns", "speaker", "")),
    "turns-timestamp-not-a-date": (R, _set_value("turns", "timestamp", "not a date")),
    "profiles-entity-key-a-number": (R, _set_value("profiles", "entity_key", 1)),
    "profiles-display-name-a-number": (R, _set_value("profiles", "display_name", 1)),
    "profiles-version-a-string": (R, _set_value("profiles", "version", "1")),
    "profiles-window-a-string": (R, _set_value("profiles", "window", "1")),
    "profiles-sections-a-list": (R, _set_value("profiles", "sections", [])),
    "profiles-display-name-empty": (R, _set_value("profiles", "display_name", "")),
    "profiles-sections-empty": (R, _set_value("profiles", "sections", {})),
    "profiles-section-text-a-list": (R, _edit_kind(
        "profiles", lambda c: c["sections"][0].update(Identity=["x"]))),
    "profiles-last-section-text-a-number": (R, _edit_kind(
        "profiles", lambda c: c["sections"][-1].update(Identity=1))),
}


@pytest.mark.parametrize("case", sorted(TRUNCATIONS))
def test_inspect_rejects_truncated_store(work_dir, capsys, case):
    build(capsys)
    _corrupt(work_dir / "store", *TRUNCATIONS[case])
    code, out, err = run(capsys, "inspect", "--store", "store")
    assert code == EXIT_DATA
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "StoreIOError"
    assert "sha256" not in error["message"]  # a check past the checksum


@pytest.mark.parametrize("case,names_rebuild", [
    ("vectors-row-1-scaled-by-3", True), ("entries-pronoun-person", True),
    ("profiles-sections-empty", True), ("turns-speaker-empty", True),
    ("entries-gz-cut-40-bytes", True), ("records-missing", False)])
def test_a_refused_store_names_the_rebuild_unless_a_file_is_unreadable(
        work_dir, capsys, case, names_rebuild):
    """A schema-4 store written before a rule held (rows left off unit length,
    a blank profile label) no longer loads, and the message names the remedy."""
    build(capsys)
    _corrupt(work_dir / "store", *TRUNCATIONS[case])
    code, _, err = run(capsys, "inspect", "--store", "store")
    assert code == EXIT_DATA
    assert ("rebuild it with `trimem build --force`" in json.loads(err)["message"]) \
        == names_rebuild


BYTE_FAULTS = {"first-byte-flipped": _flip_byte_at(0.0),
               "middle-byte-flipped": _flip_byte_at(0.5),
               "last-byte-flipped": _flip_byte_at(1.0),
               "cut-40-bytes": _cut_40_bytes}


@pytest.mark.parametrize("fault", sorted(BYTE_FAULTS))
@pytest.mark.parametrize("part", DATA_FILES)
def test_inspect_rejects_changed_bytes(work_dir, capsys, part, fault):
    build(capsys)
    BYTE_FAULTS[fault](work_dir / "store" / part)
    code, out, err = run(capsys, "inspect", "--store", "store")
    assert code == EXIT_DATA
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "StoreIOError"
    assert part in error["message"] and "sha256" in error["message"]


def test_store_parts_read_with_plain_gzip(work_dir, capsys):
    build(capsys)
    store = work_dir / "store"
    manifest = json.loads((store / "manifest.json").read_text())
    assert sorted(manifest["sha256"]) == sorted(DATA_FILES)
    with gzip.open(store / "records.json.gz", "rt", encoding="utf-8") as fh:
        records = json.load(fh)
    assert list(records) == ["entries", "turns", "profiles"]
    assert "entry_id" not in records["entries"]  # row i is entry e{i:06d}
    assert "turn_id" not in records["turns"]  # and turn i
    counts = {kind: {len(values) for values in columns.values()}
              for kind, columns in records.items()}
    assert counts == {"entries": {manifest["entry_count"]},
                      "turns": {manifest["turn_count"]},
                      "profiles": {manifest["profile_versions"]}}


def _downgrade(store, version):
    """Rewrite a store in an older layout: turns with their turn_id column and
    vectors.bin with the 16-byte header (magic, version, dim, count); in schema 4
    one records.json.gz, before it one JSON-lines part per kind, gzip'd from
    schema 2 on, with no checksums in schema 1."""
    manifest = json.loads((store / "manifest.json").read_text())
    records = json.loads(gzip.decompress((store / "records.json.gz").read_bytes()))
    records["turns"] = {"turn_id": list(range(1, manifest["turn_count"] + 1)),
                        **records["turns"]}
    parts = {}
    if version == 4:
        parts["records.json.gz"] = gzip.compress(json.dumps(records).encode("utf-8"))
    else:
        (store / "records.json.gz").unlink()
        for kind, columns in records.items():
            lines = "".join(json.dumps(dict(zip(columns, row))) + "\n"
                            for row in zip(*columns.values())).encode("utf-8")
            name = f"{kind}.jsonl" if version == 1 else f"{kind}.jsonl.gz"
            parts[name] = lines if version == 1 else gzip.compress(lines)
    raw = (store / "vectors.bin").read_bytes()
    parts["vectors.bin"] = raw[:4] + struct.pack(
        "<III", version, manifest["dim"], manifest["entry_count"]) + raw[4:]
    for name, data in parts.items():
        (store / name).write_bytes(data)
    manifest["schema_version"] = version
    if version == 1:
        del manifest["sha256"]
    else:
        manifest["sha256"] = {name: hashlib.sha256(data).hexdigest()
                              for name, data in parts.items()}
    (store / "manifest.json").write_text(json.dumps(manifest))


def _refused_then_rebuilt(work_dir, capsys, version):
    """A store of the given schema version is refused with the rebuild hint,
    and ``build --force`` over it leaves only the current layout."""
    build(capsys)
    store = work_dir / "store"
    _downgrade(store, version)
    code, _, err = run(capsys, "inspect", "--store", "store")
    assert code == EXIT_DATA
    error = json.loads(err)
    assert error["error"] == "SchemaVersionMismatch"
    assert "trimem build --force" in error["message"]

    assert build(capsys, extra=("--force",))[0] == EXIT_OK
    assert sorted(p.name for p in store.iterdir()) == sorted(
        [*DATA_FILES, "manifest.json", "run_manifest.json"])
    code, out, _ = run(capsys, "inspect", "--store", "store")
    assert code == EXIT_OK and json.loads(out)["entries"] == 60


def test_schema_1_store_is_refused_and_rebuilt(work_dir, capsys):
    _refused_then_rebuilt(work_dir, capsys, 1)


def test_schema_3_store_is_refused_and_rebuilt(work_dir, capsys):
    _refused_then_rebuilt(work_dir, capsys, 3)


def test_schema_4_store_is_refused_and_rebuilt(work_dir, capsys):
    _refused_then_rebuilt(work_dir, capsys, 4)


def test_schema_2_store_is_refused(work_dir, capsys):
    build(capsys)
    manifest_path = work_dir / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = 2
    manifest_path.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "inspect", "--store", "store")
    assert (code, out) == (EXIT_DATA, "")
    error = json.loads(err)
    assert error["error"] == "SchemaVersionMismatch"
    assert "trimem build --force" in error["message"]


def test_evolve_refuses_a_non_empty_out_dir(work_dir, capsys):
    def evolve():
        return run(capsys, "evolve", "--corpus", "corpus.json", "--qa", "qa.jsonl",
                   "--rounds", "1", "--out", "evolved",
                   "--scripted", "evolve_fixture.jsonl")

    def snapshot():
        return {p.relative_to(work_dir): p.read_bytes()
                for p in sorted((work_dir / "evolved").rglob("*")) if p.is_file()}

    assert evolve()[0] == EXIT_OK
    first = snapshot()
    assert len(first) > 5 and len((work_dir / "evolved" / "gradients.jsonl")
                                  .read_text().splitlines()) == 1
    code, out, err = evolve()
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err)["error"] == "UsageError"
    assert "not an empty directory" in json.loads(err)["message"]
    assert snapshot() == first


@pytest.mark.parametrize("options", [
    ("--round", "3"), ("--prompts", "prompts"), ("--prompts", "prompts", "--round", "0"),
    ("--config", "round.json"), ("--config", "prompts.json"),
], ids=["round", "prompts", "prompts-and-round", "config-round", "config-prompts"])
def test_evolve_refuses_a_prompt_directory_or_round(work_dir, capsys, options):
    PromptSet.seed().persist(work_dir / "prompts")
    (work_dir / "round.json").write_text(json.dumps({"prompt_round": 3}))
    (work_dir / "prompts.json").write_text(json.dumps({"prompt_dir": "prompts"}))
    # --max-calls 0: a model call before the check would exit 3
    code, out, err = run(capsys, "evolve", "--corpus", "corpus.json", "--qa", "qa.jsonl",
                         "--rounds", "1", "--out", "evolved",
                         "--scripted", "evolve_fixture.jsonl", "--max-calls", "0", *options)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("\n") == 1 and json.loads(err)["error"] == "UsageError"
    assert "seed prompts" in json.loads(err)["message"]
    assert not (work_dir / "evolved").exists()


@pytest.mark.parametrize("command", [
    ("build", "--corpus", "corpus.json", "--store", "taken"),
    ("build", "--corpus", "corpus.json", "--store", "taken", "--force"),
    ("evolve", "--corpus", "corpus.json", "--qa", "qa.jsonl", "--out", "taken"),
    ("evolve", "--corpus", "corpus.json", "--qa", "qa.jsonl", "--out", "taken/out"),
    ("eval", "--store", "store", "--qa", "qa.jsonl", "--out", "taken/out"),
    ("ablate", "--store", "store", "--qa", "qa.jsonl", "--knob", "top_k",
     "--values", "5", "--out", "taken/out"),
    ("answer", "--store", "store", "--question", "q", "--dump-context", "taken/ctx.txt"),
], ids=["build", "build-force", "evolve", "evolve-under-a-file", "eval-under-a-file",
        "ablate-under-a-file", "answer-dump-context-under-a-file"])
def test_an_out_dir_that_is_a_file_is_a_usage_error(work_dir, capsys, command):
    assert build(capsys)[0] == EXIT_OK
    (work_dir / "taken").write_text("x")
    # --max-calls 0: a model call before the check would exit 3
    code, out, err = run(capsys, *command, "--scripted", "fixture.jsonl",
                         "--max-calls", "0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("\n") == 1 and json.loads(err)["error"] == "UsageError"
    assert (work_dir / "taken").read_text() == "x"


BUILD = ("build", "--corpus", "corpus.json", "--store", "store")
ABLATE_ROW = ("ablate", "--corpus", "corpus.json", "--qa", "qa.jsonl", "--knob", "stride",
              "--values", "38", "--out", "sw")
SQUATTED_OUTPUTS = {
    # each path a build writes in its store, staged or final, and its run
    # manifest, with and without --force; each path of a rebuilt ablate
    # row's store, which gets no run manifest
    **{f"{name}-{path.name}": (command, str(path))
       for name, command in (("build", BUILD), ("build-force", (*BUILD, "--force")))
       for path in [*store_paths("store"), Path("store/run_manifest.json")]},
    **{f"ablate-row-store-{path.name}": (ABLATE_ROW, str(path))
       for path in store_paths("sw/store_stride_38")},
    "eval-report": (("eval", "--store", "store", "--qa", "qa.jsonl", "--out", "ev"),
                    "ev/report.json"),
    "eval-detailed-results": (("eval", "--store", "store", "--qa", "qa.jsonl", "--out", "ev"),
                              "ev/detailed_results.jsonl"),
    "ablate-sweep-report": (("ablate", "--store", "store", "--qa", "qa.jsonl", "--knob",
                             "top_k", "--values", "5", "--out", "sw"), "sw/sweep_report.json"),
    "ablate-row-report": (("ablate", "--store", "store", "--qa", "qa.jsonl", "--knob",
                           "top_k", "--values", "5,25", "--out", "sw"), "sw/top_k_25/report.json"),
    "answer-dump-context": (("answer", "--store", "store", "--question", "Where?",
                             "--dump-context", "ctx/context.txt"), "ctx/context.txt"),
}


def tree(root: Path) -> dict:
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("case", sorted(SQUATTED_OUTPUTS))
def test_an_output_that_cannot_be_written_is_one_json_error(work_dir, capsys, case):
    # a directory squats on the output name: root may write through chmod.
    # It is found before the first model call: with none allowed, a run
    # that reached one would exit 3 instead, and nothing is made or changed.
    command, squatted = SQUATTED_OUTPUTS[case]
    assert build(capsys)[0] == EXIT_OK
    (work_dir / squatted).unlink(missing_ok=True)
    (work_dir / squatted).mkdir(parents=True)
    before = tree(work_dir)
    code, out, err = run(capsys, *command, "--scripted", "fixture.jsonl", "--max-calls", "0")
    assert (code, out) == (EXIT_DATA, "")
    assert tree(work_dir) == before
    assert json.loads(err) == {"error": "StoreIOError",
                               "message": f"cannot write {squatted}: a directory holds its name"}
    if squatted.removeprefix("store/") not in STORE_FILES:  # the built store is whole
        assert len(MemoryStore.load(work_dir / "store")) == 60


def test_build_writes_its_run_manifest_under_the_store_lock(work_dir, capsys, monkeypatch):
    locked = []

    def recording(path, *args):
        locked.append((path.parent / ".lock").exists())
        write_manifest(path, *args)

    monkeypatch.setattr(cli, "write_manifest", recording)
    assert build(capsys)[0] == EXIT_OK
    assert locked == [True]
    assert run(capsys, *ABLATE_ROW, "--scripted", "fixture.jsonl")[0] == EXIT_OK
    # a row's run manifest is its eval's, beside its report, not in its store
    assert locked == [True, False]
    assert sorted(p.name for p in (work_dir / "sw" / "store_stride_38").iterdir()) == sorted(
        STORE_FILES)


def test_no_written_file_holds_the_api_key(work_dir, capsys, monkeypatch):
    monkeypatch.setenv("TRIMEM_API_KEY", "sk-canary-24")
    assert build(capsys)[0] == EXIT_OK
    assert run(capsys, "eval", "--store", "store", "--qa", "qa.jsonl",
               "--scripted", "fixture.jsonl", "--out", "ev")[0] == EXIT_OK
    assert run(capsys, "ablate", "--store", "store", "--qa", "qa.jsonl", "--knob", "top_k",
               "--values", "5,25", "--scripted", "fixture.jsonl", "--out", "sw")[0] == EXIT_OK
    written = [path for path in work_dir.rglob("*") if path.is_file()
               and path.parts[len(work_dir.parts)] in ("store", "ev", "sw")]
    assert len(written) > 10
    for path in written:
        data = path.read_bytes()
        if path.suffix == ".gz":
            data = gzip.decompress(data)
        assert b"sk-canary-24" not in data, path


def test_ablate_unknown_knob(work_dir, capsys):
    build(capsys)
    code, _, err = run(capsys, "ablate", "--store", "store", "--qa", "qa.jsonl",
                       "--knob", "bogus", "--values", "1,2",
                       "--scripted", "fixture.jsonl", "--out", "sweep")
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "UnknownKnob"


def test_ablate_sweeps_engine_knobs_only(work_dir, capsys):
    # a RunConfig field outside the segmentation and retrieval configs is no engine knob
    build(capsys)
    code, out, err = run(capsys, "ablate", "--store", "store", "--qa", "qa.jsonl",
                         "--knob", "hit_k", "--values", "1,5",
                         "--scripted", "fixture.jsonl", "--out", "sweep")
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err)["error"] == "UnknownKnob"
    assert not (work_dir / "sweep").exists()


@pytest.mark.parametrize("knob", [field.name for field in fields(RetrievalConfig)])
def test_ablate_without_a_store_for_a_knob_that_does_not_rebuild(work_dir, capsys, knob):
    code, out, err = run(capsys, "ablate", "--corpus", "corpus.json", "--qa", "qa.jsonl",
                         "--knob", knob, "--values", "true" if knob == "use_search_plan" else "5",
                         "--out", "sweep", "--scripted", "fixture.jsonl", "--max-calls", "0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "UsageError" and "--store" in error["message"]
    assert not (work_dir / "sweep").exists()


def test_ablate_top_k_sweep(work_dir, capsys):
    build(capsys)
    code, out, _ = run(capsys, "ablate", "--store", "store", "--qa", "qa.jsonl",
                       "--knob", "top_k", "--values", "5,25",
                       "--scripted", "fixture.jsonl", "--out", "sweep")
    assert code == EXIT_OK
    sweep = json.loads((work_dir / "sweep" / "sweep_report.json").read_text())
    assert [row["value"] for row in sweep["rows"]] == [5, 25]
    assert (work_dir / "sweep" / "top_k_5" / "report.json").exists()
    # smaller K retrieves less context
    assert sweep["rows"][0]["overall"]["mean_token_cost"] < \
        sweep["rows"][1]["overall"]["mean_token_cost"]


@pytest.mark.parametrize("knob, values, costs", [
    ("anchor_count", "0,5", [1251.375, 1528.5]),  # without and with the verbatim section
    ("profile_count", "0,2", [1284.125, 1528.5]),  # without and with the profiles
])
def test_ablate_sweeps_a_granularity_on_the_one_store(work_dir, capsys, data_dir, knob, values,
                                                      costs):
    build(capsys)
    code, out, err = run(capsys, "ablate", "--store", "store", "--qa", "qa.jsonl",
                         "--knob", knob, "--values", values,
                         "--scripted", "fixture.jsonl", "--out", "sweep")
    assert code == EXIT_OK, err
    overall = [row["overall"] for row in json.loads(out)["rows"]]
    assert [row["mean_token_cost"] for row in overall] == costs
    # the default row is the golden eval; the scripted answers do not read
    # the context, so the scores hold on every row
    golden = json.loads((data_dir / "golden_report.json").read_text())["overall"]
    assert overall[1] == golden
    assert all({**row, "mean_token_cost": None} == {**golden, "mean_token_cost": None}
               for row in overall)
    assert not list((work_dir / "sweep").glob("store_*"))


def test_ablate_reads_json_values_and_rebuilds_for_a_segmentation_knob(work_dir, capsys):
    build(capsys)
    code, _, _ = run(capsys, "ablate", "--store", "store", "--qa", "qa.jsonl",
                     "--knob", "use_search_plan", "--values", "true, false",
                     "--scripted", "fixture.jsonl", "--out", "plan")
    assert code == EXIT_OK
    sweep = json.loads((work_dir / "plan" / "sweep_report.json").read_text())
    assert [row["value"] for row in sweep["rows"]] == [True, False]
    assert not list((work_dir / "plan").glob("store_*"))
    code, _, _ = run(capsys, "ablate", "--corpus", "corpus.json", "--qa", "qa.jsonl",
                     "--knob", "stride", "--values", "38",
                     "--scripted", "fixture.jsonl", "--out", "stride")
    assert code == EXIT_OK
    assert (work_dir / "stride" / "store_stride_38" / "manifest.json").exists()


def test_an_ablate_row_that_rebuilds_counts_and_caps_its_build(work_dir, capsys):
    def calls(out_dir):
        manifest = json.loads((work_dir / out_dir / "run_manifest.json").read_text())
        return manifest["backend_usage"]["calls"]

    build(capsys)
    code, _, err = run(capsys, "eval", "--store", "store", "--qa", "qa.jsonl",
                       "--scripted", "fixture.jsonl", "--out", "eval")
    assert code == EXIT_OK, err
    assert (calls("store"), calls("eval")) == (25, 40)

    sweep = ("ablate", "--corpus", "corpus.json", "--qa", "qa.jsonl", "--knob", "stride",
             "--values", "38", "--scripted", "fixture.jsonl")
    assert run(capsys, *sweep, "--out", "stride")[0] == EXIT_OK
    assert calls("stride/stride_38") == 25 + 40
    # the cap spans the row: enough for its build or its eval, not both
    code, _, err = run(capsys, *sweep, "--out", "capped", "--max-calls", "50")
    assert code == EXIT_BACKEND
    assert json.loads(err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("sweep", [
    ("--corpus", "corpus.json", "--knob", "window_size", "--values", "40"),
    ("--store", "store", "--knob", "top_k", "--values", "5,25"),
], ids=["rebuilds", "retrieval-knob"])
def test_ablate_refuses_a_bad_qa_record_before_it_makes_anything(work_dir, capsys, sweep):
    # the QA set is read once, before --out is made and before the first
    # row's build, which --max-calls 0 would stop with BudgetExceeded
    assert build(capsys)[0] == EXIT_OK
    good, *_ = (work_dir / "qa.jsonl").read_text().splitlines()
    (work_dir / "bad.jsonl").write_text(json.dumps({**json.loads(good), "question": ""}) + "\n")
    code, out, err = run(capsys, "ablate", "--qa", "bad.jsonl", *sweep, "--out", "sw",
                         "--scripted", "fixture.jsonl", "--max-calls", "0")
    assert (code, out) == (EXIT_DATA, "")
    assert err.count("\n") == 1 and json.loads(err)["error"] == "MalformedDocument"
    assert not (work_dir / "sw").exists()


@pytest.mark.parametrize("sweep", [
    ("--store", "store", "--knob", "top_k", "--values", "5,25, 5"),
    ("--corpus", "corpus.json", "--knob", "stride", "--values", "38,38"),
], ids=["retrieval-knob", "rebuilds"])
def test_ablate_refuses_a_repeated_value_before_it_makes_anything(work_dir, capsys, sweep):
    # two rows of one value would write one directory, the second over the first
    assert build(capsys)[0] == EXIT_OK
    code, out, err = run(capsys, "ablate", "--qa", "qa.jsonl", *sweep, "--out", "sw",
                         "--scripted", "fixture.jsonl", "--max-calls", "0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "UsageError" and "repeats" in error["message"]
    assert not (work_dir / "sw").exists()


def test_ablate_checks_only_the_files_a_row_store_holds(work_dir, capsys):
    # a row's store gets no run_manifest.json: the row's eval directory does
    (work_dir / "sw" / "store_window_size_40" / "run_manifest.json").mkdir(parents=True)
    code, _, err = run(capsys, "ablate", "--corpus", "corpus.json", "--qa", "qa.jsonl",
                       "--knob", "window_size", "--values", "40",
                       "--scripted", "fixture.jsonl", "--out", "sw")
    assert code == EXIT_OK, err
    assert (work_dir / "sw" / "window_size_40" / "run_manifest.json").is_file()


@pytest.mark.parametrize("name, text", [
    ("extraction", ""),
    ("extraction", PromptSet.seed().extraction.replace("{dialogue_text}", "")),
    ("profile", PromptSet.seed().profile.replace("{facts}", "")),
    ("profile", PromptSet.seed().profile.replace("{existing_profile}", "")),
    ("answer", PromptSet.seed().answer.replace("{query}", "")),
], ids=["extraction-empty", "extraction-without-dialogue-text", "profile-without-facts",
        "profile-without-existing-profile", "answer-without-query"])
def test_a_prompt_round_that_lost_a_placeholder_is_a_data_error(work_dir, capsys, name, text):
    PromptSet.seed().persist(work_dir / "prompts")
    (work_dir / "prompts" / "round_0" / f"{name}.txt").write_text(text)
    # --max-calls 0: a model call before the check would exit 3
    code, out, err = build(capsys, extra=("--prompts", "prompts", "--max-calls", "0"))
    assert (code, out) == (EXIT_DATA, "")
    error = json.loads(err)
    assert error["error"] == "MalformedDocument"
    assert f"{name}.txt lacks" in error["message"]


def test_a_prompt_round_error_is_reported_without_a_class_name(work_dir, capsys):
    PromptSet.seed().persist(work_dir / "prompts")
    (work_dir / "prompts" / "round_0" / "profile.txt").write_text(
        PromptSet.seed().profile.replace("{existing_profile}", ""))
    code, out, err = build(capsys, extra=("--prompts", "prompts", "--max-calls", "0"))
    assert (code, out) == (EXIT_DATA, "")
    assert json.loads(err) == {"error": "MalformedDocument",
                               "message": "prompt round 0: profile.txt lacks {existing_profile}"}
