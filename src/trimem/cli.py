"""Operator command-line surface.

Commands: ingest, build, query, answer, eval, evolve, ablate, inspect.
Configuration precedence is flags > environment > config file. ``build``,
``eval``, ``evolve`` and ``ablate`` (one per eval row) write a run manifest
(config hash, prompt round, backend usage) so scripted runs replay exactly.

Each flag is declared once, in ``FLAGS``. Exit codes: 0 success, else the
error class's ``exit_code``: 1 usage, 2 data/validation, 3 backend/transport.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import functools
import hashlib
import json
import logging
import os
import sys
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import errors
from .backend import (BackendRouter, HttpBackend, ScriptedBackend, fields_of, has_type,
                      read_input)
from .corpus import DialogueCorpus, SegmentationConfig, load_corpus, segment
from .errors import EXIT_OK
from .extraction import normalize_person_key
from .evolution import PromptSet, best_round, evolve
from .metrics import build_report, write_report
from .pipeline import QaItem, answer_question, build_store, run_eval
from .retrieval import plan_for_question, retrieve
from .store import (MemoryStore, RetrievalConfig, make_dir, refuse_non_empty, refuse_squatted,
                    store_paths, write_json, write_text)

logger = logging.getLogger(__name__)

ENV_API_BASE = "TRIMEM_API_BASE"
ENV_API_KEY = "TRIMEM_API_KEY"
ENV_CONFIG = "TRIMEM_CONFIG"

REPORT, DETAILED, RUN_MANIFEST = "report.json", "detailed_results.jsonl", "run_manifest.json"
EVAL_OUTPUTS = (REPORT, DETAILED, RUN_MANIFEST)  # an eval's files
SWEEP_REPORT = "sweep_report.json"  # ablate's, beside its rows
UNHASHED = {"hashed": False}  # a field config_hash omits: it cannot change what a run writes
EVOLVE_ONLY = {"hashed": "evolve"}  # a field only evolve reads, so only its hash covers


@dataclass(frozen=True)
class RunConfig(SegmentationConfig, RetrievalConfig):
    """Every knob of a run: the engine's segmentation and retrieval knobs,
    with their defaults and checks, plus the CLI's own."""
    corpus: Optional[str] = field(default=None, metadata=UNHASHED)
    store_dir: Optional[str] = field(default=None, metadata=UNHASHED)
    prompt_dir: Optional[str] = field(default=None, metadata=UNHASHED)
    prompt_round: Optional[int] = field(default=None, metadata=UNHASHED)
    hit_k: int = 5
    api_base: Optional[str] = field(default=None, metadata=UNHASHED)
    api_key: Optional[str] = field(default=None, metadata=UNHASHED)
    model_tag: str = ""
    senior_model_tag: str = field(default="", metadata=EVOLVE_ONLY)
    embedding_model: str = ""
    scripted_fixture: Optional[str] = field(default=None, metadata=UNHASHED)
    max_calls: Optional[int] = field(default=None, metadata=UNHASHED)
    max_tokens: Optional[int] = field(default=None, metadata=UNHASHED)
    rounds: int = field(default=4, metadata=EVOLVE_ONLY)

    def __post_init__(self):
        SegmentationConfig.__post_init__(self)
        RetrievalConfig.__post_init__(self)
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.hit_k < 1:
            raise ValueError("hit_k must be >= 1")
        if min(self.max_calls or 0, self.max_tokens or 0, self.prompt_round or 0) < 0:
            raise ValueError("max_calls, max_tokens and prompt_round must be >= 0")

    def recorded(self) -> dict:
        """The fields a run writes down in its manifest: all but the API key."""
        return {k: v for k, v in dataclasses.asdict(self).items() if k != "api_key"}

    def config_hash(self, command: str = "") -> str:
        """The hash of the output knobs command reads, off their defaults; all defaults hash {}."""
        knobs = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                 if f.metadata.get("hashed", True) in (True, command)
                 and getattr(self, f.name) != f.default}
        payload = json.dumps(knobs, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# each RunConfig field's kind and default, as a config file may give it
_CONFIG_TYPES = fields_of(RunConfig)


def run_config(values: dict) -> RunConfig:
    """RunConfig(**values), or UsageError if a knob is invalid."""
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise errors.UsageError(f"bad run config: {exc}")


def load_run_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    config_path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if config_path:
        try:
            values = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
            raise errors.UsageError(f"bad config file {config_path}: {exc}")
        if not isinstance(values, dict):
            raise errors.UsageError(f"bad config file {config_path}: not a JSON object")
        for key, value in values.items():
            if key not in _CONFIG_TYPES:
                raise errors.UsageError(f"unknown config key {key!r}")
            if not has_type(value, _CONFIG_TYPES[key][0]):
                raise errors.UsageError(f"config key {key!r} has the wrong type: {value!r}")
    for key, var in (("api_base", ENV_API_BASE), ("api_key", ENV_API_KEY)):
        if os.environ.get(var):
            values[key] = os.environ[var]
    values.update((key, getattr(args, key)) for key in _CONFIG_TYPES
                  if getattr(args, key, None) is not None)
    if getattr(args, "question", None) is not None and not args.question.strip():
        raise errors.UsageError("--question must be non-empty")
    return run_config(values)


def _is_http_url(text: str) -> bool:
    try:
        url = urllib.parse.urlsplit(text)
    except ValueError:  # such as an unclosed [ around an IPv6 host
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


def make_router(config: RunConfig) -> BackendRouter:
    """The run's backends; a configured api_base that is not an http:// or
    https:// URL with a host is a UsageError, even when a fixture is used."""
    if config.api_base and not _is_http_url(config.api_base):
        raise errors.UsageError(
            f"api_base {config.api_base!r} is not an http:// or https:// URL with a host")
    if config.scripted_fixture:
        backend = ScriptedBackend.from_fixture_file(
            config.scripted_fixture,
            max_calls=config.max_calls, max_tokens=config.max_tokens)
        return BackendRouter(pipeline=backend)
    if not config.api_base:
        raise errors.UsageError(
            f"no backend configured: set {ENV_API_BASE} or pass --scripted FIXTURE")
    http = functools.partial(HttpBackend, config.api_base, config.api_key or "",
                             max_calls=config.max_calls, max_tokens=config.max_tokens)
    senior = None
    if config.senior_model_tag and config.senior_model_tag != config.model_tag:
        senior = http(model_tag=config.senior_model_tag)
    return BackendRouter(pipeline=http(model_tag=config.model_tag,
                                       embedding_model=config.embedding_model),
                         senior=senior)


def load_prompts(config: RunConfig) -> PromptSet:
    """This run's prompt round: the configured one (default: the latest) of
    the prompt directory, or the seed. A round with no prompt directory to
    read it from is a UsageError."""
    if config.prompt_round is not None and not config.prompt_dir:
        raise errors.UsageError(f"round {config.prompt_round} needs a prompt directory "
                                f"(--prompts)")
    if not config.prompt_dir:
        return PromptSet.seed()
    round_number = config.prompt_round
    if round_number is None:
        round_number = PromptSet.latest_round(config.prompt_dir)
    if round_number is None:
        raise errors.UsageError(f"no prompt rounds in {config.prompt_dir}")
    try:
        return PromptSet.load_round(config.prompt_dir, round_number)
    except OSError as exc:
        raise errors.MissingFile(f"prompt round {round_number}: {exc}")
    except ValueError as exc:
        raise errors.MalformedDocument(f"prompt round {round_number}: {exc}")


@contextlib.contextmanager
def store_lock(store_dir: Path):
    """One command per store directory at a time: a ``flock`` on ``.lock``,
    which the kernel drops when its holder exits, however it exits. The holder
    unlinks ``.lock`` before it lets go, so a lock on an unlinked file is refused."""
    make_dir(store_dir)
    lock_path = store_dir / ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY)
    except OSError as exc:
        raise errors.UsageError(f"cannot open the store lock {lock_path}: {exc}")
    ours = False
    try:
        with contextlib.suppress(BlockingIOError, FileNotFoundError):
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            ours = os.path.samestat(os.fstat(fd), os.stat(lock_path))
        if not ours:
            raise errors.UsageError(f"{store_dir} is locked by another command")
        yield
    finally:
        if ours:
            lock_path.unlink(missing_ok=True)
        os.close(fd)


def write_manifest(path: Path, config: RunConfig, prompt_round: int,
                   router: BackendRouter, command: str = "") -> None:
    """One shape for every command: config, its hash, prompt round, usage."""
    manifest = {
        "config": config.recorded(),
        "config_hash": config.config_hash(command),
        "prompt_round": prompt_round,
        "backend_usage": router.pipeline.usage.as_dict(),
    }
    if router.senior is not router.pipeline:
        manifest["senior_usage"] = router.senior.usage.as_dict()
    write_json(path, manifest)


def _build_and_persist(config: RunConfig, corpus: DialogueCorpus, prompts: PromptSet,
                       router: BackendRouter, store_dir: Path) -> MemoryStore:
    """Build a store from corpus with one prompt round and persist it, under the caller's lock."""
    store = build_store(corpus, prompts.as_prompt_dict(), router, seg_config=config)
    store.persist(store_dir, manifest_extra={"config_hash": config.config_hash(),
                                             "prompt_round": prompts.round})
    return store


def load_qa_set(path) -> list[QaItem]:
    """The records of a JSON-array or JSON-lines QA file, after
    ``read_input``; a bad record is MalformedDocument that names its 1-based
    record number (array) or line (JSON lines)."""
    items, where = [], str(path)
    try:
        text = read_input(path).decode("utf-8")
        if text.lstrip().startswith("["):
            for number, rec in enumerate(json.loads(text), 1):
                where = f"{path}: record {number}"
                items.append(QaItem.from_dict(rec))
        else:
            # "\n" only: a JSON string may hold a raw U+2028, which splitlines splits at
            for number, line in enumerate(text.split("\n"), 1):
                where = f"{path}:{number}"
                if line.strip():
                    items.append(QaItem.from_dict(json.loads(line)))
    except (ValueError, RecursionError) as exc:  # a bad record, JSON or nesting
        raise errors.MalformedDocument(f"{where}: bad QA record: {exc}")
    return items


def _turn_json(turn) -> dict:
    return {"turn_id": turn.turn_id, "speaker": turn.speaker, "text": turn.text}


def _profile_json(profile) -> dict:
    """A profile as query and inspect print it: its read-only sections as a plain dict."""
    return {**vars(profile), "sections": dict(profile.sections)}


# -- commands ------------------------------------------------------------

def cmd_ingest(args, config: RunConfig) -> dict:
    corpus = load_corpus(config.corpus)
    sessions = sorted({t.session_id for t in corpus.turns})
    return {
        "corpus_id": corpus.corpus_id,
        "turn_count": corpus.turn_count,
        "session_count": len(sessions),
        "windows": len(segment(corpus, config)),
    }


def cmd_build(args, config: RunConfig) -> dict:
    store_dir = Path(config.store_dir)
    refuse_squatted(*store_paths(store_dir), store_dir / RUN_MANIFEST)
    if not args.force:
        refuse_non_empty(store_dir, "pass --force to rebuild")
    router = make_router(config)
    corpus = load_corpus(config.corpus)
    prompts = load_prompts(config)
    with store_lock(store_dir):  # the run manifest beside the store it describes
        store = _build_and_persist(config, corpus, prompts, router, store_dir)
        write_manifest(store_dir / RUN_MANIFEST, config, prompts.round, router)
    return {"store": str(store_dir), "entries": len(store),
            "profiles": len(store.profile_history)}


def cmd_query(args, config: RunConfig) -> dict:
    store = MemoryStore.load(config.store_dir)
    prompts = load_prompts(config).as_prompt_dict()
    router = make_router(config)
    plan = plan_for_question(args.question, prompts, router.pipeline, config)
    ctx = retrieve(plan, store, config, router.pipeline)
    return {
        "question": args.question,
        "queries": list(plan.queries),
        "entries": [
            {"entry_id": e.entry_id, "score": score,
             "restatement": e.lossless_restatement,
             "source_dialogue_ids": sorted(e.source_dialogue_ids)}
            for e, score in ctx.ranked_entries
        ],
        "recovered_turns": [_turn_json(t) for t in ctx.recovered_turns],
        "profiles": [_profile_json(p) for p in ctx.profiles],
        "token_cost": ctx.token_cost,
    }


def cmd_answer(args, config: RunConfig) -> dict:
    store = MemoryStore.load(config.store_dir)
    prompts = load_prompts(config).as_prompt_dict()
    dump_path = Path(args.dump_context) if args.dump_context else None
    router = make_router(config)  # before make_dir: a UsageError leaves nothing
    if dump_path:
        refuse_squatted(dump_path)
        make_dir(dump_path.parent)
    result, ctx = answer_question(args.question, store, prompts, router, config)
    if dump_path:
        write_text(dump_path, ctx.text)
    return {
        "question": result.question,
        "reasoning": result.reasoning,
        "answer": result.answer_text,
        "context_token_cost": ctx.token_cost,
    }


def _evidence_by_question(qa_set: list[QaItem]) -> Optional[dict]:
    """Each question's gold evidence for hit@k; None, with one warning, when
    a record has none or a repeated question carries other evidence."""
    gold = {}
    for item in qa_set:
        if not item.evidence or gold.setdefault(item.question, item.evidence) != item.evidence:
            logger.warning("no hit@k: %r has no evidence, or other evidence than before",
                           item.question)
            return None
    return gold


def _eval_to_dir(config: RunConfig, qa_set: list[QaItem], store: MemoryStore,
                 prompts: PromptSet, out_dir: Path, router: BackendRouter) -> dict:
    make_dir(out_dir)
    records = run_eval(qa_set, store, prompts.as_prompt_dict(), router, config)
    report = build_report(records, evidence=_evidence_by_question(qa_set), hit_k=config.hit_k,
                          metadata={"prompt_round": prompts.round,
                                    "config_hash": config.config_hash()})
    write_report(report, records, out_dir / REPORT, out_dir / DETAILED)
    write_manifest(out_dir / RUN_MANIFEST, config, prompts.round, router)
    return report


def cmd_eval(args, config: RunConfig) -> dict:
    out_dir = Path(args.out or Path(config.store_dir) / "eval")
    refuse_squatted(*(out_dir / name for name in EVAL_OUTPUTS))
    router = make_router(config)
    qa_set = load_qa_set(args.qa)
    store = MemoryStore.load(config.store_dir)
    report = _eval_to_dir(config, qa_set, store, load_prompts(config), out_dir, router)
    return {"report": str(out_dir / REPORT), "overall": report["overall"]}


def cmd_evolve(args, config: RunConfig) -> dict:
    if config.prompt_dir is not None or config.prompt_round is not None:
        raise errors.UsageError("evolve starts from the seed prompts: drop --prompts/--round")
    out_dir = Path(args.out)
    corpus = load_corpus(config.corpus)
    router = make_router(config)
    trajectory = evolve(
        corpus, load_qa_set(args.qa), config.rounds, router, out_dir,
        seg_config=config, retrieval_config=config)
    best = best_round(trajectory)
    summary = {
        "rounds": [{"round": ps.round, "loss": loss} for ps, loss in trajectory],
        "best_round": best.round,
        "prompt_dir": str(out_dir),
    }
    write_json(out_dir / "evolution_summary.json", summary)
    write_manifest(out_dir / RUN_MANIFEST, config, best.round, router, "evolve")
    return summary


# every engine knob sweeps: a segmentation knob rebuilds the store per row
_SEGMENTATION_KNOBS = {field.name for field in dataclasses.fields(SegmentationConfig)}
ABLATION_KNOBS = _SEGMENTATION_KNOBS | {f.name for f in dataclasses.fields(RetrievalConfig)}


def cmd_ablate(args, config: RunConfig) -> dict:
    knob = args.knob
    if knob not in ABLATION_KNOBS:
        raise errors.UnknownKnob(
            f"unknown knob {knob!r}; choose from {sorted(ABLATION_KNOBS)}")
    try:
        values = [json.loads(raw) for raw in args.values.split(",")]
    except (json.JSONDecodeError, RecursionError):
        values = None
    if values is None or not all(has_type(v, _CONFIG_TYPES[knob][0]) for v in values):
        raise errors.UsageError(
            f"--values for {knob} must be JSON values of its type: {args.values!r}")
    row_names = [f"{knob}_{value}" for value in values]
    if len(set(row_names)) != len(row_names):
        # two rows would write one directory, the second over the first
        raise errors.UsageError(f"--values for {knob} repeats a value: {args.values!r}")
    rebuilds = knob in _SEGMENTATION_KNOBS
    if rebuilds and not config.corpus:
        raise errors.UsageError(f"--knob {knob} rebuilds the store: pass --corpus")
    if not rebuilds and not config.store_dir:
        raise errors.UsageError(f"--knob {knob} evaluates an existing store: pass --store")
    sweeps = [run_config({**vars(config), knob: value}) for value in values]
    out_dir = Path(args.out)
    rebuilt = row_names if rebuilds else []
    refuse_squatted(out_dir / SWEEP_REPORT,
                    *(out_dir / row / name for row in row_names for name in EVAL_OUTPUTS),
                    *(path for row in rebuilt for path in store_paths(out_dir / f"store_{row}")))
    # every input is read once, before --out is made: a row rebuilds from
    # the corpus, or evaluates the one --store
    qa_set = load_qa_set(args.qa)
    prompts = load_prompts(config)
    corpus = load_corpus(config.corpus) if rebuilds else None
    store = None if rebuilds else MemoryStore.load(config.store_dir)
    make_dir(out_dir)
    rows = []
    for value, row, sweep_config in zip(values, row_names, sweeps):
        router = make_router(sweep_config)
        if rebuilds:
            row_store = out_dir / f"store_{row}"
            with store_lock(row_store):
                store = _build_and_persist(sweep_config, corpus, prompts, router, row_store)
            sweep_config = dataclasses.replace(sweep_config, store_dir=str(row_store))
        report = _eval_to_dir(sweep_config, qa_set, store, prompts, out_dir / row, router)
        rows.append({"knob": knob, "value": value,
                     "overall": report["overall"]})
    sweep_report = {"knob": knob, "rows": rows}
    write_json(out_dir / SWEEP_REPORT, sweep_report)
    return sweep_report


def cmd_inspect(args, config: RunConfig) -> dict:
    store = MemoryStore.load(config.store_dir)
    if not args.entry_id:
        return {
            "entries": len(store),
            "turns": len(store.turns),
            "profile_versions": len(store.profile_history),
            "sealed": store.sealed,
        }
    entry = store.entries.get(args.entry_id)
    if entry is None:
        raise errors.UnknownEntry(args.entry_id)
    recovered = store.recover_dialogue([args.entry_id])[0][1]
    return {
        "entry_id": entry.entry_id,
        "restatement": entry.lossless_restatement,
        "persons": sorted(entry.persons),
        "source_dialogue_ids": sorted(entry.source_dialogue_ids),
        "origin_window": entry.origin_window,
        "anchored_turns": [_turn_json(t) for t in recovered],
        "profiles": [_profile_json(p) for p in store.profiles_for(
            sorted({normalize_person_key(p) for p in entry.persons}))],
    }


# -- argument parsing ----------------------------------------------------

# each flag's add_argument keywords
FLAGS = {
    "--corpus": {}, "--question": {}, "--knob": {}, "--entry-id": {},
    "--store": {"dest": "store_dir"},
    "--window": {"dest": "window_size", "type": int},
    "--stride": {"type": int}, "--rounds": {"type": int},
    "--force": {"action": "store_true"},
    "--dump-context": {"help": "write the assembled context here"},
    "--qa": {"help": "QA set (JSONL or JSON array)"},
    "--out": {"help": "output directory"},
    "--values": {"help": "comma-separated values"},
    "--config": {"help": "JSON run-config file"},
    "--scripted": {"dest": "scripted_fixture", "help": "scripted backend fixture (JSONL)"},
    "--prompts": {"dest": "prompt_dir", "help": "versioned prompt directory"},
    "--round": {"dest": "prompt_round", "type": int,
                "help": "prompt round to load (default: latest)"},
    "--k": {"dest": "top_k", "type": int, "help": "retrieval top-K"},
    "--no-search-plan": {"dest": "query_cap", "action": "store_const", "const": 1,
                         "help": "retrieve with the raw question only (query_cap 1)"},
    "--max-calls": {"type": int}, "--max-tokens": {"type": int},
}
COMMON_FLAGS = ["--config", "--scripted", "--prompts", "--round", "--k",
                "--no-search-plan", "--max-calls", "--max-tokens"]

# each command's function, help and own flags; a trailing "!" marks a required flag
COMMANDS = {
    "ingest": (cmd_ingest, "validate and summarize a corpus file", "--corpus! --window --stride"),
    "build": (cmd_build, "build the memory store from a corpus",
              "--corpus! --store! --window --stride --force"),
    "query": (cmd_query, "retrieve context for a question", "--store! --question!"),
    "answer": (cmd_answer, "answer a question from the store",
               "--store! --question! --dump-context"),
    "eval": (cmd_eval, "run the QA evaluation harness (--out defaults to STORE/eval)",
             "--store! --qa! --out"),
    "evolve": (cmd_evolve, "run the prompt evolution loop", "--corpus! --qa! --rounds --out!"),
    "ablate": (cmd_ablate, "sweep one knob and tabulate results",
               "--store --corpus --qa! --knob! --values! --out!"),
    "inspect": (cmd_inspect, "dump store stats or one entry", "--store! --entry-id"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError; its subparsers inherit it."""

    def error(self, message):
        raise errors.UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trimem", description="Tri-granularity conversational memory engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for flag in flags.split() + COMMON_FLAGS:
            option = flag.rstrip("!")
            p.add_argument(option, required=flag.endswith("!"), **FLAGS[option])
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: its result as one JSON object on stdout and exit 0,
    or its error as one JSON line on stderr and the error's exit code."""
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args, load_run_config(args))
    except errors.TriMemError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code
    print(json.dumps(result, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
