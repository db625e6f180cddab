"""Spans around the calls into trimem's modules, from the benchmark's side.

``install`` swaps the public functions the engine looks up at call time
(module attributes of ``pipeline``, ``qa``, ``evolution`` and ``metrics``,
and the ``MemoryStore`` methods) for wrappers that open a span; the
provider opens its own spans and records its waits. ``uninstall`` puts the
originals back. Spans stay in memory until ``dump``.

A span's self time is its duration minus its children's durations minus
its own provider wait. The ``pipeline.*`` spans are glue, not layers: their
self time is engine time outside every named layer.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "parent", "request", "phase", "start", "end",
                 "wait", "attrs")

    def __init__(self, sid, name, parent, request, phase, start):
        self.id, self.name, self.parent = sid, name, parent
        self.request, self.phase, self.start = request, phase, start
        self.end, self.wait, self.attrs = start, 0.0, {}

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "request": self.request, "phase": self.phase,
                "start": self.start, "end": self.end, "wait": self.wait,
                **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = None
        self.phase = "setup"
        self.active = True

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.request, self.phase,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, wait: float = 0.0, **attrs) -> None:
        span.end = time.perf_counter()
        span.wait = wait
        span.attrs.update(attrs)
        top = self._stack.pop()
        assert top is span, f"span {span.name} closed out of order"

    def dump(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


# per-span observations, taken after the span closed:
# (result, args, error, value ``before(args)`` gave at entry)
def _obs_extract(result, args, error, pre):
    entries = result if error is None else getattr(error, "entries", [])
    return {"kept": len(entries)}


def _obs_insert(result, args, error, pre):
    return {"rows": len(args[1]), "fresh": len(args[0]) - pre} if error is None else {}


def _obs_retrieve(result, args, error, pre):
    return {"token_cost": result.token_cost} if error is None else {}


def _obs_answer(result, args, error, pre):
    return {"unparsed": int(error is None and result.reasoning == "(unparsed)")}


def _obs_judge(result, args, error, pre):
    return {"unparsed": int(error is None and result[1] == "(judge unparsed)")}


def _obs_persist(result, args, error, pre):
    return {"bytes": dir_bytes(args[1])} if error is None else {}


def _wrap(tracer: Tracer, fn, name: str, observe=None, before=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        pre = before(args) if before else None
        span = tracer.begin(name)
        error = result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            tracer.end(span)
            if observe is not None:
                span.attrs.update(observe(result, args, error, pre))
    return traced


def install(tracer: Tracer):
    """Wrap the engine's public calls; returns a function that undoes it."""
    from trimem import evolution, metrics, pipeline, qa
    from trimem.store import MemoryStore

    functions = [
        (pipeline, "segment", "corpus.segment", None),
        (pipeline, "extract_entries", "extraction.extract_entries", _obs_extract),
        (pipeline, "update_profile", "profiles.update_profile", None),
        (pipeline, "plan_for_question", "retrieval.plan_for_question", None),
        (pipeline, "retrieve", "retrieval.retrieve", _obs_retrieve),
        (pipeline, "generate_answer", "qa.answer", _obs_answer),
        (pipeline, "assemble_context", "qa.assemble_context", None),
        (pipeline, "token_f1", "metrics.token_f1", None),
        (pipeline, "bleu", "metrics.bleu", None),
        (pipeline, "coverage", "metrics.coverage", None),
        (pipeline, "build_store", "pipeline.build_store", None),
        (pipeline, "answer_question", "pipeline.answer_question", None),
        (pipeline, "run_eval", "pipeline.run_eval", None),
        (qa, "assemble_context", "qa.assemble_context", None),
        (qa, "estimate_tokens", "qa.estimate_tokens", None),
        (evolution, "judge", "evolution.judge", _obs_judge),
        (metrics, "build_report", "metrics.build_report", None),
    ]
    saved = []
    for module, attr, name, observe in functions:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, name, observe))
    methods = [
        ("insert_entries", _obs_insert, lambda args: len(args[0])),
        ("similarity_search", None, None),
        ("recover_dialogue", None, None),
        ("verify_anchors", None, None),
        ("persist", _obs_persist, None),
    ]
    for attr, observe, before in methods:
        original = MemoryStore.__dict__[attr]
        saved.append((MemoryStore, attr, original))
        setattr(MemoryStore, attr,
                _wrap(tracer, original, f"store.{attr}", observe, before))
    load = MemoryStore.__dict__["load"]
    saved.append((MemoryStore, "load", load))
    MemoryStore.load = classmethod(_wrap(tracer, load.__func__, "store.load"))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return uninstall


# -- roll-up -----------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> seconds not covered by child spans or provider waits."""
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return {s.id: (s.end - s.start) - child[s.id] - s.wait for s in spans}


GLUE = "pipeline."


class Rollup:
    """Per-name totals of one phase's spans, and per-request coverage."""

    def __init__(self, spans: list[Span], phase: str):
        own = self_times(spans)
        self.spans = [s for s in spans if s.phase == phase]
        self.dur = defaultdict(float)
        self.self = defaultdict(float)
        self.count = defaultdict(int)
        self.durs = defaultdict(list)
        self.attr = defaultdict(float)
        self.wait = 0.0
        self.layers = defaultdict(float)  # request -> layer self time + waits
        self.glue = defaultdict(float)    # request -> pipeline.* self time
        for s in self.spans:
            d = s.end - s.start
            self.dur[s.name] += d
            self.self[s.name] += own[s.id]
            self.count[s.name] += 1
            self.durs[s.name].append(d)
            self.wait += s.wait
            if s.name.startswith(GLUE):
                self.glue[s.request] += own[s.id]
                self.layers[s.request] += s.wait
            else:
                self.layers[s.request] += own[s.id] + s.wait
            for key, value in s.attrs.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.attr[s.name, key] += value

    def calls_of(self, kind: str, repair=None) -> int:
        return sum(1 for s in self.spans if s.name == "backend.complete"
                   and s.attrs.get("kind") == kind
                   and (repair is None or s.attrs.get("repair") == repair))

    def p50_ms(self, name: str) -> float:
        return statistics.median(self.durs[name]) * 1e3 if self.durs[name] else 0.0

    def unattributed(self, walls: dict) -> float:
        """Largest share of one request's wall time that no layer's self time
        or provider wait covers; ``walls`` maps request ID to seconds."""
        return max((_ratio(wall - self.layers[r], wall) for r, wall in walls.items()),
                   default=0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


PLAN_KINDS = ("analysis", "queries", "key_info")


def layer_metrics(tracer: Tracer, items: int, setups: int, walls: dict,
                  usage_delta: tuple[int, int], logs: dict, overhead: float,
                  proposed: int) -> dict[str, float]:
    """Every per-layer metric: measured-phase values are per item, ``setup.``
    values per traced set-up, shares are of the traced measured wall time.
    ``walls`` maps each measured request ID to its wall time in seconds."""
    wall_s = sum(walls.values())
    m = Rollup(tracer.spans, "measure")
    s = Rollup(tracer.spans, "setup")
    per = lambda v: _ratio(v, items)          # noqa: E731
    ms = lambda v: per(v) * 1e3               # noqa: E731
    complete = m.count["backend.complete"]
    embed = m.count["backend.embed"]
    repairs = sum(1 for sp in m.spans
                  if sp.name == "backend.complete" and sp.attrs.get("repair"))
    kept = m.attr["extraction.extract_entries", "kept"]
    rows = m.attr["store.insert_entries", "rows"]
    fresh = m.attr["store.insert_entries", "fresh"]
    s_rows = s.attr["store.insert_entries", "rows"]
    s_fresh = s.attr["store.insert_entries", "fresh"]
    backend_self = m.self["backend.complete"] + m.self["backend.embed"]
    score = (m.dur["metrics.token_f1"] + m.dur["metrics.bleu"]
             + m.dur["metrics.coverage"])
    out = {
        "backend.complete.calls": per(complete),
        "backend.embed.calls": per(embed),
        "backend.wait_ms": ms(m.wait),
        "backend.wait_share": _ratio(m.wait, wall_s),
        "backend.self_ms": ms(backend_self),
        "backend.prompt_tokens": per(usage_delta[0]),
        "backend.completion_tokens": per(usage_delta[1]),
        "backend.repair_ratio": _ratio(repairs, complete + embed),
        "corpus.segment.ms": ms(m.dur["corpus.segment"]),
        "extraction.extract_entries.self_ms": ms(m.self["extraction.extract_entries"]),
        "extraction.kept_ratio": _ratio(kept, proposed),
        "extraction.repair_retries": per(m.calls_of("extraction", repair=True)),
        "extraction.dropped_entries": per(proposed - kept),
        "profiles.update_profile.self_ms": ms(m.self["profiles.update_profile"]),
        "profiles.update_profile.calls": per(m.count["profiles.update_profile"]),
        "store.insert_entries.self_ms": ms(m.self["store.insert_entries"]),
        "store.insert_entries.rows": per(rows),
        "store.dedup_ratio": _ratio(rows - fresh, rows),
        "store.similarity_search.p50_ms": m.p50_ms("store.similarity_search"),
        "store.similarity_search.ms": ms(m.dur["store.similarity_search"]),
        "store.similarity_search.calls": per(m.count["store.similarity_search"]),
        "store.similarity_search.share": _ratio(m.dur["store.similarity_search"], wall_s),
        "store.recover_dialogue.ms": ms(m.dur["store.recover_dialogue"]),
        "store.verify_anchors.ms": ms(m.dur["store.verify_anchors"]),
        "store.persist.ms": ms(m.dur["store.persist"]),
        "store.persist.bytes": per(m.attr["store.persist", "bytes"]),
        "retrieval.plan_for_question.self_ms": ms(m.self["retrieval.plan_for_question"]),
        "retrieval.plan.llm_calls": per(sum(m.calls_of(k) for k in PLAN_KINDS)),
        "retrieval.plan_fallbacks": per(logs.get("plan_fallbacks", 0)),
        "retrieval.retrieve.self_ms": ms(m.self["retrieval.retrieve"]),
        "qa.answer.self_ms": ms(m.self["qa.answer"]),
        "qa.assemble_context.calls": per(m.count["qa.assemble_context"]),
        "qa.assemble_context.ms": ms(m.dur["qa.assemble_context"]),
        "qa.estimate_tokens.ms": ms(m.dur["qa.estimate_tokens"]),
        "qa.unparsed_answers": per(m.attr["qa.answer", "unparsed"]),
        "qa.context_tokens": _ratio(m.attr["retrieval.retrieve", "token_cost"],
                                    m.count["retrieval.retrieve"]),
        "evolution.judge.self_ms": ms(m.self["evolution.judge"]),
        "evolution.judge_unparsed": per(m.attr["evolution.judge", "unparsed"]),
        "metrics.score.ms": ms(score),
        "metrics.build_report.ms": ms(m.dur["metrics.build_report"]),
        "pipeline.build_store.self_ms": ms(m.self["pipeline.build_store"]),
        "pipeline.answer_question.self_ms": ms(m.self["pipeline.answer_question"]),
        "pipeline.run_eval.self_ms": ms(m.self["pipeline.run_eval"]),
        "setup.pipeline.build_store.self_ms": _ratio(s.self["pipeline.build_store"], setups) * 1e3,
        "setup.extraction.extract_entries.self_ms":
            _ratio(s.self["extraction.extract_entries"], setups) * 1e3,
        "setup.profiles.update_profile.self_ms":
            _ratio(s.self["profiles.update_profile"], setups) * 1e3,
        "setup.store.insert_entries.self_ms": _ratio(s.self["store.insert_entries"], setups) * 1e3,
        "setup.store.insert_entries.rows": _ratio(s_rows, setups),
        "setup.store.dedup_ratio": _ratio(s_rows - s_fresh, s_rows),
        "setup.store.persist.ms": _ratio(s.dur["store.persist"], setups) * 1e3,
        "setup.store.persist.bytes": _ratio(s.attr["store.persist", "bytes"], setups),
        "setup.store.load.ms": _ratio(s.dur["store.load"], setups) * 1e3,
        "setup.backend.self_ms":
            _ratio(s.self["backend.complete"] + s.self["backend.embed"], setups) * 1e3,
        "trace.overhead_ratio": overhead,
        "trace.unattributed_ratio": m.unattributed(walls),
    }
    return out


LAYER_UNITS = {
    "calls": "count", "rows": "count", "retries": "count", "fallbacks": "count",
    "answers": "count", "unparsed": "count", "entries": "count",
    "bytes": "B", "tokens": "tokens", "llm_calls": "count",
}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("ms"):
        return "ms"
    if last.endswith(("ratio", "share")):
        return "ratio"
    for suffix, unit in LAYER_UNITS.items():
        if last.endswith(suffix):
            return unit
    raise KeyError(name)
