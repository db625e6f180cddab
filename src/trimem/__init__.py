"""TriMem: a tri-granularity conversational memory engine for LLM agents.

Three coexisting memory levels — verbatim dialogue turns, extracted atomic
facts with embedding retrieval, and synthesized per-person profiles —
plus a prompt-evolution loop that improves the extraction and profile
prompts from answer-quality feedback.
"""
from .backend import (
    Backend,
    BackendRouter,
    ChatRequest,
    HttpBackend,
    ScriptedBackend,
    Usage,
    hash_embedding,
)
from .corpus import (
    DialogueCorpus,
    DialogueTurn,
    SegmentationConfig,
    Window,
    load_corpus,
    render_window,
    segment,
    window_count,
)
from .errors import TriMemError
from .evolution import PromptSet, best_round, evolve, replay_gradients
from .extraction import MemoryEntry, extract_entries
from .metrics import (
    EvalRecord,
    bleu,
    build_report,
    coverage,
    hit_at_k,
    token_f1,
)
from .pipeline import QaItem, answer_question, build_store, run_eval
from .profiles import EntityProfile, update_profile
from .qa import Answer, RetrievedContext, answer, assemble_context, estimate_tokens
from .retrieval import SearchPlan, plan_for_question, retrieve
from .store import MemoryStore, RetrievalConfig

__version__ = "1.0.0"

__all__ = [
    "Answer",
    "Backend",
    "BackendRouter",
    "ChatRequest",
    "DialogueCorpus",
    "DialogueTurn",
    "EntityProfile",
    "EvalRecord",
    "HttpBackend",
    "MemoryEntry",
    "MemoryStore",
    "PromptSet",
    "QaItem",
    "RetrievalConfig",
    "RetrievedContext",
    "ScriptedBackend",
    "SearchPlan",
    "SegmentationConfig",
    "TriMemError",
    "Usage",
    "Window",
    "answer",
    "answer_question",
    "assemble_context",
    "best_round",
    "bleu",
    "build_report",
    "build_store",
    "coverage",
    "estimate_tokens",
    "evolve",
    "extract_entries",
    "hash_embedding",
    "hit_at_k",
    "load_corpus",
    "plan_for_question",
    "render_window",
    "replay_gradients",
    "retrieve",
    "run_eval",
    "segment",
    "token_f1",
    "update_profile",
    "window_count",
]
