"""TriMem: a tri-granularity conversational memory engine for LLM agents.

Three coexisting memory levels — verbatim dialogue turns, extracted atomic
facts with embedding retrieval, and synthesized per-person profiles —
plus a prompt-evolution loop that improves the extraction and profile
prompts from answer-quality feedback.
"""
from types import ModuleType as _ModuleType

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

# each public name the imports bind, less the submodules importing binds here too
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
