import importlib
import pkgutil

import trimem
from trimem import prompts
from trimem.backend import BackendRouter, ScriptedBackend
from trimem.evolution import evolve
from trimem.pipeline import build_store, run_eval
from trimem.prompts import render, seed_prompts, slots
from trimem.store import RetrievalConfig


# -- slots and render --------------------------------------------------

def test_slots_are_words_in_braces_in_first_appearance_order():
    template = 'Hi {name}, {n_2} {}, {"json": 1} { name } {name} {x-y}'
    assert slots(template) == ("{name}", "{n_2}")


def test_render_fills_each_slot_in_one_pass():
    template = "{a} and {b}, {a} again"
    assert render(template, a="{b}", b="{a}") == "{b} and {a}, {b} again"


def test_render_leaves_a_slot_it_was_not_given():
    assert render("{a} {b} {}", a="1") == "1 {b} {}"


# -- every engine render call fills exactly its template's slots -------

def _engine_modules():
    """Each trimem module that calls render by the name it imports."""
    modules = [importlib.import_module(f"trimem.{info.name}")
               for info in pkgutil.iter_modules(trimem.__path__)]
    return [module for module in modules
            if module is not prompts and getattr(module, "render", None) is render]


def _slot_mismatch(template, values):
    """The slots template holds that values does not fill, and the values
    that fill no slot of it; both empty for a call that fills exactly its
    template's slots."""
    held, filled = set(slots(template)), {f"{{{name}}}" for name in values}
    return sorted(held - filled), sorted(filled - held)


def test_the_mismatch_check_catches_a_misspelt_slot_keyword():
    assert _slot_mismatch("Q: {query}\n{context}", {"qurey": "q", "context": "c"}) == \
        (["{query}"], ["{qurey}"])
    assert _slot_mismatch("Q: {query}", {"query": "q"}) == ([], [])


def test_every_render_call_fills_exactly_the_slots_of_its_template(
        monkeypatch, data_dir, fixture_corpus, qa_items, tmp_path):
    calls = []  # (module, mismatch) per render call

    def wrap(module):
        def checked(template, **values):
            calls.append((module.__name__, _slot_mismatch(template, values)))
            return render(template, **values)
        return checked

    modules = _engine_modules()
    assert {module.__name__ for module in modules} == {
        "trimem.evolution", "trimem.extraction", "trimem.profiles", "trimem.qa",
        "trimem.retrieval"}
    for module in modules:
        monkeypatch.setattr(module, "render", wrap(module))

    # the fixture build, its eval and gate 6's two-round evolve
    router, evolve_router = (BackendRouter(pipeline=ScriptedBackend.from_fixture_file(
        data_dir / name)) for name in ("fixture.jsonl", "evolve_fixture.jsonl"))
    store = build_store(fixture_corpus, seed_prompts(), router)
    run_eval(qa_items, store, seed_prompts(), router, RetrievalConfig())
    evolve(fixture_corpus, qa_items, rounds=2, router=evolve_router,
           prompt_dir=tmp_path / "prompts")

    assert {name for name, _ in calls} == {module.__name__ for module in modules}
    assert [(name, mismatch) for name, mismatch in calls if mismatch != ([], [])] == []

