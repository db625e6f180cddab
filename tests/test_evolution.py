import json
from dataclasses import fields

import pytest

from trimem.backend import BackendRouter, FixtureRule, ScriptedBackend
from trimem.errors import EmptyRecordSet, ParseFailure, UsageError
from trimem.evolution import (
    ROUND_PROMPTS,
    PromptSet,
    _parse_gradient,
    aggregate_loss,
    apply_gradient,
    best_round,
    evolve,
    judge,
    replay_gradients,
    textual_gradient,
)
from trimem.metrics import EvalRecord
from trimem.prompts import seed_prompts, slots

JUDGE_PROMPT = "Judge.\nQuestion: {question}\nRef: {reference}\nPred: {prediction}"
EVOLUTION_PROMPT = ("backward pass\n[Ext]\n{extraction_prompt}\n"
                    "[Prof]\n{profile_prompt}\n{detailed_results}")


def records(scores):
    return [EvalRecord(question=f"q{i}", prediction="p", reference="r",
                       category=1, f1=s, judge_score=s)
            for i, s in enumerate(scores)]


def gradient(ext_extra="", prof_extra=""):
    seed = PromptSet.seed()
    return {"rewritten_p_ext": seed.extraction + ext_extra,
            "rewritten_p_prof": seed.profile + prof_extra,
            "change_summary": "test"}


# -- prompt set --------------------------------------------------------

def test_seed_contains_placeholders():
    seed = PromptSet.seed()
    assert slots(seed.extraction) == ("{context}", "{dialogue_text}")
    assert slots(seed.profile) == ("{entity_name}", "{existing_profile}", "{facts}")
    assert slots(seed.answer) == ("{query}", "{context}")
    assert seed.round == 0
    assert seed.parent_round is None


def test_the_table_maps_each_trainable_prompt_to_its_gradient_field():
    assert ROUND_PROMPTS == {
        "extraction": "rewritten_p_ext", "profile": "rewritten_p_prof", "answer": None}
    assert list(ROUND_PROMPTS) == [f.name for f in fields(PromptSet) if f.name != "round"]


def test_prompt_set_persist_and_load(tmp_path):
    seed = PromptSet.seed()
    seed.persist(tmp_path)
    loaded = PromptSet.load_round(tmp_path, 0)
    assert loaded == seed


def test_as_prompt_dict_includes_aux_roles():
    prompts = PromptSet.seed().as_prompt_dict()
    assert set(prompts) == {"extraction", "profile", "answer", "judge",
                            "question_analysis", "query_generation", "evolution"}


# -- judge -------------------------------------------------------------

def test_judge_binary_threshold():
    backend = ScriptedBackend(rules=[
        FixtureRule(response='{"score": 0.7, "reasoning": "ok"}',
                    contains=("q1",)),
        FixtureRule(response='{"score": 0.3, "reasoning": "nope"}',
                    contains=("q2",)),
    ])
    assert judge("q1", "p", "r", JUDGE_PROMPT, backend) == (1.0, "ok")
    assert judge("q2", "p", "r", JUDGE_PROMPT, backend) == (0.0, "nope")


def test_a_question_holding_a_slot_reaches_the_judge_as_written():
    # render fills the template in one pass, so no inserted text is filled again
    backend = ScriptedBackend(rules=[
        FixtureRule(response='{"score": 1, "reasoning": "ok"}', contains=("Question:",))])
    judge("What is {reference}?", "a slot", "gold", seed_prompts()["judge"], backend)
    (prompt,) = backend.request_log
    assert "\nQuestion: What is {reference}?\nReference Answer: gold\n" in prompt


def test_judge_unparsed_degrades_to_zero(caplog):
    question = "q1 " + "x" * 100
    backend = ScriptedBackend(rules=[
        FixtureRule(response="???", contains=("q1",), sticky=True)])
    with caplog.at_level("WARNING", logger="trimem.evolution"):
        score, reasoning = judge(question, "p", "r", JUDGE_PROMPT, backend)
    assert score == 0.0
    assert reasoning == "(judge unparsed)"
    [warning] = [r for r in caplog.records if r.name == "trimem.evolution"]
    assert warning.levelname == "WARNING"
    assert repr(question[:80]) in warning.getMessage()
    assert question[:81] not in warning.getMessage()


def test_judge_rejects_empty_inputs():
    with pytest.raises(ValueError):
        judge("", "p", "r", JUDGE_PROMPT, ScriptedBackend())
    with pytest.raises(ValueError):
        judge("q", "", "r", JUDGE_PROMPT, ScriptedBackend())


# -- loss --------------------------------------------------------------

def test_aggregate_loss_range_and_mean():
    assert aggregate_loss(records([1.0, 1.0])) == -1.0
    assert aggregate_loss(records([0.0, 0.0])) == 0.0
    assert aggregate_loss(records([1.0, 0.0])) == -0.5


def test_aggregate_loss_rejects_empty_records():
    with pytest.raises(EmptyRecordSet):
        aggregate_loss([])


# -- gradients ---------------------------------------------------------

def test_apply_gradient_versions_and_persistence(tmp_path):
    seed = PromptSet.seed()
    child = apply_gradient(seed, gradient("\nextra"))
    child.persist(tmp_path)
    assert child.round == 1
    assert child.parent_round == 0
    assert child.answer == seed.answer  # answer prompt frozen
    assert child.extraction.endswith("extra")
    assert PromptSet.load_round(tmp_path, 1) == child


def test_placeholder_guard_rejects_lost_slots():
    seed = PromptSet.seed()
    bad = {"rewritten_p_ext": "no slots here", "rewritten_p_prof": seed.profile}
    with pytest.raises(ParseFailure, match="extraction rewrite lost"):
        _parse_gradient(json.dumps(bad))
    bad_prof = {"rewritten_p_ext": seed.extraction,
                "rewritten_p_prof": "missing {entity_name} only"}
    with pytest.raises(ParseFailure, match="profile rewrite lost {existing_profile}, {facts}"):
        _parse_gradient(json.dumps(bad_prof))


def test_textual_gradient_parses_reply():
    seed = PromptSet.seed()
    reply = json.dumps({
        "rewritten_p_ext": seed.extraction + "\nmore",
        "rewritten_p_prof": seed.profile + "\nmore",
        "change_summary": "added a rule",
    })
    backend = ScriptedBackend(rules=[
        FixtureRule(response=reply, contains=("backward pass",))])
    grad = textual_gradient(records([0.0]), seed, EVOLUTION_PROMPT, backend)
    assert grad["change_summary"] == "added a rule"
    assert grad["rewritten_p_ext"].endswith("more")
    # the detailed records were embedded in the prompt
    assert "detailed_results" in backend.request_log[0]


def test_textual_gradient_missing_field_raises():
    backend = ScriptedBackend(rules=[
        FixtureRule(response='{"rewritten_p_ext": "x"}',
                    contains=("backward pass",), sticky=True)])
    with pytest.raises(ParseFailure):
        textual_gradient(records([0.0]), PromptSet.seed(),
                         EVOLUTION_PROMPT, backend)
    assert len(backend.request_log) == 2  # the reply and its one repair


@pytest.mark.parametrize("field", ["rewritten_p_ext", "rewritten_p_prof",
                                   "change_summary"])
def test_textual_gradient_rejects_a_non_string_field(field):
    # a list holding the prompt keeps its placeholders, but is never stringified
    bad = {**gradient(), field: [gradient()[field]]}
    backend = ScriptedBackend(rules=[
        FixtureRule(response=json.dumps(bad), contains=("backward pass",),
                    sticky=True)])
    with pytest.raises(ParseFailure, match=field):
        textual_gradient(records([0.0]), PromptSet.seed(),
                         EVOLUTION_PROMPT, backend)
    first, repair = backend.request_log
    assert repair.startswith(first + "\n\nYour previous reply could not be parsed")


def test_textual_gradient_repairs_an_unreadable_reply():
    backend = ScriptedBackend(rules=[
        FixtureRule(response="I would rather not.", contains=("backward pass",)),
        FixtureRule(response=json.dumps(gradient("\nmore")),
                    contains=("backward pass",))])
    grad = textual_gradient(records([0.0]), PromptSet.seed(),
                            EVOLUTION_PROMPT, backend)
    assert grad == gradient("\nmore")
    assert len(backend.request_log) == 2


# -- one evolve round with a bad senior reply -------------------------

def evolve_with_gradient_replies(data_dir, corpus, items, prompt_dir, replies):
    """One evolve round on the gate-6 fixture, the senior sending ``replies``.
    Returns the trajectory, the chat prompts sent, the gradient log, and the
    number of chat prompts sent before each embed call."""
    backend = ScriptedBackend.from_fixture_file(data_dir / "evolve_fixture.jsonl")
    backend.rules = [rule for rule in backend.rules
                     if "backward pass" not in rule.contains]
    backend.rules += [FixtureRule(response=reply, contains=("backward pass",))
                      for reply in replies]
    embed, embed_marks = backend._embed, []
    backend._embed = lambda texts: embed_marks.append(len(backend.request_log)) or embed(texts)
    trajectory = evolve(corpus, items, rounds=1,
                        router=BackendRouter(pipeline=backend),
                        prompt_dir=prompt_dir)
    log = [json.loads(line) for line in
           (prompt_dir / "gradients.jsonl").read_text().splitlines()]
    return trajectory, backend.request_log, log, embed_marks


BAD_GRADIENTS = {
    "junk": ("junk", "no usable JSON"),
    "list-valued-rewrite": (
        json.dumps({**gradient(), "rewritten_p_ext": [PromptSet.seed().extraction]}),
        "rewritten_p_ext has the wrong type"),
    "lost-placeholder": (
        json.dumps({**gradient(), "rewritten_p_ext": "Extract facts, with no slots."}),
        "extraction rewrite lost {context}"),
    # update_profile fills {existing_profile} with the current profile
    "profile-rewrite-without-existing-profile": (
        json.dumps({**gradient(), "rewritten_p_prof":
                    PromptSet.seed().profile.replace("{existing_profile}", "")}),
        "profile rewrite lost {existing_profile}"),
}


@pytest.mark.parametrize("case", BAD_GRADIENTS)
def test_a_twice_bad_gradient_is_a_no_op_round(data_dir, fixture_corpus, qa_items,
                                               tmp_path, case):
    reply, want = BAD_GRADIENTS[case]
    trajectory, prompts, log, embed_marks = evolve_with_gradient_replies(
        data_dir, fixture_corpus, qa_items, tmp_path, [reply, reply])
    senior = [p for p in prompts if "backward pass" in p]
    assert len(senior) == 2  # the reply and its one repair
    # round 1 carries both build prompts forward, so it reuses round 0's
    # store: no extraction or profile prompt, one embed call per question
    round_1 = prompts.index(senior[-1]) + 1
    assert not [p for p in prompts[round_1:]
                if "[Current Window Dialogues]" in p or "Update the persona profile" in p]
    assert len([mark for mark in embed_marks if mark >= round_1]) == len(qa_items)
    assert senior[1].startswith(senior[0] + "\n\nYour previous reply could not be parsed")
    (rec,) = log
    assert rec["no_op"] is True and rec["round"] == 0
    assert want in rec["reason"]
    seed = PromptSet.seed()
    assert [(ps.round, ps.extraction, ps.profile) for ps, _ in trajectory] == \
        [(0, seed.extraction, seed.profile), (1, seed.extraction, seed.profile)]
    assert replay_gradients(tmp_path)[1] == PromptSet.load_round(tmp_path, 1)


# -- replay and selection ---------------------------------------------

def test_replay_gradients_reconstructs_chain(tmp_path):
    seed = PromptSet.seed()
    seed.persist(tmp_path)
    g1, g2 = gradient("\nA"), gradient("\nB", "\nC")
    v1 = apply_gradient(seed, g1)
    v2 = apply_gradient(v1, g2)
    with (tmp_path / "gradients.jsonl").open("w") as fh:
        for g, parent in ((g1, 0), (g2, 1)):
            fh.write(json.dumps({"round": parent, "loss": -0.5, **g}) + "\n")
    trajectory = replay_gradients(tmp_path)
    assert [p.round for p in trajectory] == [0, 1, 2]
    assert trajectory[1] == v1
    assert trajectory[2] == v2


def test_replay_without_a_gradient_log_is_round_0_alone(tmp_path):
    PromptSet.seed().persist(tmp_path)
    assert replay_gradients(tmp_path) == [PromptSet.seed()]


def test_replay_handles_no_op_rounds(tmp_path):
    seed = PromptSet.seed()
    seed.persist(tmp_path)
    (tmp_path / "gradients.jsonl").write_text(
        json.dumps({"round": 0, "loss": -0.5, "no_op": True,
                    "reason": "placeholder lost"}) + "\n")
    trajectory = replay_gradients(tmp_path)
    assert len(trajectory) == 2
    assert trajectory[1].extraction == seed.extraction
    assert trajectory[1].round == 1


@pytest.mark.parametrize("edit", [
    {"rewritten_p_ext": 5},
    {"rewritten_p_prof": "lost its slots"},
    {"rewritten_p_ext": None},
], ids=["number", "lost-placeholder", "null"])
def test_replay_rejects_a_hand_edited_log_line(tmp_path, edit):
    PromptSet.seed().persist(tmp_path)
    good = json.dumps({"round": 0, "loss": -0.5, **gradient()})
    bad = json.dumps({"round": 1, "loss": -0.5, **gradient(), **edit})
    (tmp_path / "gradients.jsonl").write_text(f"{good}\n{bad}\n")
    with pytest.raises(ParseFailure, match=r"gradients\.jsonl line 2: "):
        replay_gradients(tmp_path)


def test_replay_ends_a_line_only_at_a_newline(tmp_path):
    # a JSON string may hold a raw U+2028, which str.splitlines splits at
    PromptSet.seed().persist(tmp_path)
    rec = {"round": 0, "loss": -0.5, **gradient("\u2028A")}
    (tmp_path / "gradients.jsonl").write_text(json.dumps(rec, ensure_ascii=False) + "\n",
                                              encoding="utf-8")
    assert replay_gradients(tmp_path)[1].extraction == PromptSet.seed().extraction + "\u2028A"


def test_replay_names_the_line_that_is_not_utf8(tmp_path):
    PromptSet.seed().persist(tmp_path)
    line = json.dumps({"round": 0, "loss": -0.5, **gradient()}).encode()
    (tmp_path / "gradients.jsonl").write_bytes(line + b"\n" + line[:-2] + b'\xff"}\n')
    with pytest.raises(ParseFailure, match=r"gradients\.jsonl line 2: .*utf-8"):
        replay_gradients(tmp_path)


def test_replay_ignores_a_last_line_cut_short_with_one_warning(tmp_path, caplog):
    # evolve writes round_{k+1}/ only after line k's append returns, so a
    # last line with no newline has no round, even when it parses
    PromptSet.seed().persist(tmp_path)
    log = tmp_path / "gradients.jsonl"
    line = json.dumps({"round": 0, "loss": -0.5, **gradient("\nA")})
    for tail in (line, line[:40]):
        log.write_text(f"{line}\n{tail}")
        caplog.clear()
        with caplog.at_level("WARNING", logger="trimem.evolution"):
            assert [ps.round for ps in replay_gradients(tmp_path)] == [0, 1]
        assert [r.getMessage() for r in caplog.records] == [
            f"{log} line 2: ignoring {len(tail)} bytes with no newline, an append cut short"]


def test_replay_refuses_a_bad_whole_line_before_a_cut_last_line(tmp_path):
    PromptSet.seed().persist(tmp_path)
    line = json.dumps({"round": 0, "loss": -0.5, **gradient()})
    (tmp_path / "gradients.jsonl").write_text(f"{line}\n{line[:40]}\n{line}")
    with pytest.raises(ParseFailure, match=r"gradients\.jsonl line 2: "):
        replay_gradients(tmp_path)


@pytest.mark.parametrize("wrap", [
    "garbage before {} trailing junk",
    "{} trailing junk",
    "[{}]",
    "{} {}",
], ids=["prose-around", "trailing-junk", "in-an-array", "two-objects"])
def test_replay_reads_each_log_line_as_one_json_object(tmp_path, wrap):
    # the log is written by evolve, so a line is read strictly, not scanned
    # for JSON as a model reply is; a blank line is skipped
    PromptSet.seed().persist(tmp_path)
    line = json.dumps({"round": 0, "loss": -0.5, **gradient()})
    (tmp_path / "gradients.jsonl").write_text(f"{line}\n\n{wrap.replace('{}', line)}\n")
    with pytest.raises(ParseFailure, match="line 3"):
        replay_gradients(tmp_path)
    (tmp_path / "gradients.jsonl").write_text(f"{line}\n\n")
    assert len(replay_gradients(tmp_path)) == 2


def test_evolve_refuses_a_directory_that_holds_a_run(data_dir, fixture_corpus,
                                                      qa_items, tmp_path):
    backend = ScriptedBackend.from_fixture_file(data_dir / "evolve_fixture.jsonl")
    router = BackendRouter(pipeline=backend)
    evolve(fixture_corpus, qa_items, rounds=1, router=router, prompt_dir=tmp_path)
    log = (tmp_path / "gradients.jsonl").read_bytes()
    calls = backend.usage.calls
    with pytest.raises(UsageError, match="not an empty directory"):
        evolve(fixture_corpus, qa_items, rounds=1, router=router, prompt_dir=tmp_path)
    assert backend.usage.calls == calls  # refused before any model call
    assert (tmp_path / "gradients.jsonl").read_bytes() == log
    assert len(replay_gradients(tmp_path)) == 2


@pytest.mark.parametrize("rounds, train_set, error", [
    (0, None, ValueError), (1, [], EmptyRecordSet)], ids=["no-rounds", "no-questions"])
def test_evolve_refuses_no_rounds_or_no_questions_before_any_call(
        fixture_corpus, qa_items, tmp_path, rounds, train_set, error):
    backend = ScriptedBackend()
    with pytest.raises(error):
        evolve(fixture_corpus, qa_items if train_set is None else train_set, rounds=rounds,
               router=BackendRouter(pipeline=backend), prompt_dir=tmp_path / "prompts")
    assert backend.usage.calls == 0 and not (tmp_path / "prompts").exists()


def test_best_round_min_loss_earliest_tie():
    seed = PromptSet.seed()
    v1 = apply_gradient(seed, gradient("\nA"))
    v2 = apply_gradient(v1, gradient("\nB"))
    trajectory = [(seed, -0.5), (v1, -0.75), (v2, -0.75)]
    assert best_round(trajectory) is v1
