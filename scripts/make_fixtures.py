#!/usr/bin/env python3
"""Generate the deterministic test fixtures under tests/data/.

Produces:
    corpus.json            300-turn two-speaker corpus across 6 sessions
    fixture.jsonl          scripted-backend rules for build + eval
    evolve_fixture.jsonl   same, plus gradient replies and one judge flip
    qa.jsonl               8 evaluation questions (2 per category)
    golden_report.json     frozen output of build + eval on the above
    golden_detailed.jsonl  frozen per-question records

Everything is a pure function of the constants below; rerunning the
script reproduces identical bytes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
sys.path.insert(0, str(REPO / "src"))

from trimem.corpus import SegmentationConfig, load_corpus, segment  # noqa: E402
from trimem.prompts import seed_prompts  # noqa: E402

TOTAL_TURNS = 300
SESSION_LEN = 50
SPEAKERS = ("Ethan", "Maya")  # even turn ids -> Ethan, odd -> Maya

# (verb phrase, keywords, entities, topic, location)
ACTIVITIES = [
    ("visited the Harbor Museum", ["Harbor Museum", "museum"], ["Harbor Museum"], "museum visit", "Harborside"),
    ("finished reading The Glass Hotel", ["The Glass Hotel", "reading"], ["The Glass Hotel"], "books", None),
    ("adopted a beagle puppy named Biscuit", ["Biscuit", "beagle", "puppy"], [], "pets", None),
    ("ran the Riverside 10K race", ["Riverside 10K", "race", "running"], ["Riverside 10K"], "running", "Riverside"),
    ("started a pottery class at Clayworks Studio", ["pottery", "Clayworks Studio"], ["Clayworks Studio"], "pottery", "Clayworks Studio"),
    ("cooked a paella dinner for friends", ["paella", "cooking", "dinner"], [], "cooking", None),
    ("watched a documentary about coral reefs", ["documentary", "coral reefs"], [], "documentaries", None),
    ("planted tomatoes in the community garden", ["tomatoes", "community garden"], [], "gardening", "community garden"),
    ("repaired an old Raleigh bicycle", ["Raleigh", "bicycle", "repair"], ["Raleigh"], "cycling", None),
    ("attended a jazz concert at the Blue Lantern", ["jazz", "Blue Lantern", "concert"], ["Blue Lantern"], "music", "Blue Lantern"),
    ("baked sourdough bread from a new starter", ["sourdough", "bread", "baking"], [], "baking", None),
    ("hiked the Cedar Ridge trail", ["Cedar Ridge", "hiking", "trail"], ["Cedar Ridge trail"], "hiking", "Cedar Ridge"),
    ("bought a telescope from Northstar Optics", ["telescope", "Northstar Optics"], ["Northstar Optics"], "astronomy", None),
    ("volunteered at the Maplewood animal shelter", ["Maplewood", "animal shelter", "volunteering"], ["Maplewood animal shelter"], "volunteering", "Maplewood"),
    ("learned three chords on the ukulele", ["ukulele", "chords", "music practice"], [], "music practice", None),
    ("painted the kitchen a pale sage green", ["kitchen", "pale sage green", "painting"], [], "home improvement", None),
    ("joined a weekly chess club at the library", ["chess club", "library"], [], "chess", "library"),
    ("brewed a batch of ginger kombucha", ["ginger kombucha", "brewing"], [], "fermentation", None),
    ("photographed herons at Miller Pond", ["herons", "Miller Pond", "photography"], ["Miller Pond"], "photography", "Miller Pond"),
    ("assembled a 1000-piece puzzle of Venice", ["puzzle", "Venice"], [], "puzzles", None),
]

FILLERS = [
    "How has your week been going so far?",
    "Pretty good overall, just keeping busy with the usual things.",
    "The weather has been lovely lately, hasn't it?",
    "I was thinking the same thing this morning.",
    "Did you catch up on any sleep over the weekend?",
    "A little, though the mornings still come too early.",
    "We should plan something fun for next month.",
    "Agreed, let's compare calendars soon.",
    "I keep meaning to tidy up the garage.",
    "Same here, the to-do list never really shrinks.",
    "Anything interesting on your mind today?",
    "Mostly small errands, nothing too exciting.",
]


def session_of(turn_id: int) -> int:
    return (turn_id - 1) // SESSION_LEN


def session_date(turn_id: int) -> str:
    return f"2024-03-{10 + 2 * session_of(turn_id):02d}"


def timestamp_of(turn_id: int) -> str:
    pos = (turn_id - 1) % SESSION_LEN
    return f"{session_date(turn_id)}T10:{pos:02d}:00"


def speaker_of(turn_id: int) -> str:
    return SPEAKERS[turn_id % 2]


def is_fact_turn(turn_id: int) -> bool:
    return turn_id % 5 == 2


def fact_index(turn_id: int) -> int:
    return (turn_id - 2) // 5


def other(speaker: str) -> str:
    return SPEAKERS[1] if speaker == SPEAKERS[0] else SPEAKERS[0]


def fact_entry(turn_id: int) -> dict:
    """The extraction record mechanically derived from one fact turn."""
    k = fact_index(turn_id)
    verb, keywords, entities, topic, location = ACTIVITIES[k % len(ACTIVITIES)]
    speaker = speaker_of(turn_id)
    persons = [speaker]
    suffix = ""
    if k % 4 == 3:
        persons.append(other(speaker))
        suffix = f" together with {other(speaker)}"
    restatement = f"{speaker} {verb}{suffix} on {session_date(turn_id)}."
    return {
        "lossless_restatement": restatement,
        "keywords": [speaker] + keywords,
        "timestamp": timestamp_of(turn_id),
        "location": location,
        "persons": persons,
        "entities": entities,
        "topic": topic,
        "source_dialogue_ids": [turn_id],
    }


def turn_text(turn_id: int) -> str:
    if is_fact_turn(turn_id):
        k = fact_index(turn_id)
        verb, *_ = ACTIVITIES[k % len(ACTIVITIES)]
        suffix = f" together with {other(speaker_of(turn_id))}" if k % 4 == 3 else ""
        return f"By the way, I {verb}{suffix} on {session_date(turn_id)}. It went really well."
    return FILLERS[turn_id % len(FILLERS)]


def make_corpus() -> dict:
    sessions = []
    for s in range(TOTAL_TURNS // SESSION_LEN):
        turns = []
        for turn_id in range(s * SESSION_LEN + 1, (s + 1) * SESSION_LEN + 1):
            turns.append({
                "turn_id": turn_id,
                "speaker": speaker_of(turn_id),
                "text": turn_text(turn_id),
                "timestamp": timestamp_of(turn_id),
            })
        sessions.append({"session_id": s, "turns": turns})
    return {"corpus_id": "fixture-300", "sessions": sessions}


PROFILE_TEXT = {
    "Ethan": (
        "Entity: Ethan\n"
        "[Identity] Ethan is one of the two regular speakers in this dialogue history.\n"
        "[Interests] Museums, reading novels, pottery, documentaries, cycling repair, ukulele practice, chess, heron photography.\n"
        "[Personality] Curious and methodical; enjoys learning new skills in structured classes.\n"
        "[Life Events] Adopted a beagle puppy named Biscuit and bought a telescope from Northstar Optics in March 2024.\n"
        "[Preferences] Prefers quiet, detail-oriented hobbies like puzzles and reading."
    ),
    "Maya": (
        "Entity: Maya\n"
        "[Identity] Maya is one of the two regular speakers in this dialogue history.\n"
        "[Interests] Running, cooking paella, gardening, jazz concerts, sourdough baking, hiking, home improvement, kombucha brewing.\n"
        "[Personality] Energetic and outdoorsy; mixes athletic goals with creative kitchen projects.\n"
        "[Life Events] Ran the Riverside 10K and volunteered at the Maplewood animal shelter in March 2024.\n"
        "[Preferences] Enjoys being outdoors on trails and in the community garden."
    ),
}


QUESTIONS = [
    {
        "question": "What museum did Ethan visit in March 2024?",
        "reference": "The Harbor Museum",
        "category": 4,
        "evidence": [2, 102, 202],
        "prediction": "The Harbor Museum",
        "reasoning": "Memory entries say Ethan visited the Harbor Museum.",
        "judge": 1.0,
        "alt_query": "Ethan museum visit Harbor Museum",
        "persons": ["Ethan"],
    },
    {
        "question": "What is the name of the beagle puppy Ethan adopted?",
        "reference": "Biscuit",
        "category": 4,
        "evidence": [12, 112, 212],
        "prediction": "Biscuit",
        "reasoning": "An entry records that Ethan adopted a beagle puppy named Biscuit.",
        "judge": 1.0,
        "alt_query": "Ethan beagle puppy name",
        "persons": ["Ethan"],
    },
    {
        "question": "On what date did Maya run the Riverside 10K race?",
        "reference": "March 10, 2024",
        "category": 2,
        "evidence": [17],
        "prediction": "March 10, 2024",
        "reasoning": "The entry's event time for the Riverside 10K is 2024-03-10.",
        "judge": 1.0,
        "alt_query": "Maya Riverside 10K race date",
        "persons": ["Maya"],
    },
    {
        "question": "When did Ethan start the pottery class at Clayworks Studio?",
        "reference": "On March 10, 2024",
        "category": 2,
        "evidence": [22],
        "prediction": "In June 2024",
        "reasoning": "Guessing from the general timeline of the conversation.",
        "judge": 0.0,
        "alt_query": "Ethan pottery class Clayworks Studio start date",
        "persons": ["Ethan"],
    },
    {
        "question": "Which instrument did Ethan learn chords on, and where does he photograph herons?",
        "reference": "The ukulele, at Miller Pond",
        "category": 1,
        "evidence": [72, 92],
        "prediction": "The ukulele, at Miller Pond",
        "reasoning": "One entry has Ethan learning ukulele chords and another has him photographing herons at Miller Pond.",
        "judge": 1.0,
        "alt_query": "Ethan ukulele chords herons Miller Pond",
        "persons": ["Ethan"],
    },
    {
        "question": "Who attended the jazz concert at the Blue Lantern, and what did that person brew?",
        "reference": "Maya, who brewed ginger kombucha",
        "category": 1,
        "evidence": [47, 87],
        "prediction": "Maya, who brewed ginger kombucha",
        "reasoning": "Maya attended the Blue Lantern jazz concert and brewed ginger kombucha.",
        "judge": 1.0,
        "alt_query": "Blue Lantern jazz concert attendee brewing",
        "persons": ["Maya"],
    },
    {
        "question": "Would Maya enjoy a weekend trip to a national park?",
        "reference": "Likely yes",
        "category": 3,
        "evidence": [57],
        "prediction": "No, she dislikes the outdoors",
        "reasoning": "No direct statement about national parks was found.",
        "judge": 0.0,
        "alt_query": "Maya outdoor activities hiking",
        "persons": ["Maya"],
    },
    {
        "question": "What color did Maya paint the kitchen?",
        "reference": "Pale sage green",
        "category": 3,
        "evidence": [77],
        "prediction": "Pale sage green",
        "reasoning": "An entry says Maya painted the kitchen a pale sage green.",
        "judge": 1.0,
        "alt_query": "Maya kitchen paint color",
        "persons": ["Maya"],
    },
]

FLIP_QUESTION = "Would Maya enjoy a weekend trip to a national park?"


def base_rules() -> list[dict]:
    rules = []
    # extraction replies, one sticky rule per window, anchored to the
    # window's opening line so overlapping windows cannot cross-match;
    # the windows are those ``segment`` cuts from the corpus main wrote
    for window in segment(load_corpus(DATA / "corpus.json"), SegmentationConfig()):
        entries = [fact_entry(t) for t in window.turn_ids if is_fact_turn(t)]
        rules.append({
            "contains": ["[Current Window Dialogues]\n[ID:%d]" % window.first_turn],
            "response": json.dumps(entries, indent=2),
            "sticky": True,
        })
    # profile synthesis, sticky per person
    for name, text in PROFILE_TEXT.items():
        rules.append({
            "contains": [f"Update the persona profile for {name.casefold()}"],
            "response": text,
            "sticky": True,
        })
    # per-question QA pipeline replies
    for q in QUESTIONS:
        question = q["question"]
        rules.append({
            "contains": ["determine what specific information is required",
                         f"Question: {question}"],
            "response": json.dumps({
                "question_type": "factual",
                "key_entities": q["persons"],
                "required_info": [{"info_type": "fact",
                                   "description": question,
                                   "priority": "high"}],
                "relationships": [],
                "minimal_queries_needed": 2,
            }),
            "sticky": True,
        })
        rules.append({
            "contains": ["targeted search queries",
                         f"Original Question: {question}"],
            "response": json.dumps({
                "reasoning": "One targeted query alongside the original.",
                "queries": [question, q["alt_query"]],
            }),
            "sticky": True,
        })
        rules.append({
            "contains": ["RULES FOR INFERENCE QUESTIONS", f"Question: {question}"],
            "response": json.dumps({
                "reasoning": q["reasoning"],
                "answer": q["prediction"],
            }),
            "sticky": True,
        })
    return rules


def judge_rules(flip: bool) -> list[dict]:
    rules = []
    for q in QUESTIONS:
        question = q["question"]
        matcher = ["Relevance & Accuracy Evaluator", f"Question: {question}"]
        if flip and question == FLIP_QUESTION:
            rules.append({
                "contains": matcher,
                "response": json.dumps({
                    "score": 0.0,
                    "reasoning": "Prediction contradicts the reference.",
                }),
                "sticky": False,
            })
            rules.append({
                "contains": matcher,
                "response": json.dumps({
                    "score": 1.0,
                    "reasoning": "Prediction now matches the reference.",
                }),
                "sticky": True,
            })
        else:
            rules.append({
                "contains": matcher,
                "response": json.dumps({
                    "score": q["judge"],
                    "reasoning": ("Core fact matches the reference."
                                  if q["judge"] >= 0.5 else
                                  "Prediction misses the core fact."),
                }),
                "sticky": True,
            })
    return rules


def gradient_rules() -> list[dict]:
    seeds = seed_prompts()
    rules = []
    for step, (ext_add, prof_add) in enumerate([
        ("\n9. Capture exact numeric details (dates, counts, durations) in every entry.",
         "\n- Note recurring weekend activities explicitly."),
        ("\n10. Record the location of every activity whenever one is stated.",
         "\n- Summarize each person's most frequent activity category."),
    ], 1):
        rules.append({
            "contains": ["backward pass"],
            "response": json.dumps({
                "rewritten_p_ext": seeds["extraction"] + ext_add,
                "rewritten_p_prof": seeds["profile"] + prof_add,
                "change_summary": f"Step {step}: tightened detail capture in the "
                                  f"extraction prompt and activity synthesis in the "
                                  f"profile prompt.",
            }),
            "sticky": False,
        })
    return rules


def write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def make_golden() -> None:
    """Freeze report.json by running build + eval through the CLI."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("corpus.json", "fixture.jsonl", "qa.jsonl"):
            shutil.copy(DATA / name, tmp / name)
        env_cmd = [sys.executable, "-m", "trimem.cli"]
        # run the checkout's engine, installed or not
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        subprocess.run(env_cmd + ["build", "--corpus", "corpus.json",
                                  "--store", "store", "--scripted", "fixture.jsonl"],
                       cwd=tmp, env=env, check=True, capture_output=True)
        subprocess.run(env_cmd + ["eval", "--store", "store", "--qa", "qa.jsonl",
                                  "--scripted", "fixture.jsonl", "--out", "eval"],
                       cwd=tmp, env=env, check=True, capture_output=True)
        shutil.copy(tmp / "eval" / "report.json", DATA / "golden_report.json")
        shutil.copy(tmp / "eval" / "detailed_results.jsonl",
                    DATA / "golden_detailed.jsonl")


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / "corpus.json").write_text(
        json.dumps(make_corpus(), indent=2) + "\n", encoding="utf-8")
    write_jsonl(DATA / "fixture.jsonl", base_rules() + judge_rules(flip=False))
    write_jsonl(DATA / "evolve_fixture.jsonl",
                base_rules() + judge_rules(flip=True) + gradient_rules())
    write_jsonl(DATA / "qa.jsonl", [
        {"question": q["question"], "reference": q["reference"],
         "category": q["category"], "evidence": q["evidence"]}
        for q in QUESTIONS
    ])
    make_golden()
    report = json.loads((DATA / "golden_report.json").read_text())
    print(json.dumps(report["overall"], indent=2))
    print("entry mean token cost:", report["overall"]["mean_token_cost"])


if __name__ == "__main__":
    main()
