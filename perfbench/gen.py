"""Seeded synthetic inputs: corpora, fact entries and QA sets.

Everything here is a pure function of its seed. Turn texts follow one
template ("I <verb> the <object>[ with <partner>] at <place>.") so the
provider can extract facts from a rendered window the way a model would,
and so questions can name the objects and places their facts mention.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta

PERSONS = ("Ava", "Ben", "Chloe", "Dev", "Elena", "Farid", "Grace", "Hugo")
VERBS = ("visited", "repaired", "painted", "photographed", "cleaned", "borrowed",
         "sold", "bought", "sketched", "rented", "found", "built", "tested",
         "measured", "packed", "decorated", "delivered", "restored", "named",
         "shared")
ADJECTIVES = ("red", "old", "tiny", "wooden", "silver", "striped", "vintage",
              "folding", "green", "heavy", "quiet", "bright")
NOUNS = ("kayak", "bicycle", "telescope", "piano", "lantern", "canoe", "camera",
         "tent", "guitar", "clock", "kite", "easel", "drone", "sofa", "teapot",
         "violin", "scooter", "hammock", "compass", "radio")
PLACES = ("Cedar Ridge", "Harbor Museum", "Maple Park", "Blue Lantern",
          "Miller Pond", "Riverside Market", "Clayworks Studio", "Pine Hollow",
          "Stone Bridge", "Lakeshore Pier", "North Library", "Willow Farm",
          "Granite Hall", "Sunset Garage", "Orchard Lane", "Copper Mill")
CHITCHAT = ("That sounds lovely.", "How was your week?", "Nice to hear from you!",
            "I have been busy lately.", "Tell me more about it.",
            "Ha, that is funny.", "Thanks for asking.", "Same here, honestly.",
            "Let us catch up soon.", "Good luck with everything!")

START = datetime(2024, 1, 1, 9, 0, 0)


FACT_TURN = re.compile(r"^I (\w+) the (.+?)(?: with (\w+))? at (.+?)\.$")
RESTATEMENT = re.compile(
    r"^(\w+) (\w+) the (.+?)(?: with (\w+))? at (.+?) on (\d{4}-\d{2}-\d{2})\.$")


def parse_fact_turn(text: str):
    """(verb, object, partner or None, place) of a fact turn, else None."""
    m = FACT_TURN.match(text)
    return m.groups() if m else None


def fact_text(verb: str, obj: str, place: str, partner: str | None = None) -> str:
    with_part = f" with {partner}" if partner else ""
    return f"I {verb} the {obj}{with_part} at {place}."


def restatement(person: str, verb: str, obj: str, place: str, date: str,
                partner: str | None = None) -> str:
    with_part = f" with {partner}" if partner else ""
    return f"{person} {verb} the {obj}{with_part} at {place} on {date}."


def _object(rng: random.Random) -> str:
    return f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}"


def make_corpus_doc(seed: int, turns: int, session_turns: int = 20) -> dict:
    """A sessioned corpus document of about ``turns`` timestamped turns.

    Each session has 18-22 turns between two speakers drawn from the
    person pool; roughly half the turns state a fact.
    """
    rng = random.Random(seed)
    sessions, made, day = [], 0, 0
    while made < turns:
        n = min(turns - made, rng.randint(session_turns - 2, session_turns + 2))
        a, b = rng.sample(PERSONS, 2)
        day += rng.randint(1, 3)
        start = START + timedelta(days=day, minutes=rng.randint(0, 600))
        recs = []
        for i in range(n):
            speaker, other = (a, b) if i % 2 == 0 else (b, a)
            if rng.random() < 0.5:
                partner = other if rng.random() < 0.2 else None
                text = fact_text(rng.choice(VERBS), _object(rng),
                                 rng.choice(PLACES), partner)
            else:
                text = rng.choice(CHITCHAT)
            ts = (start + timedelta(minutes=i)).isoformat(timespec="seconds")
            recs.append({"speaker": speaker, "text": text, "timestamp": ts})
        sessions.append({"session_id": len(sessions), "turns": recs})
        made += n
    return {"corpus_id": f"bench-{seed}", "sessions": sessions}


@dataclass(frozen=True)
class Fact:
    person: str
    verb: str
    obj: str
    place: str
    date: str
    partner: str | None
    turn_id: int

    @property
    def text(self) -> str:
        return restatement(self.person, self.verb, self.obj, self.place,
                           self.date, self.partner)


def corpus_facts(doc: dict) -> list[Fact]:
    """Facts stated in a corpus document, in turn order (turn IDs from 1)."""
    facts, turn_id = [], 0
    for session in doc["sessions"]:
        for rec in session["turns"]:
            turn_id += 1
            parsed = parse_fact_turn(rec["text"])
            if parsed:
                verb, obj, partner, place = parsed
                facts.append(Fact(rec["speaker"], verb, obj, place,
                                  rec["timestamp"][:10], partner, turn_id))
    return facts


def make_entry_facts(seed: int, count: int, turns: int, batch: int = 20,
                     dup_share: float = 0.02) -> list[Fact]:
    """``count`` fact records anchored into ``turns`` turns.

    About ``dup_share`` of them repeat, byte for byte, a fact from an
    earlier batch of ``batch`` records, as a later ingestion window repeats
    a fact of the window before it; insert-time deduplication has work to
    do. A repeat inside one batch is not generated: the engine misaligns
    the vectors of the rest of such a batch (see ``selftest.py``).
    """
    rng = random.Random(seed)
    out: list[Fact] = []
    seen: set[str] = set()
    while len(out) < count:
        earlier = len(out) - len(out) % batch
        if earlier and rng.random() < dup_share:
            out.append(out[rng.randrange(earlier)])
            continue
        person = rng.choice(PERSONS)
        partner = rng.choice([p for p in PERSONS if p != person]) \
            if rng.random() < 0.2 else None
        date = (START + timedelta(days=rng.randrange(700))).date().isoformat()
        fact = Fact(person, rng.choice(VERBS), _object(rng), rng.choice(PLACES),
                    date, partner, rng.randint(1, turns))
        if fact.text in seen:
            continue
        seen.add(fact.text)
        out.append(fact)
    return out


def question_for(fact: Fact, kind: int) -> tuple[str, str, int]:
    """(question, reference, category) asking about one fact."""
    if kind == 0:
        return (f"Where was the {fact.obj} that {fact.person} {fact.verb}?",
                fact.place, 4)
    if kind == 1:
        return (f"When was the {fact.obj} that {fact.person} {fact.verb} "
                f"at {fact.place}?", fact.date, 2)
    if kind == 2:
        return (f"Which item was {fact.verb} by {fact.person} at {fact.place}?",
                f"the {fact.obj}", 3)
    return (f"Who was with {fact.person} when the {fact.obj} was {fact.verb}?",
            fact.partner, 1)


def make_questions(seed: int, facts: list[Fact], count: int) -> list[dict]:
    """``count`` distinct QA records over ``facts`` (evidence = source turn).

    The four question kinds take turns, so every run of consecutive
    questions has the same mix whatever the seed.
    """
    rng = random.Random(seed)
    out, seen = [], set()
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        fact = facts[rng.randrange(len(facts))]
        kind = len(out) % 4
        if kind == 3 and fact.partner is None:
            continue
        question, reference, category = question_for(fact, kind)
        if question in seen:
            continue
        seen.add(question)
        out.append({"question": question, "reference": reference,
                    "category": category, "evidence": [fact.turn_id]})
    return out
