"""Seeded synthetic inputs for the three workloads.

`build(workload, size, seed)` draws everything a run needs from one
`random.Random` seeded with the three; `Case.write(directory)` writes the
files the program reads. The expected grades are fixed here by construction, so the oracle
never asks the program what the right answer is.
"""
from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import script

WORKLOADS = ("scoring-large", "grading-http", "grading-qa-cpu")

# Shares of the scripted qa answers: exact, upper case, an added stopword,
# a plural; half the words replaced (an edit distance far over 20%); and a
# word sharing no character with the gold answer.
ANSWER_WEIGHTS = (("exact", 0.02), ("case", 0.02), ("stopword", 0.02),
                  ("plural", 0.02), ("half", 0.04), ("wrong", 0.88))
# Share of the pre-built store's keys that carry a stale earlier grade.
SUPERSEDED_SHARE = 0.03
# Share of each system's top `depth` that is common to all systems.
SHARED = 0.5
VERIFYING_KINDS = ("exact", "case", "stopword", "plural")

# Gold answers use letters a-m only and wrong answers letters n-x only, so a
# wrong answer shares no character with its gold answer.
GOLD_CONSONANTS, GOLD_VOWELS = "bcdfghjklm", "aei"
WRONG_CONSONANTS, WRONG_VOWELS = "npqrstvwx", "ou"
TEXT_CONSONANTS, TEXT_VOWELS = "bcdfghklmnprstvz", "aeiou"

BRACES_TEXT = ("Configuration blocks such as {config} and {model_name} are "
               "copied verbatim from the source file into this passage.")


@dataclass(frozen=True)
class Shape:
    queries: int
    facets: int
    questions_per_facet: int
    systems: int
    run_length: int
    depth: int
    passage_tokens: tuple[int, int]
    max_input_tokens: int
    backend: str                # "mock" or "http"
    mode: str                   # "rate" or "qa"
    # Queries ranked by a newly submitted system, graded into an empty
    # store; when non-zero, scoring reads a pre-built store.
    fresh_queries: int = 0
    latency_ms: float = 0.0
    # How often an operation runs in each round (default once): light
    # operations repeat so that their medians rest on enough samples.
    repeats: tuple[tuple[str, int], ...] = ()

    @property
    def prebuilt_store(self) -> bool:
        return self.fresh_queries > 0

    @property
    def policy(self) -> str:
        return "rate:4" if self.mode == "rate" else "qa"


SCORING_OPS = ("resume", "cover", "qrels", "qrels_graded",
               "leaderboard_cover", "leaderboard_p_at_k", "agreement", "diff")


def each(ops, times: int) -> tuple[tuple[str, int], ...]:
    return tuple((op, times) for op in ops)


SHAPES = {
    "full": {
        # The measured 40 systems × 50 queries × 1,000-deep runs at depth 20
        # with 10 questions, scaled to fit a run: queries and depth kept,
        # run length and questions halved together (Run.top_k against the
        # store read stays as measured), systems cut to 4 (README.md).
        "scoring-large": Shape(
            queries=50, facets=5, questions_per_facet=1, systems=4,
            run_length=500, depth=20, passage_tokens=(12, 30),
            max_input_tokens=512, backend="mock", mode="rate",
            fresh_queries=3,
            repeats=each(("generate", "grade"), 8) + each(
                ("cover", "qrels", "qrels_graded", "agreement", "diff"), 2)),
        "grading-http": Shape(
            queries=4, facets=3, questions_per_facet=2, systems=3,
            run_length=12, depth=6, passage_tokens=(12, 30),
            max_input_tokens=512, backend="http", mode="rate",
            latency_ms=10.0,
            repeats=each(SCORING_OPS, 6)),
        "grading-qa-cpu": Shape(
            queries=8, facets=2, questions_per_facet=4, systems=3,
            run_length=40, depth=10, passage_tokens=(400, 700),
            max_input_tokens=128, backend="mock", mode="qa",
            repeats=each(("generate", "grade", *SCORING_OPS), 2)),
    },
    "smoke": {
        "scoring-large": Shape(
            queries=4, facets=2, questions_per_facet=2, systems=4,
            run_length=30, depth=6, passage_tokens=(8, 16),
            max_input_tokens=512, backend="mock", mode="rate",
            fresh_queries=2,
            repeats=each(("generate", "grade"), 2)),
        "grading-http": Shape(
            queries=3, facets=2, questions_per_facet=2, systems=3,
            run_length=8, depth=4, passage_tokens=(8, 16),
            max_input_tokens=512, backend="http", mode="rate",
            latency_ms=1.0,
            repeats=each(SCORING_OPS, 2)),
        "grading-qa-cpu": Shape(
            queries=3, facets=2, questions_per_facet=2, systems=3,
            run_length=10, depth=4, passage_tokens=(200, 300),
            max_input_tokens=128, backend="mock", mode="qa",
            repeats=each(("generate", *SCORING_OPS), 2)),
    },
}


@dataclass
class Question:
    question_id: str
    query_id: str
    text: str
    facet_id: str | None
    gold_answer: str | None = None


@dataclass
class Case:
    """Everything one run feeds the program, and what it must answer."""
    workload: str
    shape: Shape
    seed: int
    queries: list[tuple[str, str, list[tuple[str, str]]]]
    generated: dict[str, list[Question]]     # what `generate` must write
    bank: dict[str, list[Question]]          # bank the grades refer to
    revised: dict[str, list[Question]]       # new side of `diff`
    runs: dict[str, dict[str, list[str]]]    # tag -> query -> ranked ids
    passages: dict[str, str]
    # (query, passage, question) -> rating (rate) or verdict (qa) of every
    # grade the scoring commands read.
    grades: dict[tuple[str, str, str], int | bool]
    official: list[tuple[str, str, int]]
    official_ranks: dict[str, int]
    new_run: dict[str, list[str]] = field(default_factory=dict)
    # Expected grades of the `grade` run on an empty store.
    fresh_grades: dict[tuple[str, str, str], int | bool] = field(
        default_factory=dict)
    mock_answers: dict[str, str] = field(default_factory=dict)
    # Pre-built store only: keys regraded after a stale first grade.
    superseded: dict[tuple[str, str, str], int] = field(default_factory=dict)
    braces: dict = field(default_factory=dict)

    @property
    def generation_prompts(self) -> int:
        return sum(len(facets) for _, _, facets in self.queries)

    # -- files ---------------------------------------------------------------

    def write(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        (root / "queries.json").write_text(json.dumps([
            {"query_id": qid, "title": title,
             "facets": [{"facet_id": f, "title": t} for f, t in facets]}
            for qid, title, facets in self.queries]))
        if self.shape.backend == "mock":
            fixture = {
                f"{qid}/{fid}": script.question_list(
                    title, ftitle, self.shape.questions_per_facet)
                for qid, title, facets in self.queries
                for fid, ftitle in facets}
            (root / "gen_fixture.json").write_text(json.dumps(fixture))
            (root / "grade_fixture.json").write_text(
                json.dumps(self.mock_answers))
            (root / "bank.json").write_text(bank_json(self.bank))
        (root / "bank_rev.json").write_text(bank_json(self.revised))
        write_runs(root / "runs", self.runs)
        if self.new_run:
            write_runs(root / "new_run", {"sysnew": self.new_run})
        (root / "passages.json").write_text(json.dumps(self.passages))
        if self.shape.prebuilt_store:
            write_store(root / "store.jsonl.gz", self.grades,
                        self.superseded)
        (root / "official.qrels").write_text("".join(
            f"{q} 0 {p} {g}\n" for q, p, g in self.official))
        (root / "official_ranks.json").write_text(
            json.dumps(self.official_ranks))
        if self.braces:
            b = root / "braces"
            b.mkdir(exist_ok=True)
            (b / "bank.json").write_text(bank_json(self.braces["bank"]))
            write_runs(b / "runs", {"sysbraces": self.braces["run"]})
            (b / "passages.json").write_text(
                json.dumps(self.braces["passages"]))
            (b / "fixture.json").write_text(
                json.dumps(self.braces["answers"]))


def bank_json(bank: dict[str, list[Question]]) -> str:
    return json.dumps({"queries": [
        {"query_id": qid, "questions": [
            {"question_id": q.question_id, "text": q.text,
             "facet_id": q.facet_id, "gold_answer": q.gold_answer}
            for q in questions]}
        for qid, questions in bank.items()]}, indent=1)


def write_runs(directory: Path, runs: dict[str, dict[str, list[str]]]
               ) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for tag, by_query in runs.items():
        lines = []
        for qid, ranked in by_query.items():
            n = len(ranked)
            for rank, pid in enumerate(ranked, start=1):
                lines.append(f"{qid} Q0 {pid} {rank} {n - rank + 1:.3f} {tag}\n")
        (directory / f"{tag}.run").write_text("".join(lines))


def write_store(path: Path, grades: dict[tuple[str, str, str], int],
                superseded: dict[tuple[str, str, str], int]) -> None:
    """A self-rated grade store in the documented gzip JSON-lines format.
    A superseded key gets an earlier line with its stale rating, which the
    later line must override on read."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for key, rating in grades.items():
            for value in ((superseded[key], rating) if key in superseded
                          else (rating,)):
                qid, pid, question_id = key
                fh.write(json.dumps({
                    "mode": "self_rated", "rating": value, "verified": None,
                    "answer_text": str(value), "query_id": qid,
                    "passage_id": pid, "question_id": question_id},
                    sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Generation


class _Words:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def word(self, consonants: str, vowels: str, syllables: int) -> str:
        return "".join(self.rng.choice(consonants) + self.rng.choice(vowels)
                       for _ in range(syllables))

    def text(self, n: int) -> str:
        return " ".join(self.word(TEXT_CONSONANTS, TEXT_VOWELS,
                                  self.rng.randint(1, 4)) for _ in range(n))

    def gold(self) -> str:
        return " ".join(self.word(GOLD_CONSONANTS, GOLD_VOWELS,
                                  self.rng.randint(3, 4))
                        for _ in range(self.rng.randint(3, 4)))

    def wrong(self, length: int) -> str:
        return self.word(WRONG_CONSONANTS, WRONG_VOWELS, max(4, length // 2))


def scripted_answer(kind: str, gold: str, rng: random.Random,
                    words: _Words) -> str:
    parts = gold.split()
    if kind == "exact":
        return gold
    if kind == "case":
        return gold.upper()
    if kind == "stopword":
        at = rng.randint(1, len(parts) - 1)
        return " ".join(parts[:at] + ["the"] + parts[at:])
    if kind == "plural":
        return " ".join(parts[:-1] + [parts[-1] + "s"])
    if kind == "half":
        swap = set(rng.sample(range(len(parts)), (len(parts) + 1) // 2))
        return " ".join(words.wrong(len(w)) if i in swap else w
                        for i, w in enumerate(parts))
    return words.wrong(len(gold))


def _rank_lists(rng: random.Random, shape: Shape, qid: str,
                shared: list[str], tag: str) -> list[str]:
    """One system's ranking: the query's shared passages at random places
    in its top `depth`, its own passages in the other places, then
    unpooled passages down to `run_length`."""
    top: list[str | None] = [None] * shape.depth
    order = rng.sample(shared, len(shared))
    for pos, pid in zip(sorted(rng.sample(range(shape.depth), len(shared))),
                        order):
        top[pos] = pid
    own = (f"{qid}-{tag}-{n:03d}" for n in range(shape.depth))
    top = [pid or next(own) for pid in top]
    deep = rng.sample(range(100000), shape.run_length - shape.depth)
    return top + [f"{qid}-x{n:05d}" for n in deep]


def pool_of(runs, depth: int) -> dict[str, list[str]]:
    """Union of every run's top-depth ids, per query, first-seen order."""
    pool: dict[str, list[str]] = {}
    for tag in sorted(runs):
        for qid, ranked in runs[tag].items():
            seen = pool.setdefault(qid, [])
            for pid in ranked[:depth]:
                if pid not in seen:
                    seen.append(pid)
    return pool


def build(workload: str, size: str, seed: int) -> Case:
    shape = SHAPES[size][workload]
    rng = random.Random(f"{workload}/{size}/{seed}")
    words = _Words(rng)

    queries = []
    for i in range(shape.queries):
        qid = f"q{i:03d}"
        facets = [(f"f{j}", words.text(2)) for j in range(shape.facets)]
        queries.append((qid, words.text(3), facets))

    generated = {
        qid: [Question(f"{qid}/{fid}/{k}", qid, text, fid)
              for fid, ftitle in facets
              for k, text in enumerate(script.scripted_questions(
                  title, ftitle, shape.questions_per_facet))]
        for qid, title, facets in queries}

    if shape.backend == "http":
        bank = generated
    else:
        bank = {}
        for qid, title, facets in queries:
            bank[qid] = [
                Question(f"{qid}/{fid}/{k}", qid,
                         f"What {words.text(2)} follows from {ftitle} "
                         f"in case {k}?", fid,
                         words.gold() if shape.mode == "qa" else None)
                for fid, ftitle in facets
                for k in range(shape.questions_per_facet)]

    runs: dict[str, dict[str, list[str]]] = {}
    n_shared = round(shape.depth * SHARED)
    shared = {qid: [f"{qid}-s{n:03d}" for n in range(n_shared)]
              for qid, _, _ in queries}
    for s in range(shape.systems):
        tag = f"sys{s:02d}"
        runs[tag] = {qid: _rank_lists(rng, shape, qid, shared[qid], tag)
                     for qid, _, _ in queries}
    pool = pool_of(runs, shape.depth)

    new_run: dict[str, list[str]] = {}
    if shape.fresh_queries:
        for qid, _, _ in queries[:shape.fresh_queries]:
            new_run[qid] = _rank_lists(rng, shape, qid, shared[qid], "new")

    passages = {}
    for pids in pool_of({**runs, "sysnew": new_run}, shape.depth).values():
        for pid in pids:
            passages[pid] = words.text(rng.randint(*shape.passage_tokens))

    grades: dict[tuple[str, str, str], int | bool] = {}
    mock_answers: dict[str, str] = {}
    for qid, pids in pool.items():
        for pid in pids:
            for q in bank[qid]:
                key = (qid, pid, q.question_id)
                if shape.backend == "http":
                    grades[key] = script.scripted_rating(
                        seed, q.text, passages[pid])
                elif shape.mode == "qa":
                    kind = rng.choices(*zip(*ANSWER_WEIGHTS))[0]
                    mock_answers[f"{q.question_id}/{pid}"] = scripted_answer(
                        kind, q.gold_answer, rng, words)
                    grades[key] = kind in VERIFYING_KINDS
                else:
                    grades[key] = script.rating_from(rng.randrange(1000))

    fresh_grades = dict(grades)
    superseded: dict[tuple[str, str, str], int] = {}
    if shape.prebuilt_store:
        # The newly submitted system is graded through the mock backend,
        # which answers every question with one scripted digit.
        digits = {q.question_id: script.rating_from(rng.randrange(1000))
                  for qs in bank.values() for q in qs}
        mock_answers = {qid: str(d) for qid, d in digits.items()}
        fresh_grades = {(qid, pid, q.question_id): digits[q.question_id]
                        for qid, ranked in new_run.items()
                        for pid in ranked[:shape.depth] for q in bank[qid]}
        superseded = {key: (value + 3) % 6 for key, value in grades.items()
                      if rng.random() < SUPERSEDED_SHARE}
    official = _official(rng, shape, runs, pool, bank, grades)
    systems = list(runs)
    rng.shuffle(systems)
    official_ranks = {tag: r for r, tag in enumerate(systems, start=1)}

    revised = _revise(rng, bank, words, shape)
    case = Case(workload=workload, shape=shape, seed=seed, queries=queries,
                generated=generated, bank=bank, revised=revised, runs=runs,
                passages=passages, grades=grades, official=official,
                official_ranks=official_ranks, new_run=new_run,
                fresh_grades=fresh_grades, mock_answers=mock_answers,
                superseded=superseded)
    if shape.mode == "qa":
        case.braces = _braces_case(rng, words)
    return case


def _official(rng, shape, runs, pool, bank, grades):
    """Official judgments: part of the pool plus a few unpooled passages."""
    official = []
    for qid, pids in pool.items():
        judged = rng.sample(pids, max(1, len(pids) // 2))
        for pid in sorted(judged):
            values = [grades[(qid, pid, q.question_id)] for q in bank[qid]]
            if shape.mode == "qa":
                base = min(3, sum(values))
            else:
                base = max(0, max(values) - 2)
            official.append((qid, pid, max(0, min(3, base + rng.choice(
                (-1, 0, 0, 1))))))
        deep = runs[sorted(runs)[0]][qid][shape.depth:]
        for pid in rng.sample(deep, min(2, len(deep))):
            official.append((qid, pid, rng.randint(0, 3)))
    return official


def _revise(rng, bank, words, shape):
    """A revised bank: removals in some queries, edits and additions in
    others, so removal flips never depend on how edits are treated."""
    revised = {qid: list(qs) for qid, qs in bank.items()}
    qids = list(bank)
    rng.shuffle(qids)
    n = max(1, len(qids) // 5)
    for qid in qids[:n]:
        drop = rng.sample(range(len(revised[qid])),
                          min(2, len(revised[qid]) - 1))
        revised[qid] = [q for i, q in enumerate(revised[qid])
                        if i not in drop]
    for qid in qids[n:2 * n]:
        edit = rng.randrange(len(revised[qid]))
        old = revised[qid][edit]
        revised[qid][edit] = Question(old.question_id, qid,
                                      old.text[:-1] + " today?",
                                      old.facet_id, old.gold_answer)
        fid = old.facet_id
        revised[qid].append(Question(
            f"{qid}/{fid}/{shape.questions_per_facet}", qid,
            f"Which {words.text(2)} matters most?", fid,
            words.gold() if shape.mode == "qa" else None))
    return revised


def _braces_case(rng, words):
    """One passage whose text contains `{braces}`, graded in its own store."""
    qid, pid = "qbraces", "qbraces-d000"
    questions = [Question(f"{qid}/q/{k}", qid, f"What does block {k} hold?",
                          None, words.gold()) for k in range(2)]
    answers, verdicts = {}, {}
    for i, q in enumerate(questions):
        kind = "exact" if i == 0 else "wrong"
        answers[f"{q.question_id}/{pid}"] = scripted_answer(
            kind, q.gold_answer, rng, words)
        verdicts[(qid, pid, q.question_id)] = kind in VERIFYING_KINDS
    return {"bank": {qid: questions}, "run": {qid: [pid]},
            "passages": {pid: BRACES_TEXT}, "answers": answers,
            "grades": verdicts}
