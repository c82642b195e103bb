"""Core domain types shared across the toolkit.

Everything here is a plain immutable value type, built from input that a
reader in `formats` has checked; no I/O and no inference happens here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Mapping


QA_VERIFIED = "qa_verified"
SELF_RATED = "self_rated"

# A stored grade as the store decodes it: the key
# (query_id, passage_id, question_id, mode) maps to the row
# (answer_text, verified, rating).
GradeKey = tuple[str, str, str, str]
GradeRow = tuple[str | None, bool | None, int | None]

# Qrels: (query_id, passage_id) -> relevance, the trec_eval judgment map.
Qrels = dict[tuple[str, str], int]

# The leaderboard row that scores the pool of every system's passages.
OVERALL_SYSTEM = "_overall_"


class ContractViolation(ValueError):
    """An operation was called with arguments that break its contract."""


@dataclass(frozen=True)
class Facet:
    facet_id: str
    title: str


@dataclass(frozen=True)
class Query:
    query_id: str
    title: str
    facets: tuple[Facet, ...] = ()


@dataclass(frozen=True)
class ExamQuestion:
    question_id: str
    query_id: str
    text: str
    facet_id: str | None = None
    gold_answer: str | None = None

    @property
    def supports_verification(self) -> bool:
        return self.gold_answer is not None


@dataclass(frozen=True)
class QuestionBank:
    """Per-query ordered question sets.

    Question ids are unique across the whole bank, and every question's
    query_id matches the key it is filed under.
    """
    questions_by_query: dict[str, tuple[ExamQuestion, ...]]

    def questions_for(self, query_id: str) -> tuple[ExamQuestion, ...]:
        return self.questions_by_query.get(query_id, ())

    def all_questions(self) -> list[ExamQuestion]:
        return [q for qs in self.questions_by_query.values() for q in qs]

    def by_question_id(self) -> dict[str, ExamQuestion]:
        return {q.question_id: q for q in self.all_questions()}

    @property
    def query_ids(self) -> list[str]:
        return list(self.questions_by_query)


@dataclass(frozen=True)
class Run:
    """A system's ranked passage lists, one per query (TREC run semantics).

    `by_query` maps each query id to its passage ids in rank order; queries
    keep the mapping's order.
    """
    run_tag: str
    by_query: dict[str, list[str]]

    @property
    def query_ids(self) -> list[str]:
        return list(self.by_query)

    def top_k(self, query_id: str, k: int) -> list[str]:
        """The query's first k passage ids."""
        return self.by_query.get(query_id, [])[:k]


def check_grade(query_id: str, passage_id: str, question_id: str,
                mode: str, verified: bool | None, rating: int | None) -> None:
    """The rule for a grade's fields.

    The three ids are strings. A qa_verified grade carries a verdict and no
    rating; a self_rated grade carries a rating in [0, 5] and no verdict.
    Rows appended to the store and lines decoded from it are both checked
    here, so the store never holds a grade that reading rejects.
    """
    if not type(query_id) is type(passage_id) is type(question_id) is str:
        raise ContractViolation(
            "query_id, passage_id and question_id must be strings")
    if mode == QA_VERIFIED:
        if verified is None or rating is not None:
            raise ContractViolation(
                "qa_verified grade needs `verified` and no `rating`")
    elif mode == SELF_RATED:
        if rating is None or verified is not None:
            raise ContractViolation(
                "self_rated grade needs `rating` and no `verified`")
        if not 0 <= rating <= 5:
            raise ContractViolation(
                f"rating must be in [0, 5], got {rating}")
    else:
        raise ContractViolation(f"unknown grade mode {mode!r}")


@dataclass(frozen=True)
class GradePolicy:
    """What counts as a correctly answered question.

    min_rating applies only in self_rated mode; min_answers is the number of
    correct questions a passage needs for a positive binary label.
    """
    mode: str
    min_rating: int = 4
    min_answers: int = 1


def passes(outcome: bool | int, policy: GradePolicy) -> bool:
    """The pass rule: a qa_verified verdict passes when true, a self_rated
    rating when it reaches the policy's `min_rating`."""
    if policy.mode == QA_VERIFIED:
        return bool(outcome)
    return outcome >= policy.min_rating


def label_of(outcomes: Iterable[bool | int], policy: GradePolicy,
             graded: bool = False) -> int:
    """A passage's label from the outcomes of its counted questions.

    Binary: 1 iff at least `min_answers` outcomes pass. Graded, under a
    self_rated policy: the highest self-rating, 0 without one.
    """
    if graded:
        return max(outcomes, default=0)
    return 1 if n_passing(outcomes, policy) >= policy.min_answers else 0


def n_passing(outcomes: Iterable[bool | int], policy: GradePolicy) -> int:
    """How many outcomes pass; a binary label is 1 iff this reaches
    `min_answers`."""
    return sum(1 for o in outcomes if passes(o, policy))


class GradeIndex:
    """Grade outcomes of the policy's mode, by (query, passage) pair and
    question id, read under that policy.

    Metrics read grades through an index built once per command from
    decoded store rows (see `GradeRow`). Only each grade's outcome is kept:
    the verdict in qa_verified mode, the rating in self_rated mode. A pair
    is in the index when it has a grade in the mode. Lookups take the
    question ids that count, so grades of questions outside a bank are
    ignored.
    """

    def __init__(self, rows: Mapping[GradeKey, GradeRow], policy: GradePolicy):
        self.policy = policy
        mode = policy.mode
        slot = 1 if mode == QA_VERIFIED else 2
        by_pair: dict[tuple[str, str], dict[str, bool | int]] = {}
        for (query_id, passage_id, question_id, row_mode), row in rows.items():
            if row_mode == mode:
                by_question = by_pair.get((query_id, passage_id))
                if by_question is None:
                    by_question = by_pair[query_id, passage_id] = {}
                by_question[question_id] = row[slot]
        self._by_pair = by_pair

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._by_pair

    def pairs(self) -> list[tuple[str, str]]:
        """Every graded (query, passage) pair, sorted."""
        return sorted(self._by_pair)

    def question_ids(self) -> set[str]:
        """Every question with a grade for some pair."""
        return {qid for by_question in self._by_pair.values()
                for qid in by_question}

    def outcomes(self, query_id: str, passage_id: str,
                 question_ids: Container[str]) -> list[bool | int]:
        by_question = self._by_pair.get((query_id, passage_id), {})
        return [o for qid, o in by_question.items() if qid in question_ids]

    def graded_pairs(self, question_ids: Container[str]
                     ) -> list[tuple[str, str, list[bool | int]]]:
        """Each pair with a grade for one of the questions, sorted, with
        the outcomes of those questions."""
        out = []
        for query_id, passage_id in self.pairs():
            outcomes = self.outcomes(query_id, passage_id, question_ids)
            if outcomes:
                out.append((query_id, passage_id, outcomes))
        return out

    def correct(self, query_id: str, passage_id: str,
                question_ids: Container[str]) -> set[str]:
        """The questions the passage answers correctly under the policy."""
        by_question = self._by_pair.get((query_id, passage_id), {})
        policy = self.policy
        return {qid for qid, o in by_question.items()
                if qid in question_ids and passes(o, policy)}

    def label(self, query_id: str, passage_id: str,
              question_ids: Container[str]) -> int:
        """The pair's binary label over the given questions (see
        `label_of`)."""
        return label_of(self.outcomes(query_id, passage_id, question_ids),
                        self.policy)
