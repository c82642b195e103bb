"""Core domain types shared across the toolkit.

Everything here is a plain immutable value type, built from input that a
reader in `formats` has checked; no I/O and no inference happens here.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Mapping


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


class BackendError(RuntimeError):
    """A completion could not be obtained after all retries."""


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
                mode: str, answer_text: str | None, verified: bool | None,
                rating: int | None) -> None:
    """The rule for a grade's fields, taken in the store's field order.

    The three ids are strings and the answer text is a string or None. A
    qa_verified grade carries a bool verdict and no rating; a self_rated
    grade carries an int rating in [0, 5] (a bool is not a rating) and no
    verdict. Rows appended to the store and lines decoded from it are both
    checked here, so the store never holds a grade that reading rejects.
    """
    if not type(query_id) is type(passage_id) is type(question_id) is str:
        raise ContractViolation(
            "query_id, passage_id and question_id must be strings")
    if answer_text is not None and type(answer_text) is not str:
        raise ContractViolation(
            f"answer_text must be a string or null, got {answer_text!r}")
    if mode == QA_VERIFIED:
        if verified is None or rating is not None:
            raise ContractViolation(
                "qa_verified grade needs `verified` and no `rating`")
        if type(verified) is not bool:
            raise ContractViolation(
                f"verified must be true or false, got {verified!r}")
    elif mode == SELF_RATED:
        if rating is None or verified is not None:
            raise ContractViolation(
                "self_rated grade needs `rating` and no `verified`")
        if type(rating) is not int:
            raise ContractViolation(
                f"rating must be an integer, got {rating!r}")
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


def passes(policy: GradePolicy) -> Callable[[bool | int], bool]:
    """The pass rule, as a predicate on an outcome: a qa_verified verdict
    passes when true, a self_rated rating when it reaches the policy's
    `min_rating`. The predicate is a builtin, so that mapping it over
    outcomes makes no Python call per outcome; a rating is an int, as
    `check_grade` has it."""
    if policy.mode == QA_VERIFIED:
        return bool
    return policy.min_rating.__le__


class GradeIndex:
    """The grades that count under a policy, by (query, passage) pair and
    question id.

    Metrics read grades through an index built once per command from
    decoded store rows (see `GradeRow`) and the bank being scored, kept as
    `bank`. A grade counts when it is of the policy's mode and its question
    is in the bank under the grade's own query; every other grade counts
    nowhere. Only a counted grade's outcome is kept: the verdict in
    qa_verified mode, the rating in self_rated mode. A pair is in the index
    when it has a counted grade. `uncounted` maps why a grade does not
    count to how many do not, in this order: of the other mode, of a
    question not in the bank, and of a question the bank files under
    another query.
    """

    def __init__(self, rows: Mapping[GradeKey, GradeRow], policy: GradePolicy,
                 bank: QuestionBank):
        self.policy = policy
        self.bank = bank
        mode = policy.mode
        slot = 1 if mode == QA_VERIFIED else 2
        query_of = {q.question_id: q.query_id for q in bank.all_questions()}
        by_pair: dict[tuple[str, str], dict[str, bool | int]] = {}
        reasons = (f"not {mode}", "of a question not in the bank",
                   "of a question the bank files under another query")
        self.uncounted = uncounted = dict.fromkeys(reasons, 0)
        for (query_id, passage_id, question_id, row_mode), row in rows.items():
            if row_mode == mode and query_of.get(question_id) == query_id:
                by_question = by_pair.get((query_id, passage_id))
                if by_question is None:
                    by_question = by_pair[query_id, passage_id] = {}
                by_question[question_id] = row[slot]
            else:
                reason = reasons[0 if row_mode != mode else
                                 1 if question_id not in query_of else 2]
                uncounted[reason] += 1
        self._by_pair = by_pair
        self._passes = passes(policy)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._by_pair

    def pairs(self) -> list[tuple[str, str]]:
        """Every pair with a counted grade, sorted."""
        return sorted(self._by_pair)

    def question_ids(self) -> set[str]:
        """Every question with a counted grade for some pair."""
        return {qid for by_question in self._by_pair.values()
                for qid in by_question}

    def correct(self, query_id: str, passage_id: str) -> set[str]:
        """The questions the passage answers correctly under the policy."""
        by_question = self._by_pair.get((query_id, passage_id), {})
        return set(compress(by_question,
                            map(self._passes, by_question.values())))

    def n_correct(self, query_id: str, passage_id: str) -> int:
        """How many questions the passage answers correctly under the
        policy."""
        return sum(map(self._passes,
                       self._by_pair.get((query_id, passage_id), {}).values()))

    def label(self, query_id: str, passage_id: str,
              graded: bool = False) -> int:
        """The pair's label. Binary: 1 iff it answers at least the policy's
        `min_answers` questions correctly. Graded, under a self_rated
        policy: the highest self-rating, 0 without one."""
        if graded:
            by_question = self._by_pair.get((query_id, passage_id))
            return max(by_question.values()) if by_question else 0
        return int(self.n_correct(query_id, passage_id)
                   >= self.policy.min_answers)
