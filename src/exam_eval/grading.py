"""Response grading: answer checking and self-rating.

Takes a question bank and a pool of passages, asks every exam question
against every pooled passage through the gateway, and records each outcome
as a grade-store row.
"""
from __future__ import annotations

import functools
import logging
import math
import re
import time
from dataclasses import dataclass, field

from . import gateway
from .formats import GradeStore
from .model import (
    ContractViolation,
    ExamQuestion,
    GradeKey,
    GradeRow,
    QA_VERIFIED,
    Qrels,
    QuestionBank,
    Run,
)
from .porter import stem
from .stopwords import STOPWORDS

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Answer verification


def normalize_answer(text: str) -> str:
    """Lowercase, drop stopwords, Porter-stem, rejoin with single spaces."""
    tokens = re.findall(r"[a-z0-9']+", text.lower())
    return " ".join(stem(t) for t in tokens if t not in STOPWORDS)


@functools.lru_cache(maxsize=1024)
def _gold_form(gold: str) -> str:
    """`normalize_answer` of a gold answer: one per question, not per pair."""
    return normalize_answer(gold)


def edit_distance_below(a: str, b: str, limit: float) -> bool:
    """Whether the character-level edit distance of a and b is below limit.

    A distance below limit is at most k = ceil(limit) - 1, and the cheapest
    edit path of cost k or less never leaves the band |i - j| <= k of the
    edit-distance table. So only the band is filled, a length gap over k
    fails at once, and the check stops at the first row whose band holds
    nothing at or below k: no later row can go lower.
    """
    k = math.ceil(limit) - 1
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if n - m > k:
        return False
    far = k + 1                 # any cell outside the band is at least this
    previous = [j if j <= k else far for j in range(m + 1)]
    for i, ca in enumerate(a, start=1):
        current = [far] * (m + 1)
        if i <= k:
            current[0] = i
        lo, hi = max(i - k, 1), min(i + k, m)
        best = left = current[lo - 1]
        for j in range(lo, hi + 1):
            cost = previous[j - 1] + (ca != b[j - 1])
            if previous[j] + 1 < cost:
                cost = previous[j] + 1
            if left + 1 < cost:
                cost = left + 1
            current[j] = left = cost
            if cost < best:
                best = cost
        if best > k:
            return False
        previous = current
    return previous[m] <= k


def verify_answer(predicted: str, gold: str) -> bool:
    """Fuzzy-match a predicted answer against the gold answer.

    Both sides are normalized; the match holds when the character-level edit
    distance is under 20% of the longer string's length. A gold answer that
    normalizes to nothing (all stopwords) falls back to the raw strings.
    """
    if not gold:
        raise ContractViolation("gold answer must be non-empty")
    a, b = normalize_answer(predicted), _gold_form(gold)
    if not b:
        a, b = predicted, gold
    longer = max(len(a), len(b))
    if longer == 0:
        return True
    return edit_distance_below(a, b, 0.2 * longer)


# ---------------------------------------------------------------------------
# Self-rating parsing


UNANSWERABLE_PHRASES = (
    "unanswerable",
    "no answe",
    "not enough information",
    "unknown",
    "it is not possible to tell",
    "it does not say",
    "no relevant information",
)

_STANDALONE_DIGIT = re.compile(r"(?<!\d)([0-5])(?!\d)")


def parse_self_rating(completion: str) -> int:
    """Map a self-rating completion to an integer rating in [0, 5].

    The first standalone digit 0-5 wins. Otherwise 0 for expressions of
    unanswerability, 1 by default. "no" only counts as a whole token so
    words like "normal" don't read as refusals.
    """
    match = _STANDALONE_DIGIT.search(completion)
    if match:
        return int(match.group(1))
    lowered = completion.lower()
    if any(p in lowered for p in UNANSWERABLE_PHRASES):
        return 0
    if re.search(r"\bno\b", lowered):
        return 0
    return 1


# ---------------------------------------------------------------------------
# Grading


@dataclass(frozen=True)
class SkipEntry:
    query_id: str
    passage_id: str
    question_id: str
    reason: str


@dataclass
class GradingSummary:
    graded: int = 0
    skipped_existing: int = 0
    failures: list[SkipEntry] = field(default_factory=list)
    duration: float = 0.0


def grade_pair(question: ExamQuestion, passage_id: str, text: str,
               mode: str, budget: int,
               backend: gateway.Backend) -> tuple[GradeKey, GradeRow]:
    """Grade one (question, passage) pair with a single completion request,
    as the store's key and row."""
    if mode == QA_VERIFIED:
        template_name, render = "qa", gateway.render_qa_prompt
    else:
        template_name = "self_rating"
        render = gateway.render_self_rating_prompt

    context = gateway.truncate_context(
        question.text, text, budget, template_name=template_name)
    prompt = render(question.text, context)
    request = gateway.CompletionRequest.of(
        prompt,
        query_id=question.query_id,
        question_id=question.question_id,
        passage_id=passage_id)
    answer = backend.complete(request).text

    key = (question.query_id, passage_id, question.question_id, mode)
    if mode == QA_VERIFIED:
        return key, (answer, verify_answer(answer, question.gold_answer), None)
    return key, (answer, None, parse_self_rating(answer))


def build_passage_pool(runs: list[Run], depth: int,
                       judgments: Qrels | None = None
                       ) -> dict[str, list[str]]:
    """Union of every run's top-`depth` passages plus judged passages.

    Returns query_id -> deduplicated passage ids in first-seen order. This
    is the pool that `grade` grades and the leaderboard's `_overall_` row
    scores.
    """
    # Dicts as insertion-ordered sets: re-adding a key keeps its place.
    pool: dict[str, dict[str, None]] = {}
    for run in runs:
        for query_id in run.query_ids:
            for passage_id in run.top_k(query_id, depth):
                pool.setdefault(query_id, {})[passage_id] = None
    for query_id, passage_id in judgments or ():
        pool.setdefault(query_id, {})[passage_id] = None
    return {query_id: list(pids) for query_id, pids in pool.items()}


def grade_corpus(bank: QuestionBank,
                 passages_by_query: dict[str, dict[str, str]],
                 mode: str,
                 store: GradeStore,
                 backend: gateway.Backend,
                 budget: int,
                 parallelism: int) -> GradingSummary:
    """Grade every (question, passage) pair and append results to the store.

    `passages_by_query` maps each query id to its passages' texts by id.
    Resumable: pairs already present in the store are not re-requested.
    Backend failures, the pairs of a question too long for the input
    budget, and in qa_verified mode the pairs of a question without a gold
    answer land in the summary's skip list instead of aborting the whole
    corpus.
    """
    existing = store.read()
    summary = GradingSummary()
    start = time.monotonic()

    work: list[tuple[ExamQuestion, str, str]] = []
    for query_id, texts in passages_by_query.items():
        for question in bank.questions_for(query_id):
            for passage_id, text in texts.items():
                if (query_id, passage_id, question.question_id,
                        mode) in existing:
                    summary.skipped_existing += 1
                else:
                    work.append((question, passage_id, text))

    def run_one(item: tuple[ExamQuestion, str, str]
                ) -> tuple[GradeKey, GradeRow] | SkipEntry:
        question, passage_id, text = item
        if mode == QA_VERIFIED and not question.supports_verification:
            return SkipEntry(question.query_id, passage_id,
                             question.question_id, "no gold answer")
        try:
            return grade_pair(question, passage_id, text, mode, budget,
                              backend)
        except (gateway.BackendError, gateway.BudgetExceeded) as exc:
            return SkipEntry(question.query_id, passage_id,
                             question.question_id, str(exc))

    results = gateway.map_ordered(run_one, work, parallelism)

    rows = dict(r for r in results if not isinstance(r, SkipEntry))
    summary.failures = [r for r in results if isinstance(r, SkipEntry)]
    if rows:
        store.append(rows)
    summary.graded = len(rows)
    summary.duration = time.monotonic() - start
    if summary.failures:
        log.warning("%d grading pairs failed and were skip-logged",
                    len(summary.failures))
    return summary
