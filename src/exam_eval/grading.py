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
from typing import Callable

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


_TOKEN = re.compile(r"[a-z0-9']+")


def normalize_answer(text: str) -> str:
    """Lowercase, drop stopwords, Porter-stem, rejoin with single spaces."""
    tokens = _TOKEN.findall(text.lower())
    return " ".join(stem(t) for t in tokens if t not in STOPWORDS)


@functools.lru_cache(maxsize=1024)
def _gold_form(gold: str) -> str:
    """`normalize_answer` of a gold answer: one per question, not per pair."""
    return normalize_answer(gold)


def edit_distance_below(a: str, b: str, limit: float) -> bool:
    """Whether the character-level edit distance of a and b is below limit.

    A distance below limit is at most k = ceil(limit) - 1, so a length gap
    over k fails at once.

    Before any distance is computed, the bag distance max(|A - B|, |B - A|)
    of the two strings' character multisets A and B settles most pairs: an
    insertion, deletion or substitution changes each side of the multiset
    difference by at most one, so the bag distance never exceeds the edit
    distance, and a bag distance over k fails at once (Bartolini, Ciaccia &
    Patella, SPIRE 2002). With a the longer string, |A - B| - |B - A| =
    |a| - |b| >= 0, so the bag distance is |A - B|.

    The distance itself comes from the bit-parallel form of the
    edit-distance table (Myers, "A fast bit-vector algorithm for
    approximate string matching based on dynamic programming", J. ACM
    46(3), 1999), in the global-distance form that Hyyrö explains
    ("Explaining and extending the bit-parallel approximate string matching
    algorithm of Myers", 2001). The table has a row per character of b, the
    shorter string, and a column per character of a. A column is held as
    two bit vectors over its m rows: pv marks the rows whose value is one
    more than the row above, mv those one less. Reading the next character
    of a derives the horizontal steps ph and mh from them with a few integer
    operations, and from those the next column; Python's ints hold vectors
    of any m. The carry of 1 shifted into ph is the first row's step,
    D[0][j] = j, which makes the distance global rather than the best match
    of b inside a. The last row's value, `score`, moves with the top bit of
    ph and mh. Each character of a still to read can lower it by at most
    one, so the check fails once score exceeds k by more than that count.
    Bits above row m only ever carry upward, so masking pv to m rows changes
    no answer; it stops the vectors from growing by a bit per character.
    """
    k = math.ceil(limit) - 1
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if n - m > k:
        return False
    bag_distance = 0
    for c in set(a):
        extra = a.count(c) - b.count(c)
        if extra > 0:
            bag_distance += extra
            if bag_distance > k:
                return False
    if not m:
        return n <= k
    peq: dict[str, int] = {}        # character -> the rows of b it is in
    bit = 1
    for c in b:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask, top = bit - 1, bit >> 1
    pv, mv, score = mask, 0, m
    remaining = n
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        remaining -= 1
        if score - remaining > k:
            return False
        ph = ph << 1 | 1
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return score <= k


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
    if a == b:                  # distance 0: a match, two empty ones too
        return True
    return edit_distance_below(a, b, 0.2 * max(len(a), len(b)))


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
_NO = re.compile(r"\bno\b")


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
    if _NO.search(lowered):
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


def renderer(mode: str) -> Callable[[str, str], str]:
    """The prompt renderer of a grading mode."""
    return (gateway.render_qa_prompt if mode == QA_VERIFIED
            else gateway.render_self_rating_prompt)


def grade_pair(question: ExamQuestion, passage_id: str, text: str,
               mode: str, budget: int, backend: gateway.Backend,
               split: gateway.ContextSplit | None = None
               ) -> tuple[GradeKey, GradeRow]:
    """Grade one (question, passage) pair with a single completion request,
    as the store's key and row. `split`, if given, is the passage's
    `gateway.split_context` shared by the questions of its query."""
    render = renderer(mode)
    context = gateway.truncate_context(question.text, text, budget, render,
                                       split)
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
    corpus. The store is locked (`GradeStore.locked`) before it is read, so
    a store that cannot be written fails before any completion is requested.
    """
    def sendable(question: ExamQuestion) -> bool:
        return mode != QA_VERIFIED or question.supports_verification

    def run_one(item: tuple[ExamQuestion, str, str, gateway.ContextSplit]
                ) -> tuple[GradeKey, GradeRow] | SkipEntry:
        question, passage_id, text, split = item
        if not sendable(question):
            return SkipEntry(question.query_id, passage_id,
                             question.question_id, "no gold answer")
        try:
            return grade_pair(question, passage_id, text, mode, budget,
                              backend, split)
        except (gateway.BackendError, gateway.BudgetExceeded) as exc:
            return SkipEntry(question.query_id, passage_id,
                             question.question_id, str(exc))

    with store.locked():
        existing = store.read()
        summary = GradingSummary()
        start = time.monotonic()

        # Each passage is split once per query, at the smallest context
        # allowance of the questions sent with it, and every question
        # finishes its own cut from that split (`gateway.truncate_context`).
        work: list[tuple[ExamQuestion, str, str, gateway.ContextSplit]] = []
        for query_id, texts in passages_by_query.items():
            missing = []
            for question in bank.questions_for(query_id):
                for passage_id in texts:
                    if (query_id, passage_id, question.question_id,
                            mode) in existing:
                        summary.skipped_existing += 1
                    else:
                        missing.append((question, passage_id))
            low = gateway.smallest_allowance(
                (question.text for question, _ in missing
                 if sendable(question)), budget, renderer(mode))
            splits: dict[str, gateway.ContextSplit] = {}
            for question, passage_id in missing:
                text = texts[passage_id]
                if passage_id not in splits:
                    splits[passage_id] = gateway.split_context(text, low)
                work.append((question, passage_id, text, splits[passage_id]))

        results = gateway.map_ordered(run_one, work, parallelism)

        rows = dict(r for r in results if not isinstance(r, SkipEntry))
        summary.failures = [r for r in results if isinstance(r, SkipEntry)]
        store.append(rows)
    summary.graded = len(rows)
    summary.duration = time.monotonic() - start
    if summary.failures:
        log.warning("%d grading pairs failed and were skip-logged",
                    len(summary.failures))
    return summary
