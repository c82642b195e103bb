"""Evaluation metrics: coverage scoring, derived qrels, leaderboards,
rank correlations, and inter-annotator agreement tables.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from . import grading
from .model import (
    ContractViolation,
    GradeIndex,
    OVERALL_SYSTEM,
    Qrels,
    Run,
    SELF_RATED,
)

log = logging.getLogger(__name__)


class UndefinedResult(ValueError):
    """The requested statistic is undefined for this input."""


# ---------------------------------------------------------------------------
# Coverage score


def exam_cover(passages_by_query: dict[str, list[str]],
               index: GradeIndex) -> dict[str, float]:
    """Per query with questions in the index's bank, the share of them that
    its pooled passages (a run's top k, or the union of several runs')
    answer correctly.

    A passage without a counted grade answers nothing; their number is
    logged as a coverage gap.
    """
    bank = index.bank
    per_query: dict[str, float] = {}
    gaps = 0
    for query_id in bank.query_ids:
        n_questions = len(bank.questions_for(query_id))
        if not n_questions:
            continue
        answered: set[str] = set()
        for pid in passages_by_query.get(query_id, ()):
            if (query_id, pid) not in index:
                gaps += 1
                continue
            answered |= index.correct(query_id, pid)
        per_query[query_id] = len(answered) / n_questions
    if gaps:
        log.warning("coverage gap: %d pooled passages have no grades", gaps)
    return per_query


# ---------------------------------------------------------------------------
# Derived qrels


def build_qrels(index: GradeIndex, graded: bool = False) -> Qrels:
    """A label per (query, passage) pair with a counted grade.

    Covers every pooled passage that has grades, so systems whose passages
    went through the grading pipeline never hit unjudged holes. Pairs come
    sorted. Graded labels are self-ratings, so they need a self_rated
    policy.
    """
    if graded and index.policy.mode != SELF_RATED:
        raise ContractViolation("--graded needs a rate:<min_rating> policy")
    return {pair: index.label(*pair, graded) for pair in index.pairs()}


# ---------------------------------------------------------------------------
# Precision@k


def precision_at_k(passages_by_query: dict[str, list[str]], qrels: Qrels,
                   k: int) -> dict[str, float]:
    """Per judged query, min(k, relevant passages) / k over its passages:
    P@k of a run's top k, and for a pool the best P@k that any ranking of
    it reaches.

    Unjudged passages count as non-relevant; queries with no qrels rows at
    all are skipped.
    """
    judged_queries = {query_id for query_id, _ in qrels}
    return {query_id: min(k, sum(1 for pid in pids
                                 if qrels.get((query_id, pid), 0) >= 1)) / k
            for query_id, pids in passages_by_query.items()
            if query_id in judged_queries}


# ---------------------------------------------------------------------------
# Rank correlation


def _common_vectors(scores_a: dict[str, float], scores_b: dict[str, float]
                    ) -> tuple[list[float], list[float]]:
    common = sorted(set(scores_a) & set(scores_b))
    if len(common) < 3:
        raise UndefinedResult(
            f"need >= 3 common systems, got {len(common)}")
    return ([scores_a[s] for s in common], [scores_b[s] for s in common])


def _undefined(a: list[float], b: list[float]) -> bool:
    """No correlation exists when a side holds a NaN or is constant."""
    return (any(math.isnan(v) for v in a + b)
            or len(set(a)) == 1 or len(set(b)) == 1)


def _average_ranks(values: list[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while (end + 1 < len(order)
               and values[order[end + 1]] == values[order[start]]):
            end += 1
        for i in order[start:end + 1]:
            ranks[i] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def spearman(scores_a: dict[str, float], scores_b: dict[str, float]) -> float:
    """Spearman rank correlation with average ranks for ties: the Pearson
    correlation of the ranks. NaN when a side is constant or holds a NaN."""
    a, b = _common_vectors(scores_a, scores_b)
    if _undefined(a, b):
        return math.nan
    ra, rb = _average_ranks(a), _average_ranks(b)
    mean = (len(ra) + 1) / 2       # of 1..n, with or without ties
    da = [r - mean for r in ra]
    db = [r - mean for r in rb]
    return sum(x * y for x, y in zip(da, db)) / math.sqrt(
        sum(x * x for x in da) * sum(y * y for y in db))


def kendall_tau(scores_a: dict[str, float], scores_b: dict[str, float]
                ) -> float:
    """Kendall's tau-b (tie-corrected) rank correlation. NaN when a side is
    constant or holds a NaN."""
    a, b = _common_vectors(scores_a, scores_b)
    if _undefined(a, b):
        return math.nan
    n = len(a)
    # Per pair, the signs of the differences; a pair tied on one side
    # counts in that side's ties, joint ties in both.
    score = tied_a = tied_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            sign_a = (a[i] > a[j]) - (a[i] < a[j])
            sign_b = (b[i] > b[j]) - (b[i] < b[j])
            score += sign_a * sign_b
            tied_a += not sign_a
            tied_b += not sign_b
    pairs = n * (n - 1) // 2
    return score / math.sqrt((pairs - tied_a) * (pairs - tied_b))


@dataclass(frozen=True)
class CorrelationStats:
    spearman: float
    kendall: float
    n: int


def correlation_stats(scores_a: dict[str, float],
                      scores_b: dict[str, float]) -> CorrelationStats:
    n = len(set(scores_a) & set(scores_b))
    return CorrelationStats(
        spearman=spearman(scores_a, scores_b),
        kendall=kendall_tau(scores_a, scores_b),
        n=n)


# ---------------------------------------------------------------------------
# Leaderboards


@dataclass(frozen=True)
class LeaderboardRow:
    system: str
    score: float
    std_error: float
    official_rank: float | None = None


@dataclass(frozen=True)
class LeaderboardResult:
    rows: tuple[LeaderboardRow, ...]
    correlation: CorrelationStats | None


def mean(per_query: dict[str, float]) -> float:
    """Macro-average over queries; 0 without any."""
    return sum(per_query.values()) / len(per_query) if per_query else 0.0


def _std_error(per_query: dict[str, float]) -> float:
    n = len(per_query)
    if n < 2:
        return 0.0
    average = mean(per_query)
    var = sum((v - average) ** 2 for v in per_query.values()) / (n - 1)
    return math.sqrt(var) / math.sqrt(n)


def leaderboard(runs: list[Run], index: GradeIndex,
                metric: str = "cover", depth: int = 20,
                official_ranks: dict[str, float | None] | None = None
                ) -> LeaderboardResult:
    """Score every run, add the pooled `_overall_` row, and correlate
    against the official ranking when one is supplied.

    Each row scores a pool of top `depth` passages: a run's row its own,
    `_overall_` the union of every run's. The metric picks the scorer:
    cover, or P@k with k = `depth`, which for `_overall_` is the best P@k
    any ranking of the pool reaches. `_overall_` is excluded from the
    correlation, as are systems without an official rank.
    """
    qrels = None if metric == "cover" else build_qrels(index)
    rows = []
    for system, pooled in [*((run.run_tag, [run]) for run in runs),
                           (OVERALL_SYSTEM, runs)]:
        pool = grading.build_passage_pool(pooled, depth)
        per_query = (exam_cover(pool, index) if metric == "cover"
                     else precision_at_k(pool, qrels, depth))
        rows.append(LeaderboardRow(
            system=system,
            score=mean(per_query),
            std_error=_std_error(per_query),
            official_rank=(official_ranks or {}).get(system)))
    rows.sort(key=lambda r: (-r.score, r.system))

    correlation = None
    if official_ranks:
        ours = {r.system: r.score for r in rows
                if r.system != OVERALL_SYSTEM and r.official_rank is not None}
        # Lower official rank is better, so negate for correlation.
        theirs = {s: -official_ranks[s] for s in ours}
        try:
            correlation = correlation_stats(ours, theirs)
        except UndefinedResult:
            correlation = None
    return LeaderboardResult(rows=tuple(rows), correlation=correlation)


# ---------------------------------------------------------------------------
# Cohen's kappa and agreement tables


@dataclass(frozen=True)
class KappaResult:
    overall: float
    per_row: tuple[float, ...]


def _kappa(matrix: list[list[int]]) -> float:
    n = sum(map(sum, matrix))
    p_observed = sum(row[i] for i, row in enumerate(matrix)) / n
    p_expected = sum(sum(row) * sum(col) for row, col
                     in zip(matrix, zip(*matrix))) / (n * n)
    if p_expected == 1.0:
        raise UndefinedResult("degenerate marginals: expected agreement 1")
    return (p_observed - p_expected) / (1.0 - p_expected)


def cohens_kappa(counts) -> KappaResult:
    """Cohen's kappa of a square confusion matrix, plus the per-category
    (one-vs-rest) kappa for each row label.
    """
    data = [list(row) for row in counts]
    total = sum(map(sum, data))
    per_row = []
    for i in range(len(data)):
        tp = data[i][i]
        row = sum(data[i]) - tp
        col = sum(r[i] for r in data) - tp
        rest = total - tp - row - col
        per_row.append(_kappa([[tp, row], [col, rest]]))
    return KappaResult(overall=_kappa(data), per_row=tuple(per_row))


def _groups(values, split: int | None) -> tuple[tuple[int, ...], ...]:
    """The distinct values, highest first: each on its own without a
    split, else the non-empty groups at or above the split and below it."""
    ordered = sorted(set(values), reverse=True)
    if split is None:
        return tuple((v,) for v in ordered)
    return tuple(g for g in (tuple(v for v in ordered if v >= split),
                             tuple(v for v in ordered if v < split)) if g)


def _group_name(group: tuple[int, ...]) -> str:
    return "+".join(map(str, group))


@dataclass(frozen=True)
class ConfusionTable:
    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    kappa_overall: float | None
    kappa_per_row: tuple[float, ...] | None


def confusion_table(name: str, labels: Qrels, judgments: Qrels,
                    label_min: int | None, judgment_rel_min: int = 1,
                    label_values: frozenset[int] = frozenset()
                    ) -> ConfusionTable:
    """Cross-tabulate predicted labels (rows) against official judgments
    (columns) over the pairs both hold.

    Rows are the label values present plus `label_values`, split at
    `label_min`; columns are the judgment values present, split at
    `judgment_rel_min`. Without a `label_min`, every value of either side
    has its own row or column. Kappa values are filled in only when the
    table is square.
    """
    common = labels.keys() & judgments.keys()
    if not common:
        raise ContractViolation("no (query, passage) pairs in common")

    label_groups = _groups({*labels.values(), *label_values}, label_min)
    judgment_groups = _groups(
        judgments.values(), None if label_min is None else judgment_rel_min)
    row_of = {v: i for i, g in enumerate(label_groups) for v in g}
    col_of = {v: i for i, g in enumerate(judgment_groups) for v in g}
    counts = [[0] * len(judgment_groups) for _ in label_groups]
    for key in common:
        counts[row_of[labels[key]]][col_of[judgments[key]]] += 1

    kappa_overall = kappa_per_row = None
    if len(label_groups) == len(judgment_groups):
        try:
            result = cohens_kappa(counts)
            kappa_overall, kappa_per_row = result.overall, result.per_row
        except UndefinedResult:
            pass
    return ConfusionTable(
        name=name,
        row_labels=tuple(map(_group_name, label_groups)),
        col_labels=tuple(map(_group_name, judgment_groups)),
        counts=tuple(map(tuple, counts)),
        kappa_overall=kappa_overall,
        kappa_per_row=kappa_per_row)


def min_answers_sweep(index: GradeIndex, official: Qrels,
                      values: tuple[int, ...] = (1, 2, 5),
                      judgment_rel_min: int = 1) -> list[ConfusionTable]:
    """Binary agreement tables, `binary-min-answers-<n>`, for a sweep of
    min_answers thresholds; the index's own min_answers is not used."""
    # Each pair's correct questions are counted once for all values.
    n_correct = [(query_id, passage_id,
                  len(index.correct(query_id, passage_id)))
                 for query_id, passage_id in index.pairs()]
    return [confusion_table(
        f"binary-min-answers-{n}",
        {(query_id, passage_id): int(count >= n)
         for query_id, passage_id, count in n_correct},
        official, 1, judgment_rel_min, label_values=frozenset({0, 1}))
        for n in values]
