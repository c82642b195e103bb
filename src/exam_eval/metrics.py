"""Evaluation metrics: coverage scoring, derived qrels, leaderboards,
rank correlations, and inter-annotator agreement tables.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from . import grading
from .model import (
    ContractViolation,
    GradeIndex,
    OVERALL_SYSTEM,
    Qrels,
    QuestionBank,
    Run,
    label_of,
    n_passing,
)

log = logging.getLogger(__name__)


class UndefinedResult(ValueError):
    """The requested statistic is undefined for this input."""


# ---------------------------------------------------------------------------
# Coverage score


@dataclass(frozen=True)
class CoverResult:
    per_query: dict[str, float]
    mean: float
    ungraded_passages: tuple[tuple[str, str], ...] = ()


def _cover(passages_by_query: dict[str, list[str]], bank: QuestionBank,
           index: GradeIndex, gaps: list[tuple[str, str]]
           ) -> dict[str, float]:
    """Per-query cover of the given passages, over queries with questions.

    Passages without a grade in the policy mode are appended to `gaps`.
    """
    per_query: dict[str, float] = {}
    for query_id in bank.query_ids:
        question_ids = {q.question_id for q in bank.questions_for(query_id)}
        if not question_ids:
            continue
        answered: set[str] = set()
        for pid in passages_by_query.get(query_id, ()):
            if (query_id, pid) not in index:
                gaps.append((query_id, pid))
                continue
            answered |= index.correct(query_id, pid, question_ids)
        per_query[query_id] = len(answered) / len(question_ids)
    return per_query


def exam_cover(run: Run, bank: QuestionBank, index: GradeIndex,
               depth: int = 20) -> CoverResult:
    """Fraction of each query's questions answerable by the top-k passages.

    Per query, the score is the size of the union of correctly answered
    questions over the top-`depth` passages, divided by the bank size for
    that query. The system score is the macro-average over queries that
    have at least one question. Pooled passages without any grade count as
    not-correct and are reported as coverage gaps.
    """
    top = {query_id: run.top_k(query_id, depth)
           for query_id in bank.query_ids}
    gaps: list[tuple[str, str]] = []
    per_query = _cover(top, bank, index, gaps)
    if gaps:
        log.warning("coverage gap: %d pooled passages have no grades",
                    len(gaps))
    return CoverResult(per_query=per_query, mean=_mean(per_query),
                       ungraded_passages=tuple(gaps))


# ---------------------------------------------------------------------------
# Derived qrels


def build_qrels(index: GradeIndex, bank: QuestionBank,
                graded: bool = False) -> Qrels:
    """A label per (query, passage) with a graded bank question.

    Covers every pooled passage that has grades, so systems whose passages
    went through the grading pipeline never hit unjudged holes. Pairs come
    sorted.
    """
    policy = index.policy
    return {(query_id, passage_id): label_of(outcomes, policy, graded)
            for query_id, passage_id, outcomes
            in index.graded_pairs(set(bank.by_question_id()))}


# ---------------------------------------------------------------------------
# Precision@k


@dataclass(frozen=True)
class PrecisionResult:
    per_query: dict[str, float]
    mean: float


def _precision(passages_by_query: dict[str, list[str]], qrels: Qrels,
               k: int) -> dict[str, float]:
    """Per judged query, min(k, relevant passages) / k over the given
    passages: P@k of a run's top k, and for a pool the best P@k that any
    ranking of it reaches.

    Unjudged passages count as non-relevant; queries with no qrels rows at
    all are skipped.
    """
    judged_queries = {query_id for query_id, _ in qrels}
    return {query_id: min(k, sum(1 for pid in pids
                                 if qrels.get((query_id, pid), 0) >= 1)) / k
            for query_id, pids in passages_by_query.items()
            if query_id in judged_queries}


def precision_at_k(run: Run, qrels: Qrels, k: int) -> PrecisionResult:
    """Fraction of the top-k passages judged relevant, per judged query."""
    per_query = _precision({query_id: run.top_k(query_id, k)
                            for query_id in run.query_ids}, qrels, k)
    return PrecisionResult(per_query=per_query, mean=_mean(per_query))


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
    official_rank: int | None = None


@dataclass(frozen=True)
class LeaderboardResult:
    rows: tuple[LeaderboardRow, ...]
    correlation: CorrelationStats | None


def _mean(per_query: dict[str, float]) -> float:
    """Macro-average over queries; 0 without any."""
    return sum(per_query.values()) / len(per_query) if per_query else 0.0


def _std_error(per_query: dict[str, float]) -> float:
    n = len(per_query)
    if n < 2:
        return 0.0
    mean = _mean(per_query)
    var = sum((v - mean) ** 2 for v in per_query.values()) / (n - 1)
    return math.sqrt(var) / math.sqrt(n)


def leaderboard(runs: list[Run], bank: QuestionBank, index: GradeIndex,
                metric: str = "cover", depth: int = 20,
                official_ranks: dict[str, int] | None = None
                ) -> LeaderboardResult:
    """Score every run, add the pooled `_overall_` row, and correlate
    against the official ranking when one is supplied.

    Both metrics read each run's top `depth` passages: cover over them,
    P@k with k = `depth`. `_overall_` scores the union of all systems' top
    `depth` passages: the pooled coverage for the cover metric, the best
    achievable P@k for the qrels metric. It is excluded from the
    correlation, as are systems without an official rank.
    """
    pool = grading.build_passage_pool(runs, depth)

    per_system: dict[str, dict[str, float]] = {}
    if metric == "cover":
        for run in runs:
            per_system[run.run_tag] = exam_cover(
                run, bank, index, depth).per_query
        per_system[OVERALL_SYSTEM] = _cover(pool, bank, index, [])
    else:
        qrels = build_qrels(index, bank)
        for run in runs:
            per_system[run.run_tag] = precision_at_k(
                run, qrels, depth).per_query
        per_system[OVERALL_SYSTEM] = _precision(pool, qrels, depth)

    rows = []
    for system, per_query in per_system.items():
        rows.append(LeaderboardRow(
            system=system,
            score=_mean(per_query),
            std_error=_std_error(per_query),
            official_rank=(official_ranks or {}).get(system)))
    rows.sort(key=lambda r: (-r.score, r.system))

    correlation = None
    if official_ranks:
        ours = {r.system: r.score for r in rows
                if r.system != OVERALL_SYSTEM and r.official_rank is not None}
        # Lower official rank is better, so negate for correlation.
        theirs = {s: -float(official_ranks[s]) for s in ours}
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


@dataclass(frozen=True)
class CollapseSpec:
    """How to group label values (rows) and judgment values (columns)."""
    name: str
    label_groups: tuple[tuple[int, ...], ...]
    judgment_groups: tuple[tuple[int, ...], ...]


def _group_name(group: tuple[int, ...]) -> str:
    return "+".join(str(v) for v in sorted(group, reverse=True))


def _split_at(values: set[int], threshold: int
              ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    hi = tuple(sorted((v for v in values if v >= threshold), reverse=True))
    lo = tuple(sorted((v for v in values if v < threshold), reverse=True))
    return hi, lo


def collapse_for(name: str, observed_labels: set[int],
                 observed_judgments: set[int],
                 judgment_rel_min: int = 1) -> CollapseSpec:
    """Build a collapse over the value sets actually present in the data.

    graded keeps every value distinct; lenient groups labels >= 1 as
    relevant, strict labels >= 4, binary expects 0/1 labels. Judgment
    columns split at judgment_rel_min except for graded.
    """
    labels = tuple(sorted(observed_labels, reverse=True))
    judgments = tuple(sorted(observed_judgments, reverse=True))
    if name == "graded":
        return CollapseSpec(name,
                            label_groups=tuple((v,) for v in labels),
                            judgment_groups=tuple((v,) for v in judgments))
    label_min = {"lenient": 1, "binary": 1, "strict": 4}.get(name)
    if label_min is None:
        raise ContractViolation(f"unknown collapse name {name!r}")
    label_groups = tuple(
        g for g in _split_at(observed_labels, label_min) if g)
    judgment_groups = tuple(
        g for g in _split_at(observed_judgments, judgment_rel_min) if g)
    return CollapseSpec(name, label_groups=label_groups,
                        judgment_groups=judgment_groups)


@dataclass(frozen=True)
class ConfusionTable:
    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    kappa_overall: float | None
    kappa_per_row: tuple[float, ...] | None
    dropped_pairs: int = 0

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


def confusion_table(labels: Qrels, judgments: Qrels,
                    spec: CollapseSpec) -> ConfusionTable:
    """Cross-tabulate predicted labels against official judgments; the
    table takes the collapse's name.

    Pairs present on only one side are dropped and counted; the collapse
    covers every value present (see `collapse_for`). Kappa values are
    filled in only when the collapsed table is square.
    """
    common = labels.keys() & judgments.keys()
    if not common:
        raise ContractViolation("no (query, passage) pairs in common")
    dropped = (len(labels) - len(common)) + (len(judgments) - len(common))

    row_of = {v: i for i, g in enumerate(spec.label_groups) for v in g}
    col_of = {v: i for i, g in enumerate(spec.judgment_groups) for v in g}
    counts = [[0] * len(spec.judgment_groups) for _ in spec.label_groups]
    for key in common:
        counts[row_of[labels[key]]][col_of[judgments[key]]] += 1

    kappa_overall = kappa_per_row = None
    if len(spec.label_groups) == len(spec.judgment_groups):
        try:
            result = cohens_kappa(counts)
            kappa_overall, kappa_per_row = result.overall, result.per_row
        except UndefinedResult:
            pass
    return ConfusionTable(
        name=spec.name,
        row_labels=tuple(_group_name(g) for g in spec.label_groups),
        col_labels=tuple(_group_name(g) for g in spec.judgment_groups),
        counts=tuple(map(tuple, counts)),
        kappa_overall=kappa_overall,
        kappa_per_row=kappa_per_row,
        dropped_pairs=dropped)


def min_answers_sweep(index: GradeIndex, bank: QuestionBank,
                      official: Qrels, values: tuple[int, ...] = (1, 2, 5),
                      judgment_rel_min: int = 1
                      ) -> list[tuple[int, ConfusionTable]]:
    """Binary agreement tables for a sweep of min_answers thresholds; the
    index's own min_answers is not used."""
    # Each pair's correct bank questions are counted once for all values.
    n_correct = [(query_id, passage_id, n_passing(outcomes, index.policy))
                 for query_id, passage_id, outcomes
                 in index.graded_pairs(set(bank.by_question_id()))]
    spec = collapse_for("binary", {0, 1}, set(official.values()),
                        judgment_rel_min)
    out = []
    for n in values:
        labels = {(query_id, passage_id): int(count >= n)
                  for query_id, passage_id, count in n_correct}
        out.append((n, confusion_table(
            labels, official,
            replace(spec, name=f"binary-min-answers-{n}"))))
    return out
