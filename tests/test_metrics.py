import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from exam_eval import metrics
from exam_eval.bank import diff_banks
from exam_eval.metrics import (
    UndefinedResult,
    build_qrels,
    cohens_kappa,
    confusion_table,
    correlation_stats,
    exam_cover,
    kendall_tau,
    leaderboard,
    min_answers_sweep,
    precision_at_k,
    spearman,
    OVERALL_SYSTEM,
)
from exam_eval.model import (
    ContractViolation,
    ExamQuestion,
    GradePolicy,
    QA_VERIFIED,
    QuestionBank,
    SELF_RATED,
)
import oracles
from conftest import (
    PASSAGE_IDS,
    QUERY_IDS,
    bank_edits,
    grade_index,
    make_run,
    rated,
    scoring_inputs,
    verified,
)


def simple_bank(query_id="q1", n=5):
    return QuestionBank({query_id: tuple(
        ExamQuestion(f"{query_id}/q/{i}", query_id, f"Question {i}?")
        for i in range(n))})


LENIENT = GradePolicy(SELF_RATED, min_rating=1)


# ---------------------------------------------------------------------------
# Coverage


def checked_cover(pooled, grades, bank):
    """`exam_cover` of the pool under `LENIENT`, once it matches
    `oracles.cover`."""
    result = exam_cover(pooled, grade_index(grades, LENIENT, bank))
    assert result == pytest.approx(oracles.cover(
        {q: set(pids) for q, pids in pooled.items()}, bank, grades, LENIENT))
    return result


# Worked examples of the scores: each is checked against the oracles of
# criterion 3 (`test_acceptance.py`) too.
class TestExamCover:
    def test_union_of_two_passages(self):
        # |Q|=5; p1 answers {q0,q1}, p2 answers {q1,q2} -> 3/5.
        grades = [rated("q1", "p1", "q1/q/0", 5),
                  rated("q1", "p1", "q1/q/1", 4),
                  rated("q1", "p2", "q1/q/1", 5),
                  rated("q1", "p2", "q1/q/2", 5)]
        assert checked_cover({"q1": ["p1", "p2"]}, grades, simple_bank()) \
            == pytest.approx({"q1": 0.6})

    def test_nothing_answerable(self):
        assert checked_cover({"q1": ["p1"]}, [rated("q1", "p1", "q1/q/0", 0)],
                             simple_bank()) == {"q1": 0.0}

    def test_everything_answerable(self):
        grades = [rated("q1", "p1", f"q1/q/{i}", 5) for i in range(5)]
        assert checked_cover({"q1": ["p1"]}, grades, simple_bank()) \
            == {"q1": 1.0}

    def test_missing_grades_counted_not_correct(self, caplog):
        assert checked_cover({"q1": ["p1", "p-ungraded"]},
                             [rated("q1", "p1", "q1/q/0", 5)], simple_bank()) \
            == pytest.approx({"q1": 0.2})
        assert caplog.messages == [
            "coverage gap: 1 pooled passages have no grades"]

    def test_empty_bank_query_excluded_from_mean(self):
        bank = QuestionBank({"q1": simple_bank().questions_for("q1"),
                             "q2": ()})
        grades = [rated("q1", "p1", f"q1/q/{i}", 5) for i in range(5)]
        result = checked_cover({"q1": ["p1"], "q2": ["p2"]}, grades, bank)
        assert result == {"q1": 1.0}
        assert metrics.mean(result) == 1.0

# ---------------------------------------------------------------------------
# Relevance labels and qrels


def checked_qrels(grades, policy=LENIENT, graded=False):
    """`build_qrels` of the grades for `simple_bank()`, once it matches
    `oracles.qrels`."""
    bank = simple_bank()
    labels = build_qrels(grade_index(grades, policy, bank), graded=graded)
    assert labels == oracles.qrels(grades, bank, policy, graded)
    return labels


def pair_label(ratings, policy, graded=False):
    """The label of one pair whose grades give question i rating
    ratings[i], once it matches `oracles.qrels` (0 for a pair without
    one)."""
    bank = simple_bank(n=len(ratings))
    grades = [rated("q1", "p1", f"q1/q/{i}", r)
              for i, r in enumerate(ratings)]
    label = grade_index(grades, policy, bank).label("q1", "p1", graded)
    assert label == oracles.qrels(grades, bank, policy, graded).get(
        ("q1", "p1"), 0)
    return label


class TestRelevanceLabels:
    def test_graded_is_max_rating(self):
        assert pair_label([4, 2], LENIENT, graded=True) == 4

    def test_min_answers_two_needs_two(self):
        policy = GradePolicy(SELF_RATED, min_rating=1, min_answers=2)
        assert pair_label([5], policy) == 0

    def test_one_correct_suffices_by_default(self):
        assert pair_label([5, 0], LENIENT) == 1

    def test_no_grades_graded_zero(self):
        assert pair_label([], LENIENT, graded=True) == 0


class TestBuildQrels:
    def test_binary_rows(self):
        assert checked_qrels([rated("q1", "p1", "q1/q/0", 5),
                              rated("q1", "p2", "q1/q/0", 0)]) \
            == {("q1", "p1"): 1, ("q1", "p2"): 0}

    def test_graded_carries_ratings(self):
        assert checked_qrels([rated("q1", "p1", "q1/q/0", 3)], graded=True) \
            == {("q1", "p1"): 3}

    def test_new_question_changes_only_affected_rows(self):
        grades = [rated("q1", "p1", "q1/q/0", 0),
                  rated("q1", "p2", "q1/q/0", 0)]
        before = checked_qrels(grades)
        after = checked_qrels(grades + [rated("q1", "p1", "q1/q/1", 5)])
        assert set(after.items()) - set(before.items()) \
            == {(("q1", "p1"), 1)}

    def test_unknown_questions_ignored(self):
        assert checked_qrels([rated("q1", "p1", "other-bank/q/0", 5)]) == {}

    def test_graded_needs_self_rated_policy(self):
        # A qa verdict is no rating: graded labels under a qa policy would
        # be the verdicts themselves.
        index = grade_index([verified("q1", "p1", "q1/q/0", True)],
                            GradePolicy(QA_VERIFIED), simple_bank())
        with pytest.raises(ContractViolation, match="--graded needs a "
                           "rate:<min_rating> policy"):
            build_qrels(index, graded=True)
        assert build_qrels(index) == {("q1", "p1"): 1}


@settings(deadline=None)
@given(scoring_inputs(), st.data())
def test_labels_match_the_oracle_under_either_mode(inputs, data):
    # Every caller of a pair's label, under a qa policy and a self-rated
    # one: the qrels, the min_answers sweep and the labels a bank edit
    # flips.
    bank, grades, _, _, policy, _ = inputs
    if data.draw(st.booleans()):
        policy = GradePolicy(QA_VERIFIED, min_answers=policy.min_answers)
    index = grade_index(grades, policy, bank)
    assert build_qrels(index) == oracles.qrels(grades, bank, policy)
    if policy.mode == SELF_RATED:
        assert build_qrels(index, graded=True) \
            == oracles.qrels(grades, bank, policy, graded=True)

    official = {(q, p): data.draw(st.integers(0, 3))
                for q in QUERY_IDS for p in PASSAGE_IDS}
    values = (1, 2, 3)
    if build_qrels(index):
        assert min_answers_sweep(index, official, values) == [
            confusion_table(f"binary-min-answers-{n}", oracles.qrels(
                grades, bank, replace(policy, min_answers=n)),
                official, 1, label_values=frozenset({0, 1}))
            for n in values]

    new = data.draw(bank_edits(bank))
    flips = diff_banks(index, grade_index(grades, policy, new)).flips
    assert [f"flip\t{f.query_id}\t{f.passage_id}\t"
            f"{f.old_label}->{f.new_label}\n" for f in flips] == [
        line for line in oracles.diff(bank, new, grades, policy)
        if line.startswith("flip\t")]


# ---------------------------------------------------------------------------
# Precision@k


def checked_precision(pooled, qrels, k):
    """`precision_at_k` of the pool, once it matches `oracles.precision`."""
    result = precision_at_k(pooled, qrels, k)
    assert result == pytest.approx(oracles.precision(pooled, qrels, k))
    return result


class TestPrecisionAtK:
    def test_all_relevant(self):
        qrels = {("q1", f"p{i}"): 1 for i in range(20)}
        passages = {"q1": [f"p{i}" for i in range(20)]}
        assert checked_precision(passages, qrels, 20) == {"q1": 1.0}

    def test_half_relevant(self):
        qrels = {("q1", f"p{i}"): 1 if i < 10 else 0 for i in range(20)}
        passages = {"q1": [f"p{i}" for i in range(20)]}
        assert checked_precision(passages, qrels, 20) == {"q1": 0.5}

    def test_unjudged_counts_nonrelevant(self):
        assert checked_precision({"q1": ["p0", "p-unjudged"]},
                                 {("q1", "p0"): 1}, 2) == {"q1": 0.5}

    def test_unjudged_query_skipped(self):
        assert checked_precision({"q1": ["p0"], "q2": ["p0"]},
                                 {("q1", "p0"): 1}, 1) == {"q1": 1.0}


# ---------------------------------------------------------------------------
# Rank correlation


def scores_from(values):
    return {f"s{i}": v for i, v in enumerate(values)}


class TestCorrelation:
    def test_identical_orderings(self):
        a = scores_from([1.0, 2.0, 3.0, 4.0])
        b = scores_from([10.0, 20.0, 30.0, 40.0])
        assert spearman(a, b) == pytest.approx(1.0)
        assert kendall_tau(a, b) == pytest.approx(1.0)

    def test_reversed(self):
        a = scores_from([1.0, 2.0, 3.0, 4.0])
        b = scores_from([4.0, 3.0, 2.0, 1.0])
        assert spearman(a, b) == pytest.approx(-1.0)
        assert kendall_tau(a, b) == pytest.approx(-1.0)

    def test_adjacent_swap_among_three(self):
        # 2 concordant pairs, 1 discordant -> (2 - 1) / 3.
        a = scores_from([1.0, 2.0, 3.0])
        b = scores_from([2.0, 1.0, 3.0])
        assert kendall_tau(a, b) == pytest.approx(1 / 3)

    def test_too_few_systems(self):
        a = scores_from([1.0, 2.0])
        with pytest.raises(UndefinedResult):
            spearman(a, a)
        with pytest.raises(UndefinedResult):
            kendall_tau(a, a)

    def test_common_systems_only(self):
        a = {"x": 1.0, "y": 2.0, "z": 3.0, "only-a": 9.0}
        b = {"x": 1.0, "y": 2.0, "z": 3.0, "only-b": 0.0}
        stats = correlation_stats(a, b)
        assert stats.n == 3
        assert stats.spearman == pytest.approx(1.0)

def score_vectors(n):
    """n scores: drawn from a few values (ties), distinct, all equal, or
    with a NaN (a leaderboard may read "nan")."""
    tied = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n,
                    max_size=n)
    untied = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n,
                      unique=True)
    constant = st.floats(-1e3, 1e3).map(lambda v: [v] * n)
    with_nan = untied.map(lambda v: v[1:] + [math.nan][:len(v)])
    return tied | untied | constant | with_nan


@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(score_vectors(n), score_vectors(n))))
@settings(max_examples=150, deadline=None)
def test_correlations_match_scipy(vectors):
    # scipy is the reference for every vector, and the brute-force oracles,
    # which the other tests trust, agree with it where they are defined.
    stats = pytest.importorskip("scipy.stats")
    a, b = vectors
    scores_a, scores_b = scores_from(a), scores_from(b)
    if len(a) < 3:
        with pytest.raises(UndefinedResult):
            spearman(scores_a, scores_b)
        with pytest.raises(UndefinedResult):
            kendall_tau(scores_a, scores_b)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # scipy warns on a constant side
        expected = (float(stats.spearmanr(a, b).statistic),
                    float(stats.kendalltau(a, b).statistic))
    ours = (spearman(scores_a, scores_b), kendall_tau(scores_a, scores_b))
    for value, reference in zip(ours, expected):
        if math.isnan(reference):
            assert math.isnan(value)
        else:
            assert value == pytest.approx(reference, abs=1e-12)
    if not any(map(math.isnan, a + b)) and min(len(set(a)), len(set(b))) > 1:
        assert expected == pytest.approx((
            oracles.oracle_spearman(a, b), oracles.oracle_kendall_tau_b(a, b)),
            abs=1e-12)


# ---------------------------------------------------------------------------
# Kappa and agreement tables


class TestCohensKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa([[50, 0], [0, 50]]).overall == pytest.approx(1.0)

    def test_chance_level(self):
        assert cohens_kappa([[10, 10], [10, 10]]).overall == pytest.approx(0.0)

    def test_published_binary_table(self):
        result = cohens_kappa([[1661, 1858], [1129, 1704]])
        assert result.overall == pytest.approx(0.072, abs=0.005)
        for per_row in result.per_row:
            assert per_row == pytest.approx(0.073, abs=0.005)

    def test_degenerate_marginals(self):
        with pytest.raises(UndefinedResult):
            cohens_kappa([[5, 0], [0, 0]])


def numpy_kappa(counts):
    """Reference kappa over numpy arrays: (overall, per_row), or None
    where the marginals make a kappa undefined."""
    np = pytest.importorskip("numpy")
    data = np.asarray(counts, dtype=np.int64)

    def kappa(matrix):
        n = matrix.sum()
        p_observed = matrix.trace() / n
        p_expected = float(
            np.dot(matrix.sum(axis=1), matrix.sum(axis=0))) / (n * n)
        if p_expected == 1.0:
            return None
        return float((p_observed - p_expected) / (1.0 - p_expected))

    total = int(data.sum())
    per_row = []
    for i in range(data.shape[0]):
        tp = data[i, i]
        row = data[i].sum() - tp
        col = data[:, i].sum() - tp
        rest = total - tp - row - col
        per_row.append(kappa(np.array([[tp, row], [col, rest]])))
    return kappa(data), tuple(per_row)


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 60), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=400, deadline=None)
def test_kappa_matches_numpy_formula(counts):
    if not any(map(any, counts)):
        return
    overall, per_row = numpy_kappa(counts)
    if overall is None or None in per_row:
        with pytest.raises(UndefinedResult):
            cohens_kappa(counts)
        return
    result = cohens_kappa(counts)
    assert result.overall == overall
    assert result.per_row == per_row


# The full label scale, 0-5, whatever values a test's labels hold.
SCALE = frozenset(range(6))


class TestAgreementTables:
    def labels_and_judgments(self):
        # 20 pairs, hand-tallied below.
        labels, judgments = {}, {}
        rows = [
            # (label 0-5, judgment 0-3, count)
            (5, 3, 2), (4, 2, 3), (4, 0, 2), (1, 1, 3),
            (0, 0, 6), (0, 2, 2), (2, 0, 2),
        ]
        i = 0
        for label, judgment, count in rows:
            for _ in range(count):
                labels["q1", f"p{i}"] = label
                judgments["q1", f"p{i}"] = judgment
                i += 1
        return labels, judgments

    def test_diagonal_identity(self):
        labels = {("q1", f"p{i}"): i % 2 for i in range(10)}
        table = confusion_table("binary", labels, labels, 1)
        assert table.kappa_overall == pytest.approx(1.0)
        assert table.counts[0][1] == table.counts[1][0] == 0

    def test_lenient_hand_tally(self):
        labels, judgments = self.labels_and_judgments()
        table = confusion_table("lenient", labels, judgments, 1,
                                label_values=SCALE)
        # Relevant labels (1-5): 12 pairs, 8 with judgment >= 1;
        # label 0: 8 pairs, 2 with judgment >= 1.
        assert table.counts == ((8, 4), (2, 6))
        assert table.row_labels == ("5+4+3+2+1", "0")

    def test_strict_structure(self):
        labels, judgments = self.labels_and_judgments()
        table = confusion_table("strict", labels, judgments, 4,
                                label_values=SCALE)
        assert table.row_labels == ("5+4", "3+2+1+0")
        assert table.counts == ((5, 2), (5, 8))

    def test_graded_table_has_no_overall_kappa(self):
        labels, judgments = self.labels_and_judgments()
        table = confusion_table("graded", labels, judgments, None,
                                label_values=SCALE)
        assert table.kappa_overall is None
        assert len(table.row_labels) == 6
        assert len(table.col_labels) == 4
        assert sum(map(sum, table.counts)) == 20

    def test_unjoined_pairs_dropped_and_counted(self):
        labels = {("q1", "p1"): 1, ("q1", "p-only-label"): 1}
        judgments = {("q1", "p1"): 2, ("q1", "p-only-j"): 0}
        table = confusion_table("binary", labels, judgments, 1)
        assert sum(map(sum, table.counts)) == 1

    def test_empty_join_rejected(self):
        with pytest.raises(ContractViolation):
            confusion_table("binary", {("q1", "p1"): 1},
                            {("q2", "p2"): 1}, 1)

    def test_judgment_rel_min_splits_columns_unless_graded(self):
        labels = {("q1", f"p{j}"): label
                  for j, label in enumerate([0, 1, 4, 0])}
        judgments = {("q1", f"p{j}"): j for j in range(4)}
        table = confusion_table("lenient", labels, judgments, 1,
                                judgment_rel_min=2)
        assert table.col_labels == ("3+2", "1+0")
        assert table.row_labels == ("4+1", "0")
        assert table.counts == ((1, 1), (1, 1))
        graded = confusion_table("graded", labels, judgments, None,
                                 judgment_rel_min=2)
        assert graded.col_labels == ("3", "2", "1", "0")
        assert graded.row_labels == ("4", "1", "0")

    def test_min_answers_sweep_shapes(self):
        bank = simple_bank()
        grades = [rated("q1", "p1", "q1/q/0", 5),
                  rated("q1", "p1", "q1/q/1", 5),
                  rated("q1", "p2", "q1/q/0", 5),
                  rated("q1", "p3", "q1/q/0", 0)]
        official = {("q1", "p1"): 2, ("q1", "p2"): 0, ("q1", "p3"): 0}
        sweep = min_answers_sweep(grade_index(grades, LENIENT, bank),
                                  official, values=(1, 2, 5))
        assert [t.name for t in sweep] == [
            "binary-min-answers-1", "binary-min-answers-2",
            "binary-min-answers-5"]
        by_n = dict(zip((1, 2, 5), sweep))
        # min_answers=1: p1 and p2 labeled 1; p2 judged 0.
        assert by_n[1].counts == ((1, 1), (0, 1))
        # min_answers=2: only p1 keeps its label.
        assert by_n[2].counts == ((1, 0), (0, 2))
        # min_answers=5: nothing qualifies.
        assert by_n[5].counts == ((0, 0), (1, 2))


# ---------------------------------------------------------------------------
# Leaderboard


class TestLeaderboard:
    def fixture(self):
        bank = QuestionBank({
            q: tuple(ExamQuestion(f"{q}/q/{i}", q, f"Q{i}?") for i in range(4))
            for q in ("q1", "q2")})
        grades = []
        for q in ("q1", "q2"):
            # pA answers 3 of 4 questions, pB answers 1, pC none.
            grades += [rated(q, "pA", f"{q}/q/{i}", 5) for i in range(3)]
            grades.append(rated(q, "pA", f"{q}/q/3", 0))
            grades.append(rated(q, "pB", f"{q}/q/0", 5))
            grades += [rated(q, "pB", f"{q}/q/{i}", 0) for i in range(1, 4)]
            grades += [rated(q, "pC", f"{q}/q/{i}", 0) for i in range(4)]
        run_a = make_run("sysA", [(q, p) for q in ("q1", "q2")
                                  for p in ("pA", "pB")])
        run_b = make_run("sysB", [(q, p) for q in ("q1", "q2")
                                  for p in ("pC", "pB")])
        return grade_index(grades, LENIENT, bank), [run_a, run_b]

    def test_dominant_system_ranks_first(self):
        index, runs = self.fixture()
        result = leaderboard(runs, index)
        order = [r.system for r in result.rows]
        assert order.index("sysA") < order.index("sysB")

    def test_overall_dominates_cover(self):
        index, runs = self.fixture()
        result = leaderboard(runs, index)
        overall = next(r for r in result.rows if r.system == OVERALL_SYSTEM)
        for row in result.rows:
            assert overall.score >= row.score

    def test_overall_dominates_p_at_k(self):
        index, runs = self.fixture()
        result = leaderboard(runs, index, metric="p_at_k", depth=2)
        overall = next(r for r in result.rows if r.system == OVERALL_SYSTEM)
        for row in result.rows:
            assert overall.score >= row.score

    def test_tied_systems_ordered_by_name(self):
        index, runs = self.fixture()
        twin = make_run("sysA2", [(query_id, passage_id)
                                  for query_id, passage_ids
                                  in runs[0].by_query.items()
                                  for passage_id in passage_ids])
        result = leaderboard(runs + [twin], index)
        rows = {r.system: r for r in result.rows}
        assert rows["sysA"].score == rows["sysA2"].score
        order = [r.system for r in result.rows]
        assert order.index("sysA") < order.index("sysA2")

    def test_correlation_undefined_below_three(self):
        index, runs = self.fixture()
        result = leaderboard(runs, index,
                             official_ranks={"sysA": 1, "sysB": 2})
        assert result.correlation is None

    def test_correlation_excludes_overall_and_unranked(self):
        index, runs = self.fixture()
        third = make_run("sysC", [(q, "pC") for q in ("q1", "q2")])
        fourth = make_run("sysD", [(q, "pB") for q in ("q1", "q2")])
        result = leaderboard(runs + [third, fourth], index,
                             official_ranks={"sysA": 1, "sysB": 4,
                                             "sysC": 3, "sysD": 2})
        assert result.correlation is not None
        assert result.correlation.n == 4
