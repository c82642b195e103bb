import itertools
import math
import random
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from exam_eval import metrics
from exam_eval.bank import diff_banks
from exam_eval.formats import parse_qrels, parse_run_file
from exam_eval.grading import build_passage_pool
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
from conftest import grade_index, make_run, rated, verified


def simple_bank(query_id="q1", n=5):
    return QuestionBank({query_id: tuple(
        ExamQuestion(f"{query_id}/q/{i}", query_id, f"Question {i}?")
        for i in range(n))})


LENIENT = GradePolicy(SELF_RATED, min_rating=1)


# ---------------------------------------------------------------------------
# Independent oracles


def run_rows(text):
    """Each query's (passage, rank) rows of a run file, in file order: the
    oracles rank them themselves instead of reading the parsed `Run`."""
    rows = {}
    for line in text.splitlines():
        query_id, _, passage_id, rank, _, _ = line.split()
        rows.setdefault(query_id, []).append((passage_id, int(rank)))
    return rows


def brute_force_cover(rows, bank, grades, policy, depth):
    """Set-union enumeration, no shared code with exam_cover; `rows` are
    the run's rows as `run_rows` splits them."""
    correct = {}
    for (query_id, passage_id, question_id, mode), (_, _, rating) in grades:
        if mode == policy.mode and rating >= policy.min_rating:
            correct.setdefault((query_id, passage_id), set()).add(
                question_id)
    scores = {}
    for query_id, questions in bank.questions_by_query.items():
        if not questions:
            continue
        qids = {q.question_id for q in questions}
        top = sorted(rows.get(query_id, []), key=lambda row: row[1])[:depth]
        answered = set()
        for passage_id, _ in top:
            answered |= correct.get((query_id, passage_id), set()) & qids
        scores[query_id] = len(answered) / len(qids)
    return scores


def brute_force_precision(rows, judged, k):
    """`judged` maps (query, passage) to a trec_eval grade, negative ones
    included; `rows` are the run's rows as `run_rows` splits them."""
    rel = {pair: max(grade, 0) for pair, grade in judged.items()}
    queries = {query_id for query_id, _ in judged}
    scores = {}
    for query_id, ranked in rows.items():
        if query_id not in queries:
            continue
        top = sorted(ranked, key=lambda row: row[1])[:k]
        scores[query_id] = sum(
            1 for passage_id, _ in top
            if rel.get((query_id, passage_id), 0) >= 1) / k
    return scores


def brute_force_pool(rows_of_runs, depth):
    """Query -> set of passages some run ranks within its top depth."""
    pooled = {}
    for rows in rows_of_runs:
        for query_id, ranked in rows.items():
            ranks = sorted(rank for _, rank in ranked)
            for passage_id, rank in ranked:
                if rank in ranks[:depth]:
                    pooled.setdefault(query_id, set()).add(passage_id)
    return pooled


def brute_force_pooled_cover(rows_of_runs, bank, grades, policy, depth):
    pooled = brute_force_pool(rows_of_runs, depth)
    scores = {}
    for query_id, questions in bank.questions_by_query.items():
        if not questions:
            continue
        qids = {q.question_id for q in questions}
        answered = {qid for (q, p, qid, mode), (_, _, rating) in grades
                    if mode == policy.mode and q == query_id
                    and p in pooled.get(query_id, set())
                    and qid in qids
                    and rating >= policy.min_rating}
        scores[query_id] = len(answered) / len(qids)
    return scores


def brute_force_qrels(grades, bank, policy, graded=False):
    """A label per pair with a counted grade: one of the policy's mode whose
    question the bank files under the grade's own query. Binary, or the
    highest rating when `graded`."""
    ratings = {}
    for (query_id, passage_id, question_id, mode), (_, _, rating) in grades:
        if mode == policy.mode and question_id in {
                q.question_id for q in bank.questions_for(query_id)}:
            ratings.setdefault((query_id, passage_id), []).append(rating)
    if graded:
        return {pair: max(rs) for pair, rs in ratings.items()}
    return {pair: int(sum(r >= policy.min_rating for r in rs)
                      >= policy.min_answers)
            for pair, rs in ratings.items()}


def brute_force_diff(old, new, grades, policy):
    """`diff`'s report as its output lines: the edits by question id, then
    each pair whose binary label differs between the two banks."""
    old_filing = {q.question_id: (q.query_id, q.text)
                  for q in old.all_questions()}
    new_filing = {q.question_id: (q.query_id, q.text)
                  for q in new.all_questions()}
    added = sorted(set(new_filing) - set(old_filing))
    edited = sorted(qid for qid in set(old_filing) & set(new_filing)
                    if old_filing[qid] != new_filing[qid])
    graded = {(query_id, question_id) for (query_id, _, question_id, mode), _
              in grades if mode == policy.mode}
    needs_grading = sorted(
        q.question_id for q in new.all_questions()
        if q.question_id in added + edited
        and (q.query_id, q.question_id) not in graded)
    lines = [f"{title}\t{qid}\n" for title, qids in (
        ("added", added),
        ("removed", sorted(set(old_filing) - set(new_filing))),
        ("edited", edited), ("needs_grading", needs_grading))
        for qid in qids]
    before = brute_force_qrels(grades, old, policy)
    after = brute_force_qrels(grades, new, policy)
    for q, p in sorted(before.keys() | after.keys()):
        a, b = before.get((q, p), 0), after.get((q, p), 0)
        if a != b:
            lines.append(f"flip\t{q}\t{p}\t{a}->{b}\n")
    return lines


def brute_force_pooled_precision(rows_of_runs, qrels, k, depth):
    """Best P@k an ideal ranking of the pooled passages reaches."""
    rel = {pair: max(grade, 0) for pair, grade in qrels.items()}
    judged = {query_id for query_id, _ in qrels}
    return {q: min(sum(1 for p in pids if rel.get((q, p), 0) >= 1), k) / k
            for q, pids in brute_force_pool(rows_of_runs, depth).items()
            if q in judged}


def mean(scores):
    return sum(scores.values()) / len(scores) if scores else 0.0


def average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for idx in order[i:j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def oracle_spearman(a, b):
    ra, rb = average_ranks(a), average_ranks(b)
    n = len(ra)
    ma, mb = sum(ra) / n, sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def oracle_kendall_tau_b(a, b):
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i, j in itertools.combinations(range(n), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0 and db == 0:
            continue
        if da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        elif da * db > 0:
            concordant += 1
        else:
            discordant += 1
    denom = math.sqrt((concordant + discordant + ties_a)
                      * (concordant + discordant + ties_b))
    return (concordant - discordant) / denom


# ---------------------------------------------------------------------------
# Random scoring inputs for the oracle checks

QUERIES = ("q0", "q1", "q2")
PASSAGES = tuple(f"p{i}" for i in range(8))


@st.composite
def run_files(draw, tag):
    """A run file as text: random passages and gapped ranks per query,
    lines in random order."""
    lines = []
    for query_id in QUERIES:
        pids = draw(st.lists(st.sampled_from(PASSAGES), min_size=1,
                             unique=True))
        ranks = draw(st.lists(st.integers(1, 99), min_size=len(pids),
                              max_size=len(pids), unique=True))
        lines += [f"{query_id} Q0 {p} {r} {1.0 / r:.4f} {tag}\n"
                  for p, r in zip(pids, ranks)]
    return "".join(draw(st.permutations(lines)))


@st.composite
def scoring_inputs(draw):
    # A query may end up with no questions. Question index 4 is never in
    # the bank, and a misfiled grade is of another query's question: both
    # must count nowhere.
    bank = QuestionBank({q: tuple(
        ExamQuestion(f"{q}/q/{i}", q, f"Q{i}?")
        for i in range(draw(st.integers(0, 4)))) for q in QUERIES})
    pair_keys = st.tuples(st.sampled_from(QUERIES), st.sampled_from(PASSAGES),
                          st.integers(0, 4))
    ratings = draw(st.dictionaries(pair_keys, st.integers(0, 5), max_size=60))
    verdicts = draw(st.dictionaries(pair_keys, st.booleans(), max_size=10))
    misfiled = draw(st.dictionaries(
        st.tuples(pair_keys, st.sampled_from(QUERIES)), st.integers(0, 5),
        max_size=10))
    grades = [rated(q, p, f"{q}/q/{i}", r) for (q, p, i), r in ratings.items()]
    grades += [verified(q, p, f"{q}/q/{i}", v)
               for (q, p, i), v in verdicts.items()]
    grades += [rated(q, p, f"{other}/q/{i}", r)
               for ((q, p, i), other), r in misfiled.items() if other != q]
    texts = [draw(run_files(f"sys{i}"))
             for i in range(draw(st.integers(1, 3)))]
    policy = GradePolicy(SELF_RATED, min_rating=draw(st.integers(1, 5)),
                         min_answers=draw(st.integers(1, 2)))
    return (bank, grades, list(map(parse_run_file, texts)),
            list(map(run_rows, texts)), policy, draw(st.integers(1, 6)))


@st.composite
def bank_edits(draw, bank):
    """The bank with one question removed, one reworded, one moved to the
    end of a drawn query's questions and one added, as far as its
    questions allow. The added question has index 4, which
    `scoring_inputs` grades but never puts in a bank; a moved question
    keeps its id and text."""
    questions = draw(st.permutations(bank.all_questions()))
    removed, reworded, moved = questions[:1], questions[1:2], questions[2:3]
    query_id = draw(st.sampled_from(bank.query_ids))
    target = draw(st.sampled_from(bank.query_ids))
    added = ExamQuestion(f"{query_id}/q/4", query_id, "An added question?")
    return QuestionBank({q: tuple(
        replace(question, text=f"{question.text} Reworded.")
        if question in reworded else question
        for question in qs if question not in removed + moved)
        + tuple(replace(question, query_id=q)
                for question in moved if q == target)
        + ((added,) if q == query_id else ())
        for q, qs in bank.questions_by_query.items()})


class TestAgainstOracles:
    @given(scoring_inputs())
    @settings(max_examples=150, deadline=None)
    def test_exam_cover(self, inputs):
        bank, grades, runs, rows, policy, depth = inputs
        index = grade_index(grades, policy, bank)
        for run, ranked in zip(runs, rows):
            result = exam_cover(build_passage_pool([run], depth), index)
            assert result == pytest.approx(
                brute_force_cover(ranked, bank, grades, policy, depth))

    @given(st.data(), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_precision_at_k(self, data, k):
        text = data.draw(run_files("sys"))
        judged = data.draw(st.dictionaries(
            st.tuples(st.sampled_from(QUERIES[:2]), st.sampled_from(PASSAGES)),
            st.integers(-2, 3)))
        qrels = parse_qrels("".join(f"{q} 0 {p} {g}\n"
                                    for (q, p), g in judged.items()))
        result = precision_at_k(build_passage_pool([parse_run_file(text)], k),
                                qrels, k)
        assert result == pytest.approx(
            brute_force_precision(run_rows(text), judged, k))

    @given(scoring_inputs())
    @settings(max_examples=100, deadline=None)
    def test_leaderboard_cover_rows(self, inputs):
        bank, grades, runs, rows, policy, depth = inputs
        result = leaderboard(runs, grade_index(grades, policy, bank),
                             metric="cover", depth=depth)
        scores = {r.system: r.score for r in result.rows}
        assert scores[OVERALL_SYSTEM] == pytest.approx(mean(
            brute_force_pooled_cover(rows, bank, grades, policy, depth)))
        for run, ranked in zip(runs, rows):
            assert scores[run.run_tag] == pytest.approx(mean(
                brute_force_cover(ranked, bank, grades, policy, depth)))

    @given(scoring_inputs())
    @settings(max_examples=100, deadline=None)
    def test_leaderboard_p_at_k_rows(self, inputs):
        # P@k with k = depth, over the pool of every top-depth passage.
        bank, grades, runs, rows, policy, depth = inputs
        index = grade_index(grades, policy, bank)
        result = leaderboard(runs, index, metric="p_at_k", depth=depth)
        scores = {r.system: r.score for r in result.rows}
        qrels = brute_force_qrels(grades, bank, policy)
        assert build_qrels(index) == qrels
        assert build_qrels(index, graded=True) \
            == brute_force_qrels(grades, bank, policy, graded=True)
        assert scores[OVERALL_SYSTEM] == pytest.approx(mean(
            brute_force_pooled_precision(rows, qrels, depth, depth)))
        for run, ranked in zip(runs, rows):
            assert scores[run.run_tag] == pytest.approx(mean(
                brute_force_precision(ranked, qrels, depth)))

    @given(st.data(), scoring_inputs())
    @settings(max_examples=100, deadline=None)
    def test_diff_banks(self, data, inputs):
        bank, grades, _, _, policy, _ = inputs
        new = data.draw(bank_edits(bank))
        report = diff_banks(grade_index(grades, policy, bank),
                            grade_index(grades, policy, new))
        lines = [f"{title}\t{qid}\n" for title in (
            "added", "removed", "edited", "needs_grading")
            for qid in getattr(report, title)]
        lines += [f"flip\t{f.query_id}\t{f.passage_id}\t"
                  f"{f.old_label}->{f.new_label}\n" for f in report.flips]
        assert lines == brute_force_diff(bank, new, grades, policy)


# ---------------------------------------------------------------------------
# Coverage


class TestExamCover:
    def test_union_of_two_passages(self):
        # |Q|=5; p1 answers {q0,q1}, p2 answers {q1,q2} -> 3/5.
        bank = simple_bank()
        grades = [rated("q1", "p1", "q1/q/0", 5),
                  rated("q1", "p1", "q1/q/1", 4),
                  rated("q1", "p2", "q1/q/1", 5),
                  rated("q1", "p2", "q1/q/2", 5)]
        result = exam_cover({"q1": ["p1", "p2"]},
                            grade_index(grades, LENIENT, bank))
        assert result == pytest.approx({"q1": 0.6})
        assert metrics.mean(result) == pytest.approx(0.6)

    def test_nothing_answerable(self):
        bank = simple_bank()
        grades = [rated("q1", "p1", "q1/q/0", 0)]
        result = exam_cover({"q1": ["p1"]},
                            grade_index(grades, LENIENT, bank))
        assert result == {"q1": 0.0}

    def test_everything_answerable(self):
        bank = simple_bank()
        grades = [rated("q1", "p1", f"q1/q/{i}", 5) for i in range(5)]
        result = exam_cover({"q1": ["p1"]},
                            grade_index(grades, LENIENT, bank))
        assert result == {"q1": 1.0}

    def test_missing_grades_counted_not_correct(self, caplog):
        bank = simple_bank()
        grades = [rated("q1", "p1", "q1/q/0", 5)]
        result = exam_cover({"q1": ["p1", "p-ungraded"]},
                            grade_index(grades, LENIENT, bank))
        assert result == pytest.approx({"q1": 0.2})
        assert caplog.messages == [
            "coverage gap: 1 pooled passages have no grades"]

    def test_empty_bank_query_excluded_from_mean(self):
        bank = QuestionBank({"q1": simple_bank().questions_for("q1"),
                             "q2": ()})
        grades = [rated("q1", "p1", f"q1/q/{i}", 5) for i in range(5)]
        result = exam_cover({"q1": ["p1"], "q2": ["p2"]},
                            grade_index(grades, LENIENT, bank))
        assert result == {"q1": 1.0}
        assert metrics.mean(result) == 1.0

    def test_monotone_in_passages_and_depth(self):
        rng = random.Random(7)
        bank = simple_bank(n=6)
        grades = [rated("q1", f"p{i}", f"q1/q/{j}", rng.randint(0, 5))
                  for i in range(10) for j in range(6)]
        longer = make_run("sys", [("q1", f"p{i}") for i in range(10)])
        for policy in (LENIENT, GradePolicy(SELF_RATED, min_rating=4)):
            index = grade_index(grades, policy, bank)
            a = exam_cover(build_passage_pool([longer], 5), index)
            b = exam_cover(build_passage_pool([longer], 10), index)
            assert b["q1"] >= a["q1"]
            shallow = exam_cover(build_passage_pool([longer], 3), index)
            assert a["q1"] >= shallow["q1"]

    def test_threshold_monotonicity(self):
        rng = random.Random(13)
        bank = simple_bank(n=6)
        grades = [rated("q1", f"p{i}", f"q1/q/{j}", rng.randint(0, 5))
                  for i in range(8) for j in range(6)]
        passages = {"q1": [f"p{i}" for i in range(8)]}
        strict = exam_cover(passages, grade_index(
            grades, GradePolicy(SELF_RATED, min_rating=4), bank))
        lenient = exam_cover(passages, grade_index(grades, LENIENT, bank))
        assert strict["q1"] <= lenient["q1"]


# ---------------------------------------------------------------------------
# Relevance labels and qrels


def pair_label(ratings, policy, graded=False):
    """The label of one pair whose grades give question i rating
    ratings[i]."""
    bank = simple_bank(n=len(ratings))
    grades = [rated("q1", "p1", f"q1/q/{i}", r)
              for i, r in enumerate(ratings)]
    return grade_index(grades, policy, bank).label("q1", "p1", graded)


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

    @given(ratings=st.lists(st.integers(0, 5), min_size=1, max_size=6),
           threshold=st.integers(1, 5))
    def test_binary_graded_consistency(self, ratings, threshold):
        # Binary label 1 under min_rating=r iff graded label >= r.
        policy = GradePolicy(SELF_RATED, min_rating=threshold)
        binary = pair_label(ratings, policy)
        graded = pair_label(ratings, policy, graded=True)
        assert (binary == 1) == (graded >= threshold)


class TestBuildQrels:
    def test_binary_rows(self):
        bank = simple_bank()
        grades = [rated("q1", "p1", "q1/q/0", 5),
                  rated("q1", "p2", "q1/q/0", 0)]
        labels = build_qrels(grade_index(grades, LENIENT, bank))
        assert labels == {("q1", "p1"): 1, ("q1", "p2"): 0}

    def test_graded_carries_ratings(self):
        bank = simple_bank()
        grades = [rated("q1", "p1", "q1/q/0", 3)]
        labels = build_qrels(grade_index(grades, LENIENT, bank), graded=True)
        assert labels == {("q1", "p1"): 3}

    def test_new_question_changes_only_affected_rows(self):
        bank = simple_bank()
        grades = [rated("q1", "p1", "q1/q/0", 0),
                  rated("q1", "p2", "q1/q/0", 0)]
        before = build_qrels(grade_index(grades, LENIENT, bank))
        grades.append(rated("q1", "p1", "q1/q/1", 5))
        after = build_qrels(grade_index(grades, LENIENT, bank))
        changed = set(after.items()) - set(before.items())
        assert changed == {(("q1", "p1"), 1)}

    def test_unknown_questions_ignored(self):
        bank = simple_bank()
        grades = [rated("q1", "p1", "other-bank/q/0", 5)]
        assert build_qrels(grade_index(grades, LENIENT, bank)) == {}

    def test_graded_needs_self_rated_policy(self):
        # A qa verdict is no rating: graded labels under a qa policy would
        # be the verdicts themselves.
        index = grade_index([verified("q1", "p1", "q1/q/0", True)],
                            GradePolicy(QA_VERIFIED), simple_bank())
        with pytest.raises(ContractViolation, match="--graded needs a "
                           "rate:<min_rating> policy"):
            build_qrels(index, graded=True)
        assert build_qrels(index) == {("q1", "p1"): 1}


# ---------------------------------------------------------------------------
# Precision@k


class TestPrecisionAtK:
    def test_all_relevant(self):
        qrels = {("q1", f"p{i}"): 1 for i in range(20)}
        passages = {"q1": [f"p{i}" for i in range(20)]}
        assert precision_at_k(passages, qrels, 20) == {"q1": 1.0}

    def test_half_relevant(self):
        qrels = {("q1", f"p{i}"): 1 if i < 10 else 0 for i in range(20)}
        passages = {"q1": [f"p{i}" for i in range(20)]}
        assert precision_at_k(passages, qrels, 20) == {"q1": 0.5}

    def test_unjudged_counts_nonrelevant(self):
        qrels = {("q1", "p0"): 1}
        assert precision_at_k({"q1": ["p0", "p-unjudged"]}, qrels, 2) \
            == {"q1": 0.5}

    def test_unjudged_query_skipped(self):
        qrels = {("q1", "p0"): 1}
        assert precision_at_k({"q1": ["p0"], "q2": ["p0"]}, qrels, 1) \
            == {"q1": 1.0}


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

    def test_five_system_permutation_matches_oracle(self):
        a = scores_from([0.9, 0.1, 0.5, 0.7, 0.3])
        b = scores_from([0.2, 0.8, 0.4, 0.1, 0.6])
        va = [a[s] for s in sorted(a)]
        vb = [b[s] for s in sorted(b)]
        assert spearman(a, b) == pytest.approx(oracle_spearman(va, vb),
                                               abs=1e-12)
        assert kendall_tau(a, b) == pytest.approx(
            oracle_kendall_tau_b(va, vb), abs=1e-12)

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

    @given(st.lists(st.integers(-100, 100), min_size=3, max_size=8,
                    unique=True),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_argrank_invariance(self, ints, data):
        # Strictly monotone transforms of either vector leave both
        # statistics unchanged. Integer-spaced inputs keep the transform
        # strictly monotone at float precision.
        values = [float(v) / 10 for v in ints]
        other = data.draw(st.permutations(values))
        a, b = scores_from(values), scores_from(list(other))
        transformed = {k: 3.0 * v + math.exp(v / 20) for k, v in a.items()}
        assert spearman(a, b) == pytest.approx(spearman(transformed, b),
                                               abs=1e-12)
        assert kendall_tau(a, b) == pytest.approx(
            kendall_tau(transformed, b), abs=1e-12)


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
@settings(max_examples=400, deadline=None)
def test_correlations_match_scipy(vectors):
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

    def test_permutation_invariance(self):
        counts = [[12, 5, 3], [2, 30, 4], [7, 1, 25]]
        base = cohens_kappa(counts).overall
        for perm in itertools.permutations(range(3)):
            permuted = [[counts[r][c] for c in perm] for r in perm]
            assert cohens_kappa(permuted).overall == pytest.approx(
                base, abs=1e-12)

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
