"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""
import math
import random
import time
from pathlib import Path

import pytest

from exam_eval.formats import parse_qrels, parse_run_file, write_qrels
from exam_eval.gateway import MockBackend
from exam_eval.grading import build_passage_pool, grade_pair
from exam_eval.metrics import (
    build_qrels,
    cohens_kappa,
    exam_cover,
    kendall_tau,
    precision_at_k,
    spearman,
)
from exam_eval.model import (
    ExamQuestion,
    GradePolicy,
    QA_VERIFIED,
    QuestionBank,
    SELF_RATED,
)
from conftest import grade_index, make_run, rated
from test_cli import ARTIFACTS, run_pipeline, write_pipeline_inputs
from test_metrics import (
    brute_force_cover,
    brute_force_precision,
    oracle_kendall_tau_b,
    oracle_spearman,
    pair_label,
    run_rows,
)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def random_run(rng, n_queries, n_passages):
    """A run of random passages per query with its lines shuffled: the
    parsed run, and its rows as the oracles read them."""
    lines = [f"q{qi} Q0 p{pi} {rank} 0 sys\n"
             for qi in range(n_queries)
             for rank, pi in enumerate(rng.sample(
                 range(n_passages), rng.randint(1, n_passages)), start=1)]
    rng.shuffle(lines)
    text = "".join(lines)
    return parse_run_file(text), run_rows(text)


# ---------------------------------------------------------------------------


def test_criterion_1_kappa_reproduction():
    """Published confusion tables reproduce their printed kappas to 0.005."""
    anchors = [
        ([[1661, 1858], [1129, 1704]], (0.074, 0.073)),
        ([[867, 841], [1923, 2721]], (0.079, 0.08)),
        ([[553, 452], [2237, 3110]], (0.078, 0.079)),
    ]
    for counts, printed in anchors:
        result = cohens_kappa(counts)
        for value in printed:
            assert result.overall == pytest.approx(value, abs=0.005), \
                f"kappa for {counts} strays from printed {value}"
            for per_row in result.per_row:
                assert per_row == pytest.approx(value, abs=0.005)
    report(1, "three published binary tables reproduce kappa within 0.005")


def test_criterion_2_worked_example(tqa_question, generated_question,
                                    skin_passage, skin_bank):
    qa_backend = MockBackend({"default": "epidermis"})
    _, (_, verdict, _) = grade_pair(tqa_question, *skin_passage, QA_VERIFIED,
                                    512, qa_backend)
    assert verdict is True

    rating_backend = MockBackend({"default": (
        "4: The answer is mostly relevant and complete but may have minor "
        "gaps or inaccuracies.")})
    rated_grades = [
        grade_pair(q, *skin_passage, SELF_RATED, 512, rating_backend)
        for q in (tqa_question, generated_question)]
    assert all(rating == 4 for _, (_, _, rating) in rated_grades)

    policy = GradePolicy(SELF_RATED, min_rating=4)
    index = grade_index(rated_grades, policy, skin_bank)
    [graded] = build_qrels(index, graded=True).values()
    [binary] = build_qrels(index).values()
    assert graded == 4
    assert binary == 1
    report(2, "skin-anatomy passage verifies 'epidermis', self-rates 4, "
              "graded label 4, binary label 1")


def test_criterion_3_metric_oracles():
    rng = random.Random(20240824)
    start = time.monotonic()

    for trial in range(400):
        n_queries = rng.randint(1, 10)
        n_questions = rng.randint(1, 6)
        n_passages = rng.randint(1, 12)
        depth = rng.randint(1, 10)
        min_rating = rng.randint(1, 5)
        bank = QuestionBank({
            f"q{qi}": tuple(
                ExamQuestion(f"q{qi}/q/{i}", f"q{qi}", f"Q{i}?")
                for i in range(n_questions))
            for qi in range(n_queries)})
        grades = [
            rated(f"q{qi}", f"p{pi}", f"q{qi}/q/{i}", rng.randint(0, 5))
            for qi in range(n_queries)
            for pi in range(n_passages)
            for i in range(n_questions)
            if rng.random() < 0.8]
        run, rows = random_run(rng, n_queries, n_passages)
        policy = GradePolicy(SELF_RATED, min_rating=min_rating)
        expected = brute_force_cover(rows, bank, grades, policy, depth)
        actual = exam_cover(build_passage_pool([run], depth), bank,
                            grade_index(grades, policy, bank))
        assert actual == pytest.approx(expected)

    for trial in range(400):
        n_queries = rng.randint(1, 10)
        n_passages = rng.randint(1, 15)
        k = rng.randint(1, 10)
        judged = {
            (f"q{qi}", f"p{pi}"): rng.randint(-2, 4)
            for qi in range(n_queries)
            for pi in range(n_passages)
            if rng.random() < 0.7}
        qrels = parse_qrels(write_qrels(judged))
        run, rows = random_run(rng, n_queries, n_passages)
        expected = brute_force_precision(rows, judged, k)
        actual = precision_at_k(build_passage_pool([run], k), qrels, k)
        assert actual == pytest.approx(expected)

    for trial in range(300):
        n = rng.randint(3, 8)
        with_ties = rng.random() < 0.5
        draw = (lambda: float(rng.randint(0, 4))) if with_ties \
            else (lambda: rng.random())
        a = [draw() for _ in range(n)]
        b = [draw() for _ in range(n)]
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        scores_a = {f"s{i}": v for i, v in enumerate(a)}
        scores_b = {f"s{i}": v for i, v in enumerate(b)}
        assert spearman(scores_a, scores_b) == pytest.approx(
            oracle_spearman(a, b), abs=1e-12)
        assert kendall_tau(scores_a, scores_b) == pytest.approx(
            oracle_kendall_tau_b(a, b), abs=1e-12)

    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(3, f"1100 random instances match brute-force oracles "
              f"({elapsed:.1f}s)")


def test_criterion_4_invariant_suite():
    rng = random.Random(99)

    # Cover monotonicity in passages and depth; threshold monotonicity.
    for _ in range(50):
        n_questions = rng.randint(1, 6)
        bank = QuestionBank({"q1": tuple(
            ExamQuestion(f"q1/q/{i}", "q1", f"Q{i}?")
            for i in range(n_questions))})
        grades = [rated("q1", f"p{pi}", f"q1/q/{i}", rng.randint(0, 5))
                  for pi in range(10) for i in range(n_questions)]
        prefix = rng.randint(1, 9)
        shorter = {"q1": [f"p{i}" for i in range(prefix)]}
        longer = make_run("s", [("q1", f"p{i}") for i in range(10)])
        pool = build_passage_pool([longer], 20)
        for min_rating in (1, 4):
            index = grade_index(
                grades, GradePolicy(SELF_RATED, min_rating=min_rating), bank)
            assert exam_cover(pool, bank, index)["q1"] \
                >= exam_cover(shorter, bank, index)["q1"]
            assert exam_cover(pool, bank, index)["q1"] >= exam_cover(
                build_passage_pool([longer], rng.randint(1, 10)), bank,
                index)["q1"]
        strict = grade_index(grades, GradePolicy(SELF_RATED, min_rating=4),
                             bank)
        lenient = grade_index(grades, GradePolicy(SELF_RATED, min_rating=1),
                              bank)
        assert exam_cover(pool, bank, strict)["q1"] \
            <= exam_cover(pool, bank, lenient)["q1"]

    # Binary/graded label consistency.
    for _ in range(200):
        ratings = [rng.randint(0, 5) for _ in range(rng.randint(1, 6))]
        threshold = rng.randint(1, 5)
        policy = GradePolicy(SELF_RATED, min_rating=threshold)
        assert (pair_label(ratings, policy) == 1) \
            == (pair_label(ratings, policy, graded=True) >= threshold)

    # Qrels round-trip byte stability.
    for _ in range(50):
        labels = {(f"q{rng.randint(0, 5)}", f"p{i}"): rng.randint(0, 5)
                  for i in range(rng.randint(0, 30))}
        text = write_qrels(labels)
        assert write_qrels(parse_qrels(text)) == text
        items = list(labels.items())
        rng.shuffle(items)
        assert write_qrels(dict(items)) == text

    # Kappa invariance under simultaneous row+column permutation.
    for _ in range(20):
        size = rng.randint(2, 4)
        counts = [[rng.randint(0, 40) + (10 if r == c else 0)
                   for c in range(size)] for r in range(size)]
        base = cohens_kappa(counts).overall
        perm = list(range(size))
        rng.shuffle(perm)
        permuted = [[counts[r][c] for c in perm] for r in perm]
        assert cohens_kappa(permuted).overall == pytest.approx(base, abs=1e-12)

    # Correlation invariance under strictly monotone transforms.
    for _ in range(50):
        n = rng.randint(3, 8)
        a = {f"s{i}": float(v) for i, v in
             enumerate(rng.sample(range(-50, 50), n))}
        b = {f"s{i}": float(rng.randint(-50, 50)) for i in range(n)}
        transformed = {k: 2.5 * v + math.exp(v / 100) for k, v in a.items()}
        assert spearman(a, b) == pytest.approx(
            spearman(transformed, b), abs=1e-12)
        assert kendall_tau(a, b) == pytest.approx(
            kendall_tau(transformed, b), abs=1e-12)

    report(4, "monotonicity, label consistency, round-trip, and "
              "permutation invariants hold")


def test_criterion_5_end_to_end_determinism(tmp_path):
    write_pipeline_inputs(tmp_path)
    run_pipeline(tmp_path, tmp_path / "first")
    run_pipeline(tmp_path, tmp_path / "second")
    for name in ARTIFACTS:
        assert (tmp_path / "first" / name).read_bytes() \
            == (tmp_path / "second" / name).read_bytes(), \
            f"{name} differs between identical runs"
    lines = (tmp_path / "first" / "leaderboard.tsv").read_text().splitlines()
    systems = [line.split("\t")[0] for line in lines[1:]]
    assert systems.index("sysA") < systems.index("sysB"), \
        "dominant system not ranked first"
    report(5, "mock pipeline is byte-deterministic and ranks the "
              "dominant system first")


def test_criterion_6_real_data_procedure_documented():
    # Full leaderboard correlations need TREC submissions, official
    # judgments, and live grading; the substitute is a documented
    # procedure for running against real data.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "Reproducing" in text or "real TREC" in text
    report(6, "README documents the procedure for re-running against "
              "real TREC data")
