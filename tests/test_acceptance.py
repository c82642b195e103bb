"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from exam_eval.bank import diff_banks
from exam_eval.formats import parse_qrels, parse_run_file, write_qrels
from exam_eval.gateway import MockBackend
from exam_eval.grading import build_passage_pool, grade_pair
from exam_eval.metrics import (
    build_qrels,
    cohens_kappa,
    exam_cover,
    kendall_tau,
    leaderboard,
    precision_at_k,
    spearman,
)
from exam_eval.model import (
    GradePolicy, OVERALL_SYSTEM, QA_VERIFIED, SELF_RATED)
from conftest import (
    PASSAGE_IDS, QUERY_IDS, bank_edits, grade_index, run_files,
    scoring_inputs)
from test_cli import ARTIFACTS, run_pipeline, write_pipeline_inputs


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


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
    @given(scoring_inputs(), st.data())
    def scores(inputs, data):
        bank, grades, runs, rows, policy, depth = inputs
        index = grade_index(grades, policy, bank)
        labels = oracles.qrels(grades, bank, policy)
        assert build_qrels(index) == labels
        assert build_qrels(index, graded=True) \
            == oracles.qrels(grades, bank, policy, graded=True)
        for run, ranked in zip(runs, rows):
            assert exam_cover(build_passage_pool([run], depth), index) \
                == pytest.approx(oracles.cover(
                    oracles.pool([ranked], depth), bank, grades, policy))

        # Each leaderboard row scores its own pool, `_overall_` the union.
        pools = {**{run.run_tag: oracles.pool([ranked], depth)
                    for run, ranked in zip(runs, rows)},
                 OVERALL_SYSTEM: oracles.pool(rows, depth)}
        for metric, score in (
                ("cover", lambda pooled: oracles.cover(
                    pooled, bank, grades, policy)),
                ("p_at_k", lambda pooled: oracles.precision(
                    pooled, labels, depth))):
            result = leaderboard(runs, index, metric=metric, depth=depth)
            expected = {system: score(pooled)
                        for system, pooled in pools.items()}
            assert {r.system: r.score for r in result.rows} \
                == pytest.approx({system: oracles.mean(s)
                                  for system, s in expected.items()})
            assert {r.system: r.std_error for r in result.rows} \
                == pytest.approx({system: oracles.std_error(s)
                                  for system, s in expected.items()})

        # A bank edit's report: the edits, then the labels they flip.
        new = data.draw(bank_edits(bank))
        edits = diff_banks(index, grade_index(grades, policy, new))
        lines = [f"{title}\t{qid}\n" for title in (
            "added", "removed", "edited", "needs_grading")
            for qid in getattr(edits, title)]
        lines += [f"flip\t{f.query_id}\t{f.passage_id}\t"
                  f"{f.old_label}->{f.new_label}\n" for f in edits.flips]
        assert lines == oracles.diff(bank, new, grades, policy)

    @given(run_files("sys"), st.dictionaries(st.tuples(
        st.sampled_from(QUERY_IDS[:2]), st.sampled_from(PASSAGE_IDS)),
        st.integers(-2, 3)), st.integers(1, 8))
    def precision(text, judged, k):
        # Judgments as trec_eval reads them, negative grades included.
        qrels = parse_qrels(write_qrels(judged))
        assert precision_at_k(
            build_passage_pool([parse_run_file(text)], k), qrels, k) \
            == pytest.approx(oracles.precision(
                oracles.pool([oracles.run_rows(text)], k), judged, k))

    start = time.monotonic()
    # Rank correlations are checked against the oracles and scipy in
    # test_metrics.py::test_correlations_match_scipy.
    checks = ((scores, 150), (precision, 150))
    for check, examples in checks:
        settings(max_examples=examples, deadline=None)(check)()
    report(3, f"{sum(n for _, n in checks)} random instances match "
              f"brute-force oracles ({time.monotonic() - start:.1f}s)")


def test_criterion_4_invariant_suite():
    @given(scoring_inputs(), st.data())
    @settings(max_examples=100, deadline=None)
    def check(inputs, data):
        bank, grades, runs, _, policy, depth = inputs
        index = grade_index(grades, policy, bank)

        # Cover is monotone in depth, in the runs pooled and in the
        # threshold.
        deeper_pool = build_passage_pool(runs, depth + 1)
        pooled = exam_cover(build_passage_pool(runs, depth), index)
        deeper = exam_cover(deeper_pool, index)
        lenient = exam_cover(deeper_pool, grade_index(
            grades, replace(policy, min_rating=1), bank))
        for run in runs:
            own = exam_cover(build_passage_pool([run], depth), index)
            for query_id, score in own.items():
                assert score <= pooled[query_id] <= deeper[query_id] \
                    <= lenient[query_id]

        # A pair's binary label is 1 iff its graded label reaches the
        # threshold, when one passing question suffices.
        one = grade_index(grades, replace(policy, min_answers=1), bank)
        graded = build_qrels(one, graded=True)
        assert build_qrels(one) == {
            pair: int(label >= policy.min_rating)
            for pair, label in graded.items()}

        # Qrels round-trip byte-stably, in any insertion order.
        text = write_qrels(graded)
        assert write_qrels(parse_qrels(text)) == text
        assert write_qrels(dict(data.draw(
            st.permutations(list(graded.items()))))) == text

        # Kappa is invariant under one permutation of rows and columns.
        size = data.draw(st.integers(2, 4))
        counts = data.draw(st.lists(
            st.lists(st.integers(0, 40), min_size=size, max_size=size),
            min_size=size, max_size=size))
        counts = [[c + 10 * (r == i) for i, c in enumerate(row)]
                  for r, row in enumerate(counts)]
        perm = data.draw(st.permutations(range(size)))
        assert cohens_kappa([[counts[r][c] for c in perm] for r in perm]) \
            .overall == pytest.approx(cohens_kappa(counts).overall, abs=1e-12)

        # Correlations are invariant under strictly monotone transforms.
        ints = data.draw(st.lists(st.integers(-50, 50), min_size=3,
                                  max_size=8, unique=True))
        a = {f"s{i}": float(v) for i, v in enumerate(ints)}
        b = {s: float(data.draw(st.integers(-50, 50))) for s in a}
        transformed = {s: 2.5 * v + math.exp(v / 100) for s, v in a.items()}
        for statistic in (spearman, kendall_tau):
            reference = statistic(a, b)
            assert statistic(transformed, b) == pytest.approx(
                reference, abs=1e-12, nan_ok=True)

    check()
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
    # No lock or temporary file is left behind.
    assert sorted(p.name for p in (tmp_path / "first").iterdir()) \
        == sorted(ARTIFACTS)
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
