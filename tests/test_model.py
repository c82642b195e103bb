import pytest
from hypothesis import given, strategies as st

from exam_eval.model import (
    ContractViolation,
    ExamQuestion,
    Facet,
    Grade,
    GradePolicy,
    Passage,
    QA_VERIFIED,
    Query,
    QuestionBank,
    Run,
    SELF_RATED,
    passes,
)


class TestPolicyIsCorrect:
    def test_strict_rating_at_threshold(self):
        assert passes(4, GradePolicy(SELF_RATED, min_rating=4))

    def test_zero_rating_below_any_threshold(self):
        assert not passes(0, GradePolicy(SELF_RATED, min_rating=1))

    def test_verified_passthrough(self):
        assert passes(True, GradePolicy(QA_VERIFIED))
        assert not passes(False, GradePolicy(QA_VERIFIED))

    @given(rating=st.integers(0, 5), lo=st.integers(1, 5), hi=st.integers(1, 5))
    def test_monotone_in_min_rating(self, rating, lo, hi):
        # Lowering min_rating never turns a true into a false.
        if lo > hi:
            lo, hi = hi, lo
        strict = passes(rating, GradePolicy(SELF_RATED, min_rating=hi))
        lenient = passes(rating, GradePolicy(SELF_RATED, min_rating=lo))
        assert not strict or lenient


class TestGradeInvariant:
    @given(
        mode=st.sampled_from([QA_VERIFIED, SELF_RATED]),
        verified=st.none() | st.booleans(),
        rating=st.none() | st.integers(-1, 6),
    )
    def test_all_mode_field_combinations(self, mode, verified, rating):
        valid = (
            (mode == QA_VERIFIED and verified is not None and rating is None)
            or (mode == SELF_RATED and rating is not None
                and 0 <= rating <= 5 and verified is None))
        if valid:
            Grade("q", "p", "qq", mode, verified=verified, rating=rating)
        else:
            with pytest.raises(ContractViolation):
                Grade("q", "p", "qq", mode, verified=verified, rating=rating)

    def test_unknown_mode(self):
        with pytest.raises(ContractViolation):
            Grade("q", "p", "qq", "vibes", rating=3)


def test_query_rejects_duplicate_facets():
    with pytest.raises(ContractViolation):
        Query("q1", "t", facets=(Facet("f", "a"), Facet("f", "b")))


def test_empty_ids_rejected():
    with pytest.raises(ContractViolation):
        Query("", "t")
    with pytest.raises(ContractViolation):
        Passage("", "text")
    with pytest.raises(ContractViolation):
        Passage("p", "")
    with pytest.raises(ContractViolation):
        ExamQuestion("qq", "q", "")


def test_question_bank_rejects_duplicates_and_mismatched_keys():
    q = ExamQuestion("qq1", "q1", "A?")
    with pytest.raises(ContractViolation):
        QuestionBank({"q1": (q,), "q2": (ExamQuestion("qq1", "q2", "B?"),)})
    with pytest.raises(ContractViolation):
        QuestionBank({"q2": (q,)})


def test_run_rank_and_duplicate_validation():
    with pytest.raises(ContractViolation):
        Run("t", {"q1": [("p1", 0, 1.0)]})
    with pytest.raises(ContractViolation):
        Run("t", {"q1": [("p1", 1, 2.0), ("p1", 2, 1.0)]})
    with pytest.raises(ContractViolation):
        Run("t", {"q1": [("p1", 2, 2.0), ("p2", 1, 1.0)]})


def test_run_rejects_rank_below_one():
    with pytest.raises(ContractViolation, match="rank must be >= 1"):
        Run("t", {"q1": [("p1", 0, 1.0)]})


def test_policy_and_cover_config_bounds():
    with pytest.raises(ContractViolation):
        GradePolicy(SELF_RATED, min_rating=0)
    with pytest.raises(ContractViolation):
        GradePolicy(SELF_RATED, min_answers=0)
