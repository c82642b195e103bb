import json
import re

import pytest
from hypothesis import given, strategies as st

from exam_eval.cli import parse_policy
from exam_eval.formats import (
    ParseError,
    load_queries,
    parse_question_bank,
    parse_run_file,
)
from exam_eval.model import (
    ContractViolation,
    GradePolicy,
    QA_VERIFIED,
    SELF_RATED,
    check_grade,
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
            check_grade("q", "p", "qq", mode, verified, rating)
        else:
            with pytest.raises(ContractViolation):
                check_grade("q", "p", "qq", mode, verified, rating)

    def test_unknown_mode(self):
        with pytest.raises(ContractViolation):
            check_grade("q", "p", "qq", "vibes", None, 3)


# The model types are plain values and check nothing themselves. Their
# rules hold for every value built from input because the readers in
# `formats`, and `parse_policy` for the --policy flag, apply them; each
# test below gives a reader the input shape that breaks one rule.


def write_queries(tmp_path, queries):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(queries))
    return path


def test_query_rejects_duplicate_facets(tmp_path):
    path = write_queries(tmp_path, [{
        "query_id": "q1", "title": "t",
        "facets": [{"facet_id": "f", "title": "a"},
                   {"facet_id": "f", "title": "b"}]}])
    with pytest.raises(ParseError, match="duplicate facet ids in query 'q1'"):
        load_queries(path)


def test_empty_ids_rejected(tmp_path):
    path = write_queries(tmp_path, [{"query_id": "", "title": "t"}])
    with pytest.raises(ParseError, match="query_id must be a non-empty"):
        load_queries(path)
    with pytest.raises(ParseError,
                       match="text of question 'qq' must be a non-empty"):
        parse_question_bank(json.dumps({"queries": [{
            "query_id": "q", "questions": [{"question_id": "qq",
                                            "text": ""}]}]}))


def test_question_bank_rejects_duplicates_and_mismatched_keys():
    # A question is filed under the query whose entry lists it, so only the
    # duplicate id, here across two queries, can be written down.
    with pytest.raises(ParseError, match="duplicate question_id 'qq1'"):
        parse_question_bank(json.dumps({"queries": [
            {"query_id": "q1", "questions": [{"question_id": "qq1",
                                              "text": "A?"}]},
            {"query_id": "q2", "questions": [{"question_id": "qq1",
                                              "text": "B?"}]}]}))


def test_run_rank_and_duplicate_validation():
    with pytest.raises(ParseError, match="rank must be >= 1"):
        parse_run_file("q1 Q0 p1 0 1.0 t\n")
    with pytest.raises(ParseError, match="passage 'p1' listed twice"):
        parse_run_file("q1 Q0 p1 1 2.0 t\nq1 Q0 p1 2 1.0 t\n")
    # Rows out of rank order are sorted, not rejected.
    run = parse_run_file("q1 Q0 p1 2 2.0 t\nq1 Q0 p2 1 1.0 t\n")
    assert run.by_query == {"q1": ["p2", "p1"]}


def test_run_rejects_rank_below_one():
    with pytest.raises(ParseError, match="rank must be >= 1") as excinfo:
        parse_run_file("q1 Q0 p1 0 1.0 t\n")
    assert excinfo.value.line_no == 1


def test_policy_and_cover_config_bounds():
    with pytest.raises(ContractViolation,
                       match=re.escape("min_rating must be in [1, 5], got 0")):
        parse_policy("rate:0")
    with pytest.raises(ContractViolation,
                       match="min_answers must be >= 1, got 0"):
        parse_policy("qa+min-answers=0")
