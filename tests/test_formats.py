import gzip
import io
import json
import logging
import re
import signal
import string
import tempfile
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from exam_eval import formats
from exam_eval.formats import (
    GradeStore,
    ParseError,
    _CANONICAL_LINES,
    _decode_grade,
    _first_fault,
    _grade_to_json,
    load_leaderboard_scores,
    load_official_ranks,
    load_passages,
    load_qrels,
    load_queries,
    load_question_bank,
    load_run_file,
    parse_qrels,
    parse_question_bank,
    parse_run_file,
    save_question_bank,
    write_qrels,
)
from exam_eval.model import (
    ContractViolation,
    ExamQuestion,
    Facet,
    GradeIndex,
    GradePolicy,
    QA_VERIFIED,
    Query,
    QuestionBank,
    SELF_RATED,
)
import oracles
from conftest import (
    grade_index,
    lock_holder,
    rated,
    stored_grades,
    verified,
)


# A fault a run line may carry, as (column, text), or a dropped field for
# column None. Column 2 "0", the ranks "+2" and "٣" and the score "nan" are
# no fault; rank "2" and passage "pA" are one only where they repeat in
# their query.
RUN_LINE_FAULTS = st.sampled_from([
    (1, "0"), (1, "Q1"), (2, "pA"), (3, "+2"), (3, "٣"), (3, "0"),
    (3, "-1"), (3, "1.5"), (3, "2"), (4, "nan"), (4, "x"), (5, "other"),
    (None, None)])


@st.composite
def run_texts(draw):
    """A run file's text, mostly good lines: each query's lines together,
    its ranks in any order, or all lines shuffled across queries. One line
    in eight carries a fault, a query may end in a blank line, and lines
    end in any break that `str.splitlines` knows."""
    lines = []
    for qid in draw(st.lists(st.sampled_from(["q1", "q2", "q3"]),
                             unique=True, max_size=3)):
        passages = draw(st.permutations(["pA", "pB", "pC", "pD"]))[
            :draw(st.integers(1, 4))]
        for passage, rank in zip(passages,
                                 draw(st.permutations(range(1, 6)))):
            fields = [qid, "Q0", passage, str(rank), "1.5", "sys"]
            if draw(st.integers(0, 7)) == 0:
                column, text = draw(RUN_LINE_FAULTS)
                if column is None:
                    del fields[draw(st.integers(0, 5))]
                else:
                    fields[column] = text
            lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(fields))
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " \t"])))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b"]))
                   for line in lines)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def logged(call):
    """What `call()` gives, or its `ParseError`'s text and line number; and
    the messages it logged, in order."""
    logger, handler = logging.getLogger("exam_eval.formats"), _Messages()
    logger.addHandler(handler)
    try:
        outcome = call()
    except ParseError as exc:
        outcome = (str(exc), exc.line_no)
    finally:
        logger.removeHandler(handler)
    return outcome, handler.messages


NO_RUN_LINES = ("no run lines: a run's tag, from its first line, names its "
                "leaderboard row")


def fault_wording(fields, earlier, run_tag):
    """The error for a run line's first fault, as `oracles.run_rows` lists
    the faults; `earlier` holds the fields of the lines before it."""
    if len(fields) != 6:
        return f"expected 6 whitespace-separated fields, got {len(fields)}"
    qid, column_2, docid, rank, score, _ = fields
    if column_2 not in ("Q0", "0"):
        return f"expected 'Q0' or '0' in column 2, got {column_2!r}"
    try:
        rank = int(rank)
        float(score)
    except ValueError as exc:
        return str(exc)
    if rank < 1:
        return f"rank must be >= 1, got {rank} for ({qid}, {docid})"
    what, value = (("passage", repr(docid))
                   if any(f[0] == qid and f[2] == docid for f in earlier)
                   else ("rank", rank))
    return f"{what} {value} listed twice for query {qid!r} in run {run_tag!r}"


def checked_parse(text):
    """What `parse_run_file(text)` gives, as the run's tag with its queries
    and passages in rank order, or its error's text; and the messages it
    logged. Both are first checked against `oracles.run_rows`: a run is the
    oracle's rows, ranked here, its `top_k` their prefixes, and
    `_first_fault` finds no fault in it; any other text is rejected at the
    oracle's first faulty line, worded by `fault_wording`. Either way a
    warning is logged for each line before the first faulty one whose tag
    differs from the first line's, in line order."""
    lines = text.splitlines()
    try:
        rows, fault_no = oracles.run_rows(text), None
    except ValueError as exc:
        rows, fault_no = None, exc.args[0]
    good = [(line_no, fields)
            for line_no, fields in enumerate(map(str.split, lines), 1)
            if fields and (fault_no is None or line_no < fault_no)]
    run_tag = good[0][1][5] if good else None
    run, messages = logged(lambda: parse_run_file(text))
    assert messages == [
        f"line {line_no}: run tag {fields[5]!r} differs from {run_tag!r}; "
        "keeping the first"
        for line_no, fields in good if fields[5] != run_tag]
    if rows is None:
        assert run == (NO_RUN_LINES if fault_no is None else
                       f"line {fault_no}: " + fault_wording(
                           lines[fault_no - 1].split(),
                           [fields for _, fields in good], run_tag), fault_no)
        return run[0], messages
    ranked = {query_id: [p for p, _ in sorted(rows[query_id],
                                              key=itemgetter(1))]
              for query_id in sorted(rows)}
    assert (run.run_tag, list(run.by_query.items())) \
        == (run_tag, list(ranked.items()))
    assert run.query_ids == list(ranked)
    assert all(run.top_k(query_id, k) == passages[:k]
               for query_id, passages in ranked.items()
               for k in range(1, len(passages) + 2))
    assert run.top_k("q-unranked", 1) == []
    assert _first_fault(lines) is None
    return (run.run_tag, list(run.by_query.items())), messages


@settings(deadline=None, max_examples=300)
@given(run_texts())
def test_run_file_parse_matches_line_loop(text):
    checked_parse(text)


class TestRunParsing:
    """Worked examples, each checked against the oracle too
    (`checked_parse`): a run as its tag and its queries' passages, or an
    error's text; and the warnings logged."""

    def test_single_row(self):
        assert checked_parse("q1 Q0 pA 1 12.5 sysX\n") \
            == (("sysX", [("q1", ["pA"])]), [])

    def test_empty_file(self):
        # Without a line there is no tag to name the run's row.
        for text in ("", "\n  \n"):
            assert checked_parse(text) == (NO_RUN_LINES, [])

    def test_out_of_order_ranks_sorted(self):
        assert checked_parse("q1 Q0 pB 2 1.0 sys\nq1 Q0 pA 1 2.0 sys\n") \
            == (("sys", [("q1", ["pA", "pB"])]), [])

    def test_zero_literal_accepted(self):
        assert checked_parse("q1 0 pA 1 1.0 sys\n") \
            == (("sys", [("q1", ["pA"])]), [])

    def test_malformed_line_carries_number(self):
        assert checked_parse("q1 Q0 pA 1 1.0 s\nq1 Q0 pB oops 1.0 s\n") == (
            "line 2: invalid literal for int() with base 10: 'oops'", [])
        # The score orders nothing, but a word there is still malformed.
        assert checked_parse("q1 Q0 pA 1 1.0 s\nq1 Q0 pB 2 high s\n") == (
            "line 2: could not convert string to float: 'high'", [])

    def test_duplicate_pair_rejected(self):
        assert checked_parse("q1 Q0 pA 1 2.0 s\nq2 Q0 pA 2 1.0 s\n"
                             "q1 Q0 pA 2 1.0 s\n") == (
            "line 3: passage 'pA' listed twice for query 'q1' in run 's'", [])

    def test_duplicate_rank_rejected(self):
        assert checked_parse("q1 Q0 pA 3 2.0 s\nq2 Q0 pA 3 2.0 s\n"
                             "q1 Q0 pB 3 1.0 s\n") == (
            "line 3: rank 3 listed twice for query 'q1' in run 's'", [])

    def test_repeat_reported_at_its_first_line(self):
        # Rows are sorted by rank before the check; the error still names
        # the first line, in file order, that repeats a passage or a rank.
        assert checked_parse("q1 Q0 pC 5 1.0 s\nq1 Q0 pA 2 2.0 s\n"
                             "q1 Q0 pB 2 1.0 s\nq1 Q0 pC 1 1.0 s\n") == (
            "line 3: rank 2 listed twice for query 'q1' in run 's'", [])

    def test_repeat_reported_at_first_line_across_queries(self):
        # q2 comes first in the file, but q1 repeats itself first.
        assert checked_parse("q2 Q0 pA 1 1.0 s\nq1 Q0 pB 1 1.0 s\n"
                             "q1 Q0 pB 2 1.0 s\nq2 Q0 pA 2 1.0 s\n") == (
            "line 3: passage 'pB' listed twice for query 'q1' in run 's'", [])

    def test_rank_zero_carries_line_number(self):
        assert checked_parse("q1 Q0 pA 1 2.0 s\nq1 Q0 pB 0 1.0 s\n") == (
            "line 2: rank must be >= 1, got 0 for (q1, pB)", [])

    def test_rows_grouped_per_query_in_rank_order(self):
        assert checked_parse("q2 Q0 pC 1 3.0 s\nq1 Q0 pB 7 1.0 s\n"
                             "q1 Q0 pA 2 2.0 s\n") \
            == (("s", [("q1", ["pA", "pB"]), ("q2", ["pC"])]), [])

    def test_inconsistent_tag_keeps_first(self):
        assert checked_parse("q1 Q0 pA 1 2.0 one\nq1 Q0 pB 2 1.0 two\n") \
            == (("one", [("q1", ["pA", "pB"])]), [
                "line 2: run tag 'two' differs from 'one'; keeping the first"])

    def test_repeat_before_a_later_malformed_line_reported_at_the_repeat(
            self):
        assert checked_parse("q1 Q0 pA 1 1.0 s\nq1 Q0 pA 2 1.0 s\n"
                             "q1 Q0 pB x 1.0 s\n") == (
            "line 2: passage 'pA' listed twice for query 'q1' in run 's'", [])

    def test_second_tag_in_a_shuffled_file_warns_per_line_in_order(self):
        assert checked_parse(
            "q2 Q0 pB 2 1.0 one\nq1 Q0 pA 3 1.0 two\nq2 Q0 pA 1 1.0 one\n"
            "\nq1 Q0 pC 1 1.0 three\nq1 Q0 pB 2 1.0 one\n") == (
            ("one", [("q1", ["pC", "pB", "pA"]), ("q2", ["pA", "pB"])]),
            [f"line {n}: run tag {tag!r} differs from 'one'; keeping the first"
             for n, tag in ((2, "two"), (5, "three"))])


class TestQrels:
    def test_single_row(self):
        assert parse_qrels("q1 0 pA 3\n") == {("q1", "pA"): 3}

    def test_negative_grade_parses_and_collapses(self):
        assert parse_qrels("q1 0 pA -2\nq1 0 pB -1\n") \
            == {("q1", "pA"): 0, ("q1", "pB"): 0}

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            parse_qrels("q1 0 pA 3\nq1 0 pA 3\n")
        assert excinfo.value.line_no == 2

    def test_grade_below_minus_two_carries_line_number(self):
        with pytest.raises(ParseError, match=">= -2, got -3") as excinfo:
            parse_qrels("q1 0 pA 1\n\nq1 0 pB -3\n")
        assert excinfo.value.line_no == 3

    def test_non_integer_grade(self):
        with pytest.raises(ParseError):
            parse_qrels("q1 0 pA high\n")

    def test_single_row_emission(self):
        assert write_qrels({("q1", "pA"): 4}) == "q1 0 pA 4\n"

    def test_empty(self):
        assert write_qrels({}) == ""

    @given(st.lists(
        st.tuples(st.text(alphabet="abcq", min_size=1, max_size=4),
                  st.text(alphabet="xyzp", min_size=1, max_size=4),
                  st.integers(-2, 5)),
        unique_by=lambda t: (t[0], t[1]), max_size=20))
    def test_round_trip_and_determinism(self, rows):
        labels = {(q, p): g for q, p, g in rows}
        text = write_qrels(labels)
        assert parse_qrels(text) == {key: max(g, 0)
                                     for key, g in labels.items()}
        # Byte-determinism: shuffled input serializes identically.
        assert write_qrels(dict(reversed(labels.items()))) == text


# A bank's text field: ASCII with its quotes, backslash and control
# characters, and characters past ASCII. Not all of Unicode: `st.text()`
# builds Hypothesis's Unicode table on first use, seconds on a fresh
# checkout.
bank_fields = st.lists(st.sampled_from(
    string.printable + "\x00\x1f\x7f\x85\u2028é€\U0001f600"),
    min_size=1, max_size=6).map("".join)


@st.composite
def question_banks(draw):
    """0-3 queries and 0-6 questions filed under them: a query may have no
    question."""
    query_ids = draw(st.lists(bank_fields, max_size=3, unique=True))
    questions = {query_id: [] for query_id in query_ids}
    for question_id in (draw(st.lists(bank_fields, max_size=6, unique=True))
                        if query_ids else ()):
        query_id = draw(st.sampled_from(query_ids))
        questions[query_id].append(ExamQuestion(
            question_id, query_id, draw(bank_fields),
            draw(st.none() | bank_fields), draw(st.none() | bank_fields)))
    return QuestionBank({query_id: tuple(qs)
                         for query_id, qs in questions.items()})


class TestQuestionBank:
    def bank(self):
        return QuestionBank({"q1": (
            ExamQuestion("q1/q/0", "q1", "A?"),
            ExamQuestion("q1/q/1", "q1", "B?", gold_answer="b"),
        )})

    @given(question_banks())
    def test_round_trip_byte_identical(self, bank):
        # The bank is written as the JSON encoder writes it with indent 2,
        # and read back as itself.
        text = save_question_bank(bank)
        assert text == oracles.bank_text(bank)
        assert parse_question_bank(text) == bank

    def test_gold_answer_survives(self):
        loaded = parse_question_bank(save_question_bank(self.bank()))
        questions = loaded.questions_for("q1")
        assert questions[0].gold_answer is None
        assert questions[1].gold_answer == "b"
        assert questions[1].supports_verification

    def test_order_preserved(self):
        loaded = parse_question_bank(save_question_bank(self.bank()))
        assert [q.question_id for q in loaded.questions_for("q1")] \
            == ["q1/q/0", "q1/q/1"]

    def test_duplicate_question_id_rejected(self):
        text = """{"queries": [{"query_id": "q1", "questions": [
            {"question_id": "d", "text": "A?"},
            {"question_id": "d", "text": "B?"}]}]}"""
        with pytest.raises(ParseError, match="duplicate question_id 'd'"):
            parse_question_bank(text)

    def test_non_string_ids_rejected(self):
        text = """{"queries": [{"query_id": "q1", "questions": [
            {"question_id": 7, "text": "A?"}]}]}"""
        with pytest.raises(ParseError, match="question_id in query 'q1' "
                           "must be a non-empty string, got 7"):
            parse_question_bank(text)
        with pytest.raises(ParseError,
                           match="query_id must be a non-empty string, got 1"):
            parse_question_bank('{"queries": [{"query_id": 1}]}')

    def test_missing_text_rejected(self):
        text = '{"queries": [{"query_id": "q1", "questions": [{"question_id": "x"}]}]}'
        with pytest.raises(ParseError, match="text of question 'x'"):
            parse_question_bank(text)

    @pytest.mark.parametrize("field, value", [
        ("text", 5), ("text", ["A?"]), ("gold_answer", ""),
        ("gold_answer", 42), ("gold_answer", ["a"]), ("question_id", ""),
        ("facet_id", ""), ("facet_id", 3),
    ])
    def test_question_fields_must_be_non_empty_strings(self, field, value):
        question = {"question_id": "x", "text": "A?", "gold_answer": "a",
                    field: value}
        with pytest.raises(ParseError,
                           match=f"{field} .*must be a non-empty string"):
            parse_question_bank(json.dumps(
                {"queries": [{"query_id": "q1", "questions": [question]}]}))

    def test_null_gold_answer_accepted(self):
        bank = parse_question_bank(json.dumps({"queries": [{
            "query_id": "q1", "questions": [
                {"question_id": "x", "text": "A?", "gold_answer": None}]}]}))
        assert bank.questions_for("q1")[0].gold_answer is None


@pytest.mark.parametrize("load, text", [
    (load_run_file, "q1 Q0 d1 1 2.0 runA\nq1 Q0 d2 2 1.0 runA\n"),
    (load_qrels, "q1 0 d1 1\nq1 0 d2 0\n"),
    (load_question_bank, '{"queries": [{"query_id": "q1", "questions": '
                         '[{"question_id": "x", "text": "A?"}]}]}'),
], ids=["run", "qrels", "bank"])
def test_byte_order_mark_is_skipped(tmp_path, load, text):
    # Some Windows tools start a UTF-8 file with the mark EF BB BF; read
    # as text, it would join the first line's query id.
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load(marked) == load(plain)


def write_json(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return path


class TestQueries:
    def test_facets_read(self, tmp_path):
        path = write_json(tmp_path, [
            {"query_id": "q1", "title": "one",
             "facets": [{"facet_id": "f1", "title": "F one"}]},
            {"query_id": "q2", "title": "two"}])
        assert load_queries(path) == [
            Query("q1", "one", (Facet("f1", "F one"),)), Query("q2", "two")]

    @pytest.mark.parametrize("query, message", [
        ({"query_id": 1, "title": "t"}, "query_id must be a non-empty string"),
        ({"query_id": "q1", "title": ""},
         "title of query 'q1' must be a non-empty string"),
        ({"query_id": "q1", "title": None},
         "title of query 'q1' must be a non-empty string, got None"),
        ({"query_id": "q1", "title": "t",
          "facets": [{"facet_id": "", "title": "a"}]},
         "facet_id in query 'q1' must be a non-empty string"),
        ({"query_id": "q1", "title": "t",
          "facets": [{"facet_id": "f", "title": 3}]},
         "title of facet 'f' must be a non-empty string, got 3"),
    ], ids=["int-id", "empty-title", "null-title", "empty-facet-id",
            "int-facet-title"])
    def test_bad_field_names_the_file(self, tmp_path, query, message):
        path = write_json(tmp_path, [query])
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            load_queries(path)

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text("[{")
        with pytest.raises(ParseError,
                           match=re.escape(f"{path}: invalid JSON")):
            load_queries(path)


class TestPassages:
    def test_null_text_reads_as_no_text(self, tmp_path):
        path = write_json(tmp_path, {"p1": None, "p2": "alpha", "p3": ""})
        assert load_passages(path) == {"p2": "alpha"}

    @pytest.mark.parametrize("text, kind", [
        (7, "int"), (["a"], "list"), ({"t": "a"}, "dict"), (True, "bool")])
    def test_non_string_text_rejected(self, tmp_path, text, kind):
        path = write_json(tmp_path, {"p1": "alpha", "p2": text})
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: text of passage 'p2' must be a string or null, "
                f"got {kind}")):
            load_passages(path)


class TestOfficialRanks:
    def test_numbers_numeric_strings_and_null(self, tmp_path):
        doc = {"a": 1, "b": 2.5, "c": "3", "d": None}
        ranks = load_official_ranks(write_json(tmp_path, doc))
        assert ranks == {"a": 1.0, "b": 2.5, "c": 3.0, "d": None}
        assert [type(r) for r in ranks.values()] == [float] * 3 + [type(None)]

    def test_integer_too_large_for_a_float_rejected(self, tmp_path):
        path = write_json(tmp_path, {"a": 10 ** 400})
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: official rank of 'a' must be a number or null")):
            load_official_ranks(path)


class TestLeaderboardScores:
    def test_header_and_overall_skipped(self, tmp_path):
        path = tmp_path / "lb.tsv"
        path.write_text("system\tscore\tstd_error\tofficial_rank\n"
                        "_overall_\t1.0\t0.0\t\nsysA\t0.5\t0.1\t1\n\n")
        assert load_leaderboard_scores(path) == {"sysA": 0.5}

    def test_only_the_first_line_is_a_header(self, tmp_path):
        path = tmp_path / "lb.tsv"
        path.write_text("system\tscore\tstd_error\tofficial_rank\n"
                        "sysB\t0.7\t0.1\t\nsystem\t0.5\t0.1\t\n")
        assert load_leaderboard_scores(path) == {"sysB": 0.7, "system": 0.5}

    def test_bad_score_names_file_and_line(self, tmp_path):
        path = tmp_path / "lb.tsv"
        path.write_text("system\tscore\nsysA\t0.5\nsysB\thigh\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: line 3: bad score 'high' for 'sysB'")):
            load_leaderboard_scores(path)

    def test_repeated_system_names_file_and_line(self, tmp_path):
        path = tmp_path / "lb.tsv"
        path.write_text("system\tscore\nA\t0.5\nB\t0.3\nA\t0.1\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: line 4: duplicate system 'A'")):
            load_leaderboard_scores(path)


class TestGradeStore:
    # Worked examples of `check_round_trip`, each batch one append.
    def test_append_read(self):
        check_round_trip([[rated("q1", "p1", "qq1", 3),
                           rated("q1", "p2", "qq1", 0)]])

    def test_last_writer_wins(self):
        check_round_trip([[rated("q1", "p1", "qq1", 2)],
                          [rated("q1", "p1", "qq1", 4)]])

    def test_missing_file_reads_empty(self):
        check_round_trip([])

    def test_lock_excludes_second_writer(self, tmp_path):
        # A lock belongs to an open file, so a second `locked()` is refused
        # in the same process too; no side file is made.
        store = GradeStore(tmp_path / "g.jsonl.gz")
        with store.locked():
            with pytest.raises(ContractViolation, match=re.escape(
                    f"grade store {store.path} is being written by another "
                    f"process")):
                with GradeStore(store.path).locked():
                    pass
            store.append(dict([rated("q1", "p1", "qq1", 1)]))
        with store.locked():
            pass
        assert len(stored_grades(store)) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["g.jsonl.gz"]

    def test_lock_of_a_killed_holder_is_released(self, tmp_path):
        store = GradeStore(tmp_path / "g.jsonl.gz")
        with lock_holder(store.path) as holder:
            with pytest.raises(ContractViolation):
                with store.locked():
                    pass
            holder.kill()
            assert holder.wait(timeout=10) == -signal.SIGKILL
        with store.locked():
            store.append(dict([rated("q1", "p1", "qq1", 1)]))
        assert len(stored_grades(store)) == 1

    def test_corrupt_line_reports_position(self, tmp_path):
        check_bad_line(tmp_path, *LINE_FAULTS["invalid-json"])

    def test_bulk_round_trip(self):
        # One member of 10,000 grades spans many of the chunks it is read in.
        check_round_trip([[rated(f"q{i % 17}", f"p{i % 211}", f"qq{i}", i % 6)
                           for i in range(10_000)]])

    def test_append_bytes_match_line_by_line_writes(self, tmp_path):
        # One write per batch compresses to the bytes that writing each
        # line on its own gives, over several deflate blocks too.
        texts = ["café", "日本語", "line\u2028break", "{braces} {}",
                 "é{x}\u2028", None, ""]
        batches = [
            dict(verified("q1", f"p{i}", "qq1", i % 3 == 0,
                          texts[i % len(texts)]) for i in range(7)),
            dict(rated(f"q{i % 5}", f"p{i}", f"qq{i % 13}", i % 6,
                       f"{texts[i % 5]} {i * 7919 % 104729}")
                 for i in range(20_000)),
        ]
        store = GradeStore(tmp_path / "g.jsonl.gz")
        expected = io.BytesIO()
        for batch in batches:
            store.append(batch)
            with gzip.GzipFile(filename="", mode="ab", fileobj=expected,
                               compresslevel=6, mtime=0) as fh:
                fh.writelines(json_lines(batch))
        assert store.path.read_bytes() == expected.getvalue()

    def test_level_9_store_reads_on_after_an_append(self, tmp_path):
        # Stores were once written at gzip level 9; every member stands
        # alone, so an append at today's level reads after it, in order.
        old = dict([rated("q1", "p1", "qq1", 2), rated("q1", "p2", "qq1", 5)])
        new = dict([rated("q1", "p1", "qq1", 4), rated("q2", "p3", "qq2", 0)])
        store = GradeStore(tmp_path / "g.jsonl.gz")
        with gzip.GzipFile(store.path, mode="wb", compresslevel=9,
                           mtime=0) as fh:
            fh.writelines(json_lines(old))
        store.append(new)
        assert stored_grades(store) == list({**old, **new}.items())
        with gzip.open(store.path, "rt", encoding="utf-8") as fh:
            assert [tuple(json.loads(line)[f] for f in GRADE_FIELDS)
                    for line in fh] == [key + row for batch in (old, new)
                                        for key, row in batch.items()]

    def test_appends_of_the_same_rows_are_byte_identical(self, tmp_path):
        rows = dict(rated(f"q{i % 3}", f"p{i}", "qq1", i % 6, "café {x}")
                    for i in range(50))
        stores = [GradeStore(tmp_path / f"g{n}.jsonl.gz") for n in range(2)]
        for store in stores:
            store.append(rows)
            store.append(rows)
        assert stores[0].path.read_bytes() == stores[1].path.read_bytes()


# ---------------------------------------------------------------------------
# Grade store decode

GRADE_FIELDS = ("query_id", "passage_id", "question_id", "mode",
                "answer_text", "verified", "rating")


def json_lines(rows):
    """Each grade of `rows` as the line `json.dumps` writes, keys sorted."""
    return [(json.dumps(dict(zip(GRADE_FIELDS, key + row)), ensure_ascii=False,
                        sort_keys=True) + "\n").encode()
            for key, row in rows.items()]


def store_line(**record):
    base = {"query_id": "q1", "passage_id": "p1", "question_id": "qq1",
            "mode": SELF_RATED, "answer_text": "4", "verified": None,
            "rating": 4}
    return json.dumps({**base, **record})


def write_store_lines(path, lines):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


GOOD_LINES = [store_line(passage_id=f"p{i}") for i in range(4)]


# A record's fields that reading rejects, by the wording of the error, and
# that `append` rejects as a row.
FIELD_FAULTS = {
    "list-query-id": ({"query_id": ["q1"]}, "must be strings"),
    "null-passage-id": ({"passage_id": None}, "must be strings"),
    "int-question-id": ({"question_id": 7}, "must be strings"),
    "unknown-mode": ({"mode": "vibes"}, "unknown grade mode 'vibes'"),
    "rating-6": ({"rating": 6}, r"rating must be in \[0, 5\], got 6"),
    "rating-and-verified": ({"verified": True},
                            "self_rated grade needs `rating`"),
    "qa-without-verified": ({"mode": QA_VERIFIED, "rating": None},
                            "qa_verified grade needs `verified`"),
    "bool-rating": ({"rating": True}, "rating must be an integer, got True"),
    "float-rating": ({"rating": 4.5}, "rating must be an integer, got 4.5"),
    "string-rating": ({"rating": "4"},
                      "rating must be an integer, got '4'"),
    "string-verified": ({"mode": QA_VERIFIED, "verified": "no",
                         "rating": None},
                        "verified must be true or false, got 'no'"),
    "int-verified": ({"mode": QA_VERIFIED, "verified": 1, "rating": None},
                     "verified must be true or false, got 1"),
    "list-answer-text": ({"answer_text": ["x"]},
                         r"answer_text must be a string or null, got \['x'\]"),
}
# A store line that reading rejects, by the wording of the error.
LINE_FAULTS = {
    "invalid-json": ('{"query_id": "q1"', "invalid JSON"),
    "two-objects": (GOOD_LINES[0] + "," + GOOD_LINES[1], "invalid JSON"),
    "split-object": ('{"query_id": "q1", "passage_id": "p9",',
                     "invalid JSON"),
    "array": ("[1]", "must be a JSON object"),
    "unknown-field": (store_line(extra=1),
                      r"unknown grade fields \['extra'\]"),
    "missing-query-id": (json.dumps({"passage_id": "p1", "question_id": "qq1",
                                     "mode": SELF_RATED, "rating": 4}),
                         r"missing grade fields \['query_id'\]"),
    "trailing-u2028": (GOOD_LINES[0] + "\u2028", "invalid JSON: Extra data"),
    "trailing-vertical-tab": (GOOD_LINES[0] + "\x0b",
                              "invalid JSON: Extra data"),
    "huge-int": ('{"rating": ' + "9" * 5000 + "}", "invalid JSON: Exceeds"),
    "deep-nesting": ("[" * 100_000, "invalid JSON: maximum recursion depth"),
    **{name: (store_line(**fields), message)
       for name, (fields, message) in FIELD_FAULTS.items()},
}


def check_bad_line(tmp_path, bad, message):
    """A store whose fifth line is `bad` is rejected at line 5, worded by
    `message`."""
    path = tmp_path / "g.jsonl.gz"
    # The split object's second half is line 6, after the bad line 5.
    write_store_lines(path, GOOD_LINES + [bad, '"rating": 4}', GOOD_LINES[0]])
    with pytest.raises(ParseError, match=message) as excinfo:
        GradeStore(path).read()
    assert excinfo.value.line_no == 5


class TestGradeStoreDecode:
    @pytest.mark.parametrize("bad, message", LINE_FAULTS.values(),
                             ids=list(LINE_FAULTS))
    def test_bad_line_reports_its_number(self, tmp_path, bad, message):
        check_bad_line(tmp_path, bad, message)

    def test_blank_and_padded_lines(self, tmp_path):
        path = tmp_path / "g.jsonl.gz"
        write_store_lines(path, ["", GOOD_LINES[0], "   ", "\t \r",
                                 "  " + GOOD_LINES[1] + " \t", ""])
        assert [key[1] for key in GradeStore(path).read()] \
            == ["p0", "p1"]
        write_store_lines(path, ["", "  ", GOOD_LINES[0], "\t", "[1]"])
        with pytest.raises(ParseError) as excinfo:
            GradeStore(path).read()
        assert excinfo.value.line_no == 5

    def test_raw_carriage_return_is_json_whitespace(self, tmp_path):
        # Lines end at "\n" only: a CR inside a record, or before its
        # "\n", is whitespace to the JSON decoder.
        path = tmp_path / "g.jsonl.gz"
        write_store_lines(path, ['{"query_id": "q1",\r"passage_id": "p1", '
                                 '"question_id": "x", "mode": "self_rated", '
                                 '"rating": 3}', GOOD_LINES[0] + "\r"])
        assert list(GradeStore(path).read()) \
            == [("q1", "p1", "x", SELF_RATED), ("q1", "p0", "qq1", SELF_RATED)]

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "g.jsonl.gz"
        path.write_bytes(gzip.compress(GOOD_LINES[0].encode()))
        assert [key[1] for key in GradeStore(path).read()] == ["p0"]
        path.write_bytes(gzip.compress((GOOD_LINES[0] + "x").encode()))
        with pytest.raises(ParseError, match="invalid JSON"):
            GradeStore(path).read()

    @pytest.mark.parametrize("fields, message", FIELD_FAULTS.values(),
                             ids=list(FIELD_FAULTS))
    def test_grade_rejects_what_reading_rejects(self, tmp_path, fields,
                                                message):
        # `append` checks every row first, so no store can hold a line that
        # reading rejects for its fields, and a bad batch writes nothing.
        record = json.loads(store_line(**fields))
        # A dict key cannot hold a list; a tuple is the hashable non-string.
        values = [tuple(v) if isinstance(v, list) else v
                  for v in map(record.get, GRADE_FIELDS)]
        store = GradeStore(tmp_path / "store.jsonl.gz")
        store.append(dict([rated("q1", "p0", "qq1", 4)]))
        before = store.path.read_bytes()
        with pytest.raises(ContractViolation):
            store.append(dict([rated("q1", "p1", "qq1", 3),
                               (tuple(values[:4]), tuple(values[4:]))]))
        assert store.path.read_bytes() == before

    def test_rows_and_keys(self):
        check_round_trip([[rated("q1", "p1", "qq1", 3, "3"),
                           verified("q1", "p1", "qq1", True, "x")]])


ANSWER_TEXTS = st.none() | st.lists(st.sampled_from(
    ["a", " ", " ", "\x85", "\r", "\n", "{braces}", '"', "'", "\\",
     "é", "日本"]), max_size=6).map("".join)


GRADE_KEYS = st.tuples(st.sampled_from(["q1", "q2"]),
                       st.sampled_from(["p1", "p2", "p3"]),
                       st.sampled_from(["q1/a", "q1/b", "q2/a", "off-bank"]))


@st.composite
def grades(draw, keys=GRADE_KEYS, answers=ANSWER_TEXTS):
    key = draw(keys)
    mode = draw(st.sampled_from([QA_VERIFIED, SELF_RATED]))
    if mode == QA_VERIFIED:
        return verified(*key, draw(st.booleans()), draw(answers))
    return rated(*key, draw(st.integers(0, 5)), draw(answers))


ROUND_TRIP_BANK = QuestionBank({
    "q1": (ExamQuestion("q1/a", "q1", "A?"), ExamQuestion("q1/b", "q1", "B?")),
    "q2": (ExamQuestion("q2/a", "q2", "C?"),)})


def check_round_trip(batches):
    """What a store reads back after one append per batch: each key once,
    where it was first written, with the last row written for it. No
    batch leaves no file, which reads as empty. Every policy's index of
    what is read is the index of the grades in memory."""
    all_grades = [g for batch in batches for g in batch]
    with tempfile.TemporaryDirectory() as tmp:
        store = GradeStore(Path(tmp) / "g.jsonl.gz")
        for batch in batches:       # one gzip member per append
            store.append(dict(batch))
        assert stored_grades(store) == list(dict(all_grades).items())
        rows = store.read()
    for policy in (GradePolicy(QA_VERIFIED), GradePolicy(SELF_RATED, 3),
                   GradePolicy(SELF_RATED, 1, min_answers=2)):
        index = GradeIndex(rows, policy, ROUND_TRIP_BANK)
        assert vars(index) == vars(
            grade_index(all_grades, policy, ROUND_TRIP_BANK))


@settings(deadline=None)
@given(batches=st.lists(st.lists(grades(), max_size=8), max_size=4))
def test_store_round_trip_matches_oracle(batches):
    check_round_trip(batches)


# Text with every character JSON must escape, and some that look as if
# they must: DEL, NEL, U+2028 and a character outside the BMP.
TRICKY_TEXT = st.lists(st.sampled_from(
    ['"', "\\", *map(chr, range(0x20)), "\x7f", "\x85", "\u2028",
     "\U0001f600", "/", "a", "é"]), max_size=6).map("".join)


@given(grades(st.tuples(TRICKY_TEXT, TRICKY_TEXT, TRICKY_TEXT),
              st.none() | TRICKY_TEXT))
def test_line_layout_is_the_json_encoders(grade):
    key, row = grade
    assert _grade_to_json(key, row) == json.dumps(
        dict(zip(GRADE_FIELDS, key + row)), ensure_ascii=False,
        sort_keys=True)


# The text of a string without line breaks, which would split the line.
RAW_TEXT = TRICKY_TEXT.map(lambda text: re.sub("[\r\n]", "", text))
MOSTLY_FALSE = st.sampled_from([False] * 7 + [True])
# Values that break the layout or the rules, by field.
UNUSUAL = {"answer_text": RAW_TEXT, "mode": st.just("vibes"),
           "passage_id": RAW_TEXT, "query_id": RAW_TEXT,
           "question_id": RAW_TEXT,
           "rating": st.sampled_from([6, 9, -1, 4.5, "4", True, None, 3]),
           "verified": st.sampled_from([1, "true", None, True])}


@st.composite
def canonical_lines(draw):
    """A store line with its fields in sorted order, and whether it is as
    `append` writes it: a drawn grade in that layout, with now and then a
    field's value swapped for an unusual one, written as JSON or as raw
    text between quotes, and now and then text after the object."""
    key, row = draw(grades(
        st.tuples(*[st.sampled_from(["q1", "", "é\x7f\x85\u2028\U0001f600"])]
                  * 3), st.none() | TRICKY_TEXT))
    record = dict(zip(GRADE_FIELDS, key + row))
    tokens, usual = [], True
    for name in sorted(record):
        value = json.dumps(record[name], ensure_ascii=False)
        if draw(MOSTLY_FALSE):
            usual = False
            value = draw(UNUSUAL[name])
            value = (f'"{value}"' if type(value) is str and draw(st.booleans())
                     else json.dumps(value, ensure_ascii=draw(st.booleans())))
        tokens.append(f'"{name}": {value}')
    tail = draw(st.sampled_from(["\n"] * 3 + ["", " ", "x", "\x85", "}"]))
    return "{" + ", ".join(tokens) + "}" + tail, usual and tail in ("", "\n")


@settings(deadline=None)
# A rating past 5 in that layout, which `check_grade` rejects.
@example(drawn=(json.dumps(json.loads(store_line(rating=7)), sort_keys=True),
                False))
@given(canonical_lines())
def test_canonical_line_decodes_as_the_json_decoder(drawn):
    # Lines that `_CANONICAL_LINES` matches read as `_decode_grade` reads
    # them, rows and errors alike; what `append` writes always matches.
    line, usual = drawn
    stored = line.removesuffix("\n") + "\n"
    assert _CANONICAL_LINES.fullmatch(stored) or not usual
    try:
        expected = [_decode_grade(line, 1)]
    except ParseError as exc:
        expected = exc
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.jsonl.gz"
        path.write_bytes(gzip.compress(stored.encode("utf-8")))
        if isinstance(expected, ParseError):
            with pytest.raises(ParseError, match=re.escape(str(expected))):
                GradeStore(path).read()
        else:
            assert list(GradeStore(path).read().items()) == expected


# Values that break the type or range of most fields.
BAD_VALUES = st.sampled_from([True, 4.5, "no", 6, ["x"], 1, None])


@st.composite
def store_lines(draw):
    """One store line without its line ending: a record as `append` writes
    it, one altered in its layout or fields, or no record at all."""
    # Mostly good lines, so that about half the drawn stores read cleanly.
    kind = draw(st.sampled_from(
        ["canonical"] * 20 + ["padded"] * 2 + ["missing"] * 2
        + ["trailing"] * 2 + ["unknown", "bad-value", "split", "other"]))
    if kind == "other":
        return draw(st.sampled_from(
            ["", " ", "\t", "[1]", "3", '"s"', "null", "{}", "{", "}"]))
    # Three keys (six with the mode), so that a key often repeats across
    # lines that take the fast path and lines that do not; the third has
    # ids that need escapes, so even its canonical lines take the slow one.
    key, row = draw(grades(st.sampled_from([
        ("q1", "p1", "q1/a"), ("q2", "p2", "off-bank"),
        ('q"3', "p\\3", "q3\t/\x1f")])))
    record = dict(zip(GRADE_FIELDS, key + row))
    if kind == "missing":
        for field in draw(st.sets(st.sampled_from(GRADE_FIELDS[4:]),
                                  min_size=1)):
            del record[field]
    elif kind == "unknown":
        record["extra"] = 1
    elif kind == "bad-value":
        record[draw(st.sampled_from(GRADE_FIELDS))] = draw(BAD_VALUES)
    line = json.dumps(record, sort_keys=draw(st.booleans()),
                      ensure_ascii=draw(st.booleans()))
    if kind == "padded":
        # A CR is JSON whitespace too, and ends no line.
        line = draw(st.sampled_from([" ", "\t", "  ", "\r"])) + "{" \
            + draw(st.sampled_from(["", "\r", " \r"])) + line[1:] \
            + draw(st.sampled_from(["", " ", "\t ", "\r"]))
    elif kind == "trailing":
        line += draw(st.sampled_from(["\u2028", "\x85", "\x0b", "\xa0"]))
    elif kind == "split":
        cut = draw(st.integers(1, len(line) - 1))
        line = line[:cut] + "\n" + line[cut:]
    return line


def read_line_by_line(data: bytes):
    """The store's rows, or its `ParseError`, by `_decode_grade` on every
    line that is not blank."""
    rows = {}
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                             newline="\n")
    for line_no, line in enumerate(lines, start=1):
        if line.isspace():
            continue
        try:
            key, row = _decode_grade(line, line_no)
        except ParseError as exc:
            return exc
        rows[key] = row
    return rows


def read_with_messages(store):
    """What `store.read()` gives, as the list of its rows, and what it
    logged (`logged`)."""
    return logged(lambda: list(store.read().items()))


def append_batches(store, batches) -> list[int]:
    """Append each batch, and the byte offset at which each member starts."""
    starts = []
    for batch in batches:
        starts.append(store.path.stat().st_size if store.path.exists() else 0)
        store.append(dict(batch))
    return starts


CHUNKS = st.integers(1, 200) | st.just(formats._CHUNK)
BATCHES = st.lists(st.lists(grades(), min_size=1, max_size=6), min_size=1,
                   max_size=4)


@settings(deadline=None)
# A character after the object on a last line without a newline: the
# object's end is then one short of the line's end, as for "}\n".
@example(lines=[GOOD_LINES[0] + "\x85"], endings=["\n"] * 8,
         last_newline=False, batches=[], cuts=[], padding=[0] * 7,
         chunk=formats._CHUNK)
# A key on the fast path, then again on the slow path (a padded line):
# the later row wins on either path.
@example(lines=[store_line(), " " + store_line(rating=2)],
         endings=["\n"] * 8, last_newline=True, batches=[], cuts=[],
         padding=[0] * 7, chunk=formats._CHUNK)
@given(lines=st.lists(store_lines(), max_size=8),
       endings=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=8,
                        max_size=8),
       last_newline=st.booleans(),
       batches=st.lists(st.lists(grades(), min_size=1, max_size=4),
                        max_size=3),
       cuts=st.lists(st.integers(0, 2000), max_size=3),
       padding=st.lists(st.integers(0, 2), min_size=7, max_size=7),
       chunk=CHUNKS)
def test_store_read_matches_line_by_line_oracle(lines, endings, last_newline,
                                                batches, cuts, padding,
                                                chunk):
    # Members that `append` wrote, then the drawn lines cut into members at
    # drawn bytes, inside a line or a character too; zero padding after
    # any member; text decompressed `chunk` bytes at a time. Rows and
    # errors are those of gzip's one stream read line by line.
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and not last_newline:
        text = text[:-len(endings[len(lines) - 1])]
    data = text.encode("utf-8")
    cuts = sorted(cut % (len(data) + 1) for cut in cuts)
    zeros = iter(padding)
    with tempfile.TemporaryDirectory() as tmp:
        store = GradeStore(Path(tmp) / "g.jsonl.gz")
        for batch in batches:
            store.append(dict(batch))
            with open(store.path, "ab") as fh:
                fh.write(bytes(next(zeros)))
        with open(store.path, "ab") as fh:
            for start, end in zip([0, *cuts], [*cuts, len(data)]):
                fh.write(gzip.compress(data[start:end], mtime=0)
                         + bytes(next(zeros)))
        expected = read_line_by_line(gzip.decompress(store.path.read_bytes()))
        with mock.patch.object(formats, "_CHUNK", chunk):
            outcome, messages = read_with_messages(store)
    assert messages == []
    if isinstance(expected, ParseError):
        assert outcome == (str(expected), expected.line_no)
    else:
        assert outcome == list(expected.items())


@settings(deadline=None)
@given(batches=BATCHES, chunk=CHUNKS, data=st.data())
def test_torn_last_member_is_dropped_with_one_warning(batches, chunk, data):
    # A write cut short at any byte of its member: the earlier batches
    # read as they were written, and one warning names the member.
    with tempfile.TemporaryDirectory() as tmp:
        store = GradeStore(Path(tmp) / "g.jsonl.gz")
        start = append_batches(store, batches)[-1]
        stored = store.path.read_bytes()
        store.path.write_bytes(stored[:data.draw(
            st.integers(start + 1, len(stored) - 1))])
        with mock.patch.object(formats, "_CHUNK", chunk):
            outcome, messages = read_with_messages(store)
    assert outcome == list(dict(
        grade for batch in batches[:-1] for grade in batch).items())
    assert messages == [
        f"grade store {store.path}: the gzip member at byte {start} ends "
        f"early, as an interrupted write leaves it; its grades are dropped"]


@settings(deadline=None)
@given(batches=BATCHES.filter(lambda batches: len(batches) > 1),
       data=st.data())
def test_damaged_complete_member_is_corrupt(batches, data):
    # A byte of a member's deflate data or trailer changed, or bytes cut
    # from a member that another follows, is damage and not a torn write.
    # (A last member whose deflate data is damaged can end early, as a
    # torn one does; its trailer is checked.)
    with tempfile.TemporaryDirectory() as tmp:
        store = GradeStore(Path(tmp) / "g.jsonl.gz")
        starts = append_batches(store, batches)
        stored = bytearray(store.path.read_bytes())
        ends = [*starts[1:], len(stored)]
        index = data.draw(st.integers(0, len(starts) - 1))
        start, end = starts[index], ends[index]
        if index < len(starts) - 1 and data.draw(st.booleans()):
            cut = data.draw(st.integers(start + 1, end - 1))
            del stored[cut:data.draw(st.integers(cut + 1, end))]
        else:
            # After the 10-byte header; a last member's trailer only.
            first = start + 10 if index < len(starts) - 1 else end - 8
            stored[data.draw(st.integers(first, end - 1))] ^= 0xFF
        store.path.write_bytes(stored)
        outcome, messages = read_with_messages(store)
    assert outcome[0].startswith(f"corrupt grade store {store.path}: ")
    assert messages == []


def test_member_that_runs_into_an_intact_one_is_corrupt(tmp_path):
    # A stored (level 0) block cut short copies the next member's bytes as
    # its own and then runs out, as a torn last member does; the intact
    # member after it shows that it is damage. That member holds no "\n",
    # so no text is decoded before the walk runs out.
    text = "".join(line + "\n" for line in GOOD_LINES).encode()
    member = gzip.compress(text, compresslevel=0, mtime=0)[:-200]
    later = gzip.compress(GOOD_LINES[1].encode(), compresslevel=0, mtime=0)
    assert len(later) < 200 and b"\n" not in later
    path = tmp_path / "g.jsonl.gz"
    path.write_bytes(member + later)
    assert read_with_messages(GradeStore(path)) == (
        (f"corrupt grade store {path}: the gzip member at byte 0 does not "
         f"end, but the one at byte {len(member)} does", None), [])


def test_bad_line_that_damage_explains_is_corrupt(tmp_path):
    # A changed byte of a stored block's text makes a bad line, and the
    # member's CRC, checked after its lines are read (in chunks smaller
    # than the member), shows the damage. At the full chunk size, a changed
    # byte in the deflate data of a member that `append` wrote can make a
    # bad line too, when the stream runs on into the next member
    # (`test_damaged_complete_member_is_corrupt` finds such bytes).
    text = "".join(line + "\n" for line in GOOD_LINES).encode()
    member = bytearray(gzip.compress(text, compresslevel=0, mtime=0))
    member[member.index(b'"query_id"')] ^= 1
    path = tmp_path / "g.jsonl.gz"
    path.write_bytes(bytes(member) + gzip.compress(text, mtime=0))
    with mock.patch.object(formats, "_CHUNK", 200):
        outcome = read_with_messages(GradeStore(path))
    assert outcome == (
        (f"corrupt grade store {path}: Error -3 while decompressing data: "
         f"incorrect data check", None), [])


def test_append_leaves_a_torn_member_the_file_outgrew(tmp_path):
    # A torn member that was still being written when `read` saw it, and
    # has since ended, is not cut off: `append` raises and writes nothing.
    store = GradeStore(tmp_path / "g.jsonl.gz")
    store.append(dict([rated("q1", "p1", "qq1", 3)]))
    start = store.path.stat().st_size
    store.append(dict([rated("q1", "p2", "qq1", 4)]))
    whole = store.path.read_bytes()
    store.path.write_bytes(whole[:-5])
    logged(store.read)
    store.path.write_bytes(whole)
    with pytest.raises(ContractViolation, match=re.escape(
            f"grade store {store.path} changed after it was read; its torn "
            f"member at byte {start} is left as it is")):
        store.append(dict([rated("q2", "p3", "qq2", 1)]))
    assert store.path.read_bytes() == whole
