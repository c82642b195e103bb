import gzip
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exam_eval.formats import (
    GradeStore,
    ParseError,
    load_question_bank,
    parse_qrels,
    parse_run_file,
    save_question_bank,
    write_qrels,
)
from exam_eval.metrics import build_qrels, exam_cover
from exam_eval.model import (
    ContractViolation,
    ExamQuestion,
    Grade,
    GradeIndex,
    GradePolicy,
    QA_VERIFIED,
    QuestionBank,
    SELF_RATED,
)
from conftest import grade_index, make_run, stored_grades


class TestRunParsing:
    def test_single_row(self):
        run = parse_run_file("q1 Q0 pA 1 12.5 sysX\n")
        assert run.run_tag == "sysX"
        assert run.by_query == {"q1": [("pA", 1, 12.5)]}

    def test_empty_file(self):
        run = parse_run_file("")
        assert run.by_query == {}

    def test_out_of_order_ranks_sorted(self):
        run = parse_run_file(
            "q1 Q0 pB 2 1.0 sys\nq1 Q0 pA 1 2.0 sys\n")
        assert [pid for pid, _, _ in run.by_query["q1"]] == ["pA", "pB"]
        assert [rank for _, rank, _ in run.by_query["q1"]] == [1, 2]

    def test_zero_literal_accepted(self):
        run = parse_run_file("q1 0 pA 1 1.0 sys\n")
        assert run.by_query["q1"][0][0] == "pA"

    def test_malformed_line_carries_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_run_file("q1 Q0 pA 1 1.0 sys\nq1 Q0 pB oops 1.0 sys\n")
        assert excinfo.value.line_no == 2

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ContractViolation,
                           match=r"duplicate \(query, passage\) pair"):
            parse_run_file("q1 Q0 pA 1 2.0 sys\nq1 Q0 pA 2 1.0 sys\n")

    def test_duplicate_rank_rejected(self):
        with pytest.raises(ContractViolation,
                           match="ranks not strictly increasing for query 'q1'"):
            parse_run_file("q1 Q0 pA 3 2.0 sys\nq2 Q0 pA 3 2.0 sys\n"
                           "q1 Q0 pB 3 1.0 sys\n")

    def test_rank_zero_carries_line_number(self):
        with pytest.raises(ParseError, match="rank must be >= 1") as excinfo:
            parse_run_file("q1 Q0 pA 1 2.0 sys\nq1 Q0 pB 0 1.0 sys\n")
        assert excinfo.value.line_no == 2

    def test_rows_grouped_per_query_in_rank_order(self):
        run = parse_run_file("q2 Q0 pC 1 3.0 sys\nq1 Q0 pB 7 1.0 sys\n"
                             "q1 Q0 pA 2 2.0 sys\n")
        assert run.query_ids == ["q1", "q2"]
        assert run.top_k("q1", 5) == [("pA", 2, 2.0), ("pB", 7, 1.0)]
        assert run.top_k("q1", 1) == [("pA", 2, 2.0)]
        assert run.top_k("q3", 5) == []

    def test_inconsistent_tag_keeps_first(self, caplog):
        run = parse_run_file("q1 Q0 pA 1 2.0 one\nq1 Q0 pB 2 1.0 two\n")
        assert run.run_tag == "one"
        assert any("run tag" in r.message for r in caplog.records)


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


class TestQuestionBank:
    def bank(self):
        return QuestionBank({"q1": (
            ExamQuestion("q1/q/0", "q1", "A?"),
            ExamQuestion("q1/q/1", "q1", "B?", gold_answer="b"),
        )})

    def test_round_trip_byte_identical(self):
        text = save_question_bank(self.bank())
        assert save_question_bank(load_question_bank(text)) == text

    def test_gold_answer_survives(self):
        loaded = load_question_bank(save_question_bank(self.bank()))
        questions = loaded.questions_for("q1")
        assert questions[0].gold_answer is None
        assert questions[1].gold_answer == "b"
        assert questions[1].supports_verification

    def test_order_preserved(self):
        loaded = load_question_bank(save_question_bank(self.bank()))
        assert [q.question_id for q in loaded.questions_for("q1")] \
            == ["q1/q/0", "q1/q/1"]

    def test_duplicate_question_id_rejected(self):
        text = """{"queries": [{"query_id": "q1", "questions": [
            {"question_id": "d", "text": "A?"},
            {"question_id": "d", "text": "B?"}]}]}"""
        with pytest.raises(ContractViolation):
            load_question_bank(text)

    def test_non_string_ids_rejected(self):
        text = """{"queries": [{"query_id": "q1", "questions": [
            {"question_id": 7, "text": "A?"}]}]}"""
        with pytest.raises(ContractViolation, match="must be strings"):
            load_question_bank(text)
        with pytest.raises(ParseError, match="must be a string"):
            load_question_bank('{"queries": [{"query_id": 1}]}')

    def test_missing_text_rejected(self):
        text = '{"queries": [{"query_id": "q1", "questions": [{"question_id": "x"}]}]}'
        with pytest.raises(ParseError):
            load_question_bank(text)


def rated(qid, pid, qqid, rating):
    return Grade(qid, pid, qqid, SELF_RATED, rating=rating)


class TestGradeStore:
    def test_append_read(self, tmp_path):
        store = GradeStore(tmp_path / "g.jsonl.gz")
        store.append([rated("q1", "p1", "qq1", 3), rated("q1", "p2", "qq1", 0)])
        assert len(stored_grades(store)) == 2

    def test_last_writer_wins(self, tmp_path):
        store = GradeStore(tmp_path / "g.jsonl.gz")
        store.append([rated("q1", "p1", "qq1", 2)])
        store.append([rated("q1", "p1", "qq1", 4)])
        [grade] = stored_grades(store)
        assert grade.rating == 4

    def test_missing_file_reads_empty(self, tmp_path):
        assert stored_grades(GradeStore(tmp_path / "nope.jsonl.gz")) == []

    def test_lock_excludes_second_writer(self, tmp_path):
        store = GradeStore(tmp_path / "g.jsonl.gz")
        store._acquire_lock()
        try:
            with pytest.raises(ContractViolation):
                store.append([rated("q1", "p1", "qq1", 1)])
        finally:
            store._release_lock()
        store.append([rated("q1", "p1", "qq1", 1)])
        assert len(stored_grades(store)) == 1

    def test_corrupt_line_reports_position(self, tmp_path):
        path = tmp_path / "g.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.write('{"query_id": "q1"\n')
        with pytest.raises(ParseError):
            stored_grades(GradeStore(path))

    def test_bulk_round_trip(self, tmp_path):
        # 10,000 synthetic grades survive a write/read cycle losslessly
        # after key dedup.
        store = GradeStore(tmp_path / "g.jsonl.gz")
        grades = [rated(f"q{i % 17}", f"p{i % 211}", f"qq{i}", i % 6)
                  for i in range(10_000)]
        store.append(grades)
        expected = {}
        for g in grades:
            expected[g.key] = g
        assert sorted(stored_grades(store), key=lambda g: g.key) \
            == sorted(expected.values(), key=lambda g: g.key)

    def test_append_bytes_match_line_by_line_writes(self, tmp_path):
        # One write per batch compresses to the bytes that writing each
        # line on its own gives, over several deflate blocks too.
        texts = ["café", "日本語", "line\u2028break", "{braces} {}",
                 "é{x}\u2028", None, ""]
        batches = [
            [Grade("q1", f"p{i}", "qq1", QA_VERIFIED, texts[i % len(texts)],
                   verified=i % 3 == 0) for i in range(7)],
            [Grade(f"q{i % 5}", f"p{i}", f"qq{i % 13}", SELF_RATED,
                   f"{texts[i % 5]} {i * 7919 % 104729}", rating=i % 6)
             for i in range(20_000)],
        ]
        store = GradeStore(tmp_path / "g.jsonl.gz")
        expected = io.BytesIO()
        for batch in batches:
            store.append(batch)
            with gzip.GzipFile(filename="", mode="ab", fileobj=expected,
                               mtime=0) as fh:
                for g in batch:
                    fh.write((json.dumps(vars(g), ensure_ascii=False,
                                         sort_keys=True) + "\n").encode())
        assert store.path.read_bytes() == expected.getvalue()


# ---------------------------------------------------------------------------
# Grade store decode

def store_line(**record):
    base = {"query_id": "q1", "passage_id": "p1", "question_id": "qq1",
            "mode": SELF_RATED, "answer_text": "4", "verified": None,
            "rating": 4}
    return json.dumps({**base, **record})


def write_store_lines(path, lines):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


GOOD_LINES = [store_line(passage_id=f"p{i}") for i in range(4)]


class TestGradeStoreDecode:
    @pytest.mark.parametrize("bad, message", [
        ('{"query_id": "q1"', "invalid JSON"),
        (GOOD_LINES[0] + "," + GOOD_LINES[1], "invalid JSON"),
        ('{"query_id": "q1", "passage_id": "p9",', "invalid JSON"),
        ("[1]", "must be a JSON object"),
        (store_line(extra=1), r"unknown grade fields \['extra'\]"),
        (json.dumps({"passage_id": "p1", "question_id": "qq1",
                     "mode": SELF_RATED, "rating": 4}),
         r"missing grade fields \['query_id'\]"),
        (store_line(query_id=["q1"]), "must be strings"),
        (store_line(question_id=7), "must be strings"),
        (store_line(mode="vibes"), "unknown grade mode 'vibes'"),
        (store_line(rating=6), r"rating must be in \[0, 5\], got 6"),
        (store_line(verified=True), "self_rated grade needs `rating`"),
        (store_line(mode=QA_VERIFIED, rating=None),
         "qa_verified grade needs `verified`"),
    ], ids=["invalid-json", "two-objects", "split-object", "array",
            "unknown-field", "missing-query-id", "list-query-id",
            "int-question-id",
            "unknown-mode",
            "rating-6", "rating-and-verified", "qa-without-verified"])
    def test_bad_line_reports_its_number(self, tmp_path, bad, message):
        path = tmp_path / "g.jsonl.gz"
        # The split object's second half is line 6, after the bad line 5.
        write_store_lines(path, GOOD_LINES + [bad, '"rating": 4}',
                                              GOOD_LINES[0]])
        with pytest.raises(ParseError, match=message) as excinfo:
            GradeStore(path).read()
        assert excinfo.value.line_no == 5

    def test_blank_and_padded_lines(self, tmp_path):
        path = tmp_path / "g.jsonl.gz"
        write_store_lines(path, ["", GOOD_LINES[0], "   ", "\t \r",
                                 "  " + GOOD_LINES[1] + " \t", ""])
        assert [g.passage_id for g in stored_grades(GradeStore(path))] \
            == ["p0", "p1"]
        write_store_lines(path, ["", "  ", GOOD_LINES[0], "\t", "[1]"])
        with pytest.raises(ParseError) as excinfo:
            GradeStore(path).read()
        assert excinfo.value.line_no == 5

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "g.jsonl.gz"
        path.write_bytes(gzip.compress(GOOD_LINES[0].encode()))
        assert [g.passage_id for g in stored_grades(GradeStore(path))] == ["p0"]
        path.write_bytes(gzip.compress((GOOD_LINES[0] + "x").encode()))
        with pytest.raises(ParseError, match="invalid JSON"):
            GradeStore(path).read()

    @pytest.mark.parametrize("fields", [
        {"query_id": ["q1"]}, {"passage_id": None}, {"question_id": 7},
        {"mode": "vibes"}, {"rating": 6}, {"verified": True},
        {"mode": QA_VERIFIED, "rating": None},
    ], ids=["list-query-id", "null-passage-id", "int-question-id",
            "unknown-mode", "rating-6", "rating-and-verified",
            "qa-without-verified"])
    def test_grade_rejects_what_reading_rejects(self, tmp_path, fields):
        # `append` takes only `Grade`s, so no store can hold a line that
        # reading rejects for its fields.
        record = json.loads(store_line(**fields))
        with pytest.raises(ContractViolation):
            Grade(**record)
        path = tmp_path / "g.jsonl.gz"
        write_store_lines(path, [json.dumps(record)])
        with pytest.raises(ParseError):
            GradeStore(path).read()

    def test_rows_and_keys(self, tmp_path):
        store = GradeStore(tmp_path / "g.jsonl.gz")
        store.append([Grade("q1", "p1", "qq1", SELF_RATED, "3", rating=3),
                      Grade("q1", "p1", "qq1", QA_VERIFIED, "x",
                            verified=True)])
        assert store.read() == {
            ("q1", "p1", "qq1", SELF_RATED): ("3", None, 3),
            ("q1", "p1", "qq1", QA_VERIFIED): ("x", True, None)}
        assert store.keys() == set(store.read())


ANSWER_TEXTS = st.none() | st.lists(st.sampled_from(
    ["a", " ", " ", "\x85", "\r", "\n", "{braces}", '"', "'", "\\",
     "é", "日本"]), max_size=6).map("".join)


@st.composite
def grades(draw):
    key = (draw(st.sampled_from(["q1", "q2"])),
           draw(st.sampled_from(["p1", "p2", "p3"])),
           draw(st.sampled_from(["q1/a", "q1/b", "q2/a", "off-bank"])))
    mode = draw(st.sampled_from([QA_VERIFIED, SELF_RATED]))
    if mode == QA_VERIFIED:
        return Grade(*key, mode, draw(ANSWER_TEXTS),
                     verified=draw(st.booleans()))
    return Grade(*key, mode, draw(ANSWER_TEXTS), rating=draw(st.integers(0, 5)))


ROUND_TRIP_BANK = QuestionBank({
    "q1": (ExamQuestion("q1/a", "q1", "A?"), ExamQuestion("q1/b", "q1", "B?")),
    "q2": (ExamQuestion("q2/a", "q2", "C?"),)})


@settings(deadline=None)
@given(batches=st.lists(st.lists(grades(), max_size=8), min_size=1,
                        max_size=4))
def test_store_round_trip_matches_oracle(batches):
    all_grades = [g for batch in batches for g in batch]
    first_seen: list = []
    for g in all_grades:
        if g.key not in first_seen:
            first_seen.append(g.key)
    expected = [[g for g in all_grades if g.key == key][-1]
                for key in first_seen]
    with tempfile.TemporaryDirectory() as tmp:
        store = GradeStore(Path(tmp) / "g.jsonl.gz")
        for batch in batches:       # one gzip member per append
            store.append(batch)
        assert stored_grades(store) == expected
        rows = store.read()
    run = make_run("sys", [(q, p) for q in ("q1", "q2")
                           for p in ("p1", "p2", "p3")])
    for policy in (GradePolicy(QA_VERIFIED), GradePolicy(SELF_RATED, 3),
                   GradePolicy(SELF_RATED, 1, min_answers=2)):
        index = GradeIndex(rows, policy)
        assert vars(index) == vars(grade_index(all_grades, policy))
        oracle = grade_index(expected, policy)
        assert build_qrels(index, ROUND_TRIP_BANK) \
            == build_qrels(oracle, ROUND_TRIP_BANK)
        if policy.mode == SELF_RATED:
            assert build_qrels(index, ROUND_TRIP_BANK, graded=True) \
                == build_qrels(oracle, ROUND_TRIP_BANK, graded=True)
        assert exam_cover(run, ROUND_TRIP_BANK, index) \
            == exam_cover(run, ROUND_TRIP_BANK, oracle)
