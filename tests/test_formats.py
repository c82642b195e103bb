import gzip
import io
import json
import re
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exam_eval.formats import (
    GradeStore,
    ParseError,
    load_leaderboard_scores,
    load_official_ranks,
    load_passages,
    load_queries,
    parse_qrels,
    parse_question_bank,
    parse_run_file,
    save_question_bank,
    write_qrels,
)
from exam_eval.metrics import build_qrels, exam_cover
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
from conftest import (
    grade_index,
    lock_holder,
    rated,
    stored_grades,
    verified,
)


class TestRunParsing:
    def test_single_row(self):
        run = parse_run_file("q1 Q0 pA 1 12.5 sysX\n")
        assert run.run_tag == "sysX"
        assert run.by_query == {"q1": ["pA"]}

    def test_empty_file(self):
        run = parse_run_file("")
        assert run.by_query == {}

    def test_out_of_order_ranks_sorted(self):
        run = parse_run_file(
            "q1 Q0 pB 2 1.0 sys\nq1 Q0 pA 1 2.0 sys\n")
        assert run.by_query == {"q1": ["pA", "pB"]}

    def test_zero_literal_accepted(self):
        run = parse_run_file("q1 0 pA 1 1.0 sys\n")
        assert run.by_query == {"q1": ["pA"]}

    def test_malformed_line_carries_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_run_file("q1 Q0 pA 1 1.0 sys\nq1 Q0 pB oops 1.0 sys\n")
        assert excinfo.value.line_no == 2
        # The score orders nothing, but a word there is still malformed.
        with pytest.raises(ParseError, match="line 2: could not convert "
                           "string to float: 'high'"):
            parse_run_file("q1 Q0 pA 1 1.0 sys\nq1 Q0 pB 2 high sys\n")

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ParseError, match="line 3: passage 'pA' listed "
                           "twice for query 'q1' in run 'sys'") as excinfo:
            parse_run_file("q1 Q0 pA 1 2.0 sys\nq2 Q0 pA 2 1.0 sys\n"
                           "q1 Q0 pA 2 1.0 sys\n")
        assert excinfo.value.line_no == 3

    def test_duplicate_rank_rejected(self):
        with pytest.raises(ParseError, match="line 3: rank 3 listed twice "
                           "for query 'q1' in run 'sys'") as excinfo:
            parse_run_file("q1 Q0 pA 3 2.0 sys\nq2 Q0 pA 3 2.0 sys\n"
                           "q1 Q0 pB 3 1.0 sys\n")
        assert excinfo.value.line_no == 3

    def test_repeat_reported_at_its_first_line(self):
        # Rows are sorted by rank before the check; the error still names
        # the first line, in file order, that repeats a passage or a rank.
        with pytest.raises(ParseError, match="rank 2 listed") as excinfo:
            parse_run_file("q1 Q0 pC 5 1.0 s\nq1 Q0 pA 2 2.0 s\n"
                           "q1 Q0 pB 2 1.0 s\nq1 Q0 pC 1 1.0 s\n")
        assert excinfo.value.line_no == 3

    def test_repeat_reported_at_first_line_across_queries(self):
        # q2 comes first in the file, but q1 repeats itself first.
        with pytest.raises(ParseError, match="line 3: passage 'pB' listed "
                           "twice for query 'q1' in run 's'") as excinfo:
            parse_run_file("q2 Q0 pA 1 1.0 s\nq1 Q0 pB 1 1.0 s\n"
                           "q1 Q0 pB 2 1.0 s\nq2 Q0 pA 2 1.0 s\n")
        assert excinfo.value.line_no == 3

    def test_rank_zero_carries_line_number(self):
        with pytest.raises(ParseError, match="rank must be >= 1") as excinfo:
            parse_run_file("q1 Q0 pA 1 2.0 sys\nq1 Q0 pB 0 1.0 sys\n")
        assert excinfo.value.line_no == 2

    def test_rows_grouped_per_query_in_rank_order(self):
        run = parse_run_file("q2 Q0 pC 1 3.0 sys\nq1 Q0 pB 7 1.0 sys\n"
                             "q1 Q0 pA 2 2.0 sys\n")
        assert run.query_ids == ["q1", "q2"]
        assert run.top_k("q1", 5) == ["pA", "pB"]
        assert run.top_k("q1", 1) == ["pA"]
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
        assert save_question_bank(parse_question_bank(text)) == text

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
        assert load_passages(path) == {"p2": "alpha", "p3": ""}

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
        assert load_official_ranks(write_json(tmp_path, doc)) == doc

    def test_word_rank_rejected(self, tmp_path):
        path = write_json(tmp_path, {"a": "first"})
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: official rank of 'a' must be a number or null, "
                f"got 'first'")):
            load_official_ranks(path)


class TestLeaderboardScores:
    def test_header_and_overall_skipped(self, tmp_path):
        path = tmp_path / "lb.tsv"
        path.write_text("system\tscore\tstd_error\tofficial_rank\n"
                        "_overall_\t1.0\t0.0\t\nsysA\t0.5\t0.1\t1\n\n")
        assert load_leaderboard_scores(path) == {"sysA": 0.5}

    def test_bad_score_names_file_and_line(self, tmp_path):
        path = tmp_path / "lb.tsv"
        path.write_text("system\tscore\nsysA\t0.5\nsysB\thigh\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: line 3: bad score 'high' for 'sysB'")):
            load_leaderboard_scores(path)


class TestGradeStore:
    def test_append_read(self, tmp_path):
        store = GradeStore(tmp_path / "g.jsonl.gz")
        store.append(dict([rated("q1", "p1", "qq1", 3),
                           rated("q1", "p2", "qq1", 0)]))
        assert len(stored_grades(store)) == 2

    def test_last_writer_wins(self, tmp_path):
        store = GradeStore(tmp_path / "g.jsonl.gz")
        store.append(dict([rated("q1", "p1", "qq1", 2)]))
        store.append(dict([rated("q1", "p1", "qq1", 4)]))
        [(_, (_, _, rating))] = stored_grades(store)
        assert rating == 4

    def test_missing_file_reads_empty(self, tmp_path):
        assert stored_grades(GradeStore(tmp_path / "nope.jsonl.gz")) == []

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
        store.append(dict(grades))
        assert sorted(stored_grades(store)) == sorted(dict(grades).items())

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
                               mtime=0) as fh:
                for key, row in batch.items():
                    record = dict(zip(GRADE_FIELDS, key + row))
                    fh.write((json.dumps(record, ensure_ascii=False,
                                         sort_keys=True) + "\n").encode())
        assert store.path.read_bytes() == expected.getvalue()


# ---------------------------------------------------------------------------
# Grade store decode

GRADE_FIELDS = ("query_id", "passage_id", "question_id", "mode",
                "answer_text", "verified", "rating")


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
        assert [key[1] for key in GradeStore(path).read()] \
            == ["p0", "p1"]
        write_store_lines(path, ["", "  ", GOOD_LINES[0], "\t", "[1]"])
        with pytest.raises(ParseError) as excinfo:
            GradeStore(path).read()
        assert excinfo.value.line_no == 5

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "g.jsonl.gz"
        path.write_bytes(gzip.compress(GOOD_LINES[0].encode()))
        assert [key[1] for key in GradeStore(path).read()] == ["p0"]
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
        path = tmp_path / "g.jsonl.gz"
        write_store_lines(path, [json.dumps(record)])
        with pytest.raises(ParseError):
            GradeStore(path).read()

    def test_rows_and_keys(self, tmp_path):
        store = GradeStore(tmp_path / "g.jsonl.gz")
        store.append(dict([rated("q1", "p1", "qq1", 3, "3"),
                           verified("q1", "p1", "qq1", True, "x")]))
        assert store.read() == {
            ("q1", "p1", "qq1", SELF_RATED): ("3", None, 3),
            ("q1", "p1", "qq1", QA_VERIFIED): ("x", True, None)}
        assert ("q1", "p1", "qq1", QA_VERIFIED) in store.read()
        assert ("q1", "p2", "qq1", QA_VERIFIED) not in store.read()


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
        return verified(*key, draw(st.booleans()), draw(ANSWER_TEXTS))
    return rated(*key, draw(st.integers(0, 5)), draw(ANSWER_TEXTS))


ROUND_TRIP_BANK = QuestionBank({
    "q1": (ExamQuestion("q1/a", "q1", "A?"), ExamQuestion("q1/b", "q1", "B?")),
    "q2": (ExamQuestion("q2/a", "q2", "C?"),)})


@settings(deadline=None)
@given(batches=st.lists(st.lists(grades(), max_size=8), min_size=1,
                        max_size=4))
def test_store_round_trip_matches_oracle(batches):
    all_grades = [g for batch in batches for g in batch]
    first_seen: list = []
    for key, _ in all_grades:
        if key not in first_seen:
            first_seen.append(key)
    expected = [[g for g in all_grades if g[0] == key][-1]
                for key in first_seen]
    with tempfile.TemporaryDirectory() as tmp:
        store = GradeStore(Path(tmp) / "g.jsonl.gz")
        for batch in batches:       # one gzip member per append
            store.append(dict(batch))
        assert stored_grades(store) == expected
        rows = store.read()
    passages = {q: ["p1", "p2", "p3"] for q in ("q1", "q2")}
    for policy in (GradePolicy(QA_VERIFIED), GradePolicy(SELF_RATED, 3),
                   GradePolicy(SELF_RATED, 1, min_answers=2)):
        index = GradeIndex(rows, policy, ROUND_TRIP_BANK)
        assert vars(index) == vars(
            grade_index(all_grades, policy, ROUND_TRIP_BANK))
        oracle = grade_index(expected, policy, ROUND_TRIP_BANK)
        assert build_qrels(index) == build_qrels(oracle)
        if policy.mode == SELF_RATED:
            assert build_qrels(index, graded=True) \
                == build_qrels(oracle, graded=True)
        assert exam_cover(passages, ROUND_TRIP_BANK, index) \
            == exam_cover(passages, ROUND_TRIP_BANK, oracle)
