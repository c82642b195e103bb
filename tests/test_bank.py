import threading
import time

import pytest

from exam_eval.bank import diff_banks, generate_bank, parse_question_list
from exam_eval.gateway import CompletionResponse, MockBackend
from exam_eval.model import (
    ContractViolation,
    ExamQuestion,
    Facet,
    GradePolicy,
    Query,
    QuestionBank,
    SELF_RATED,
)
from conftest import RecordingBackend, grade_index, rated


class TestParseQuestionList:
    def test_canonical_python_list(self):
        assert parse_question_list('["A?", "B?"]') == ["A?", "B?"]

    def test_list_embedded_in_prose(self):
        text = 'Here you go:\n["What is X?", "Why Y?"]\nHope that helps!'
        assert parse_question_list(text) == ["What is X?", "Why Y?"]

    def test_numbered_fallback(self):
        assert parse_question_list("1. A?\n2. B?") == ["A?", "B?"]

    def test_bulleted_fallback(self):
        assert parse_question_list("- A?\n* B?") == ["A?", "B?"]

    def test_question_mark_lines(self):
        assert parse_question_list("A?\nnot a question\nB?") == ["A?", "B?"]

    def test_garbage_yields_empty(self):
        assert parse_question_list("no questions") == []

    def test_deduplication_preserves_order(self):
        assert parse_question_list('["B?", "A?", "B?"]') == ["B?", "A?"]


def ten_questions():
    return str([f"Question {i}?" for i in range(10)])


class TestGenerateBank:
    def test_fixed_list_yields_ten_per_query(self):
        queries = [Query("q1", "topic one"), Query("q2", "topic two")]
        backend = RecordingBackend({"default": ten_questions()})
        bank = generate_bank(queries, "question_gen_dl", backend, 1)
        assert len(bank.questions_for("q1")) == 10
        assert len(bank.questions_for("q2")) == 10
        assert len(backend.request_log) == 2

    def test_deterministic_question_ids(self):
        queries = [Query("q1", "topic")]
        template = "question_gen_dl"
        bank_a = generate_bank(queries, template,
                               MockBackend({"default": ten_questions()}), 1)
        bank_b = generate_bank(queries, template,
                               MockBackend({"default": ten_questions()}), 1)
        assert [q.question_id for q in bank_a.questions_for("q1")] \
            == [q.question_id for q in bank_b.questions_for("q1")] \
            == [f"q1/q/{i}" for i in range(10)]

    def test_facet_template_fans_out_per_facet(self, skin_query):
        backend = MockBackend({"default": '["F?"]'})
        bank = generate_bank([skin_query], "question_gen_car", backend, 1)
        [question] = bank.questions_for(skin_query.query_id)
        assert question.facet_id == "structure-of-the-skin"
        assert question.question_id.endswith("/structure-of-the-skin/0")
        assert question.gold_answer is None

    def test_garbage_retries_once_then_warns(self, caplog):
        backend = RecordingBackend({"default": "garbage"})
        bank = generate_bank([Query("q1", "t")], "question_gen_dl",
                             backend, 1)
        assert bank.questions_for("q1") == ()
        assert len(backend.request_log) == 2
        assert any("no questions parsed" in r.message for r in caplog.records)

    def test_grading_template_rejected(self):
        with pytest.raises(ContractViolation):
            generate_bank([], "qa", MockBackend({}), 1)

    def test_bank_same_for_every_parallelism(self):
        # Facets answer differently, some only on the retry, some never.
        queries = [Query(f"q{i}", f"topic {i}", tuple(
            Facet(f"f{j}", f"facet {j}") for j in range(i % 4)))
            for i in range(8)]
        responses = {f"q{i}/f{j}": str([f"Q{i}.{j}.{k}?" for k in range(j + 1)])
                     for i in range(8) for j in range(3)}
        responses["q3/f1"] = "garbage"
        flaky = {"q5/f0"}
        threads = set()

        class Backend(MockBackend):
            def complete(self, request):
                threads.add(threading.get_ident())
                time.sleep(0.005)
                key = "{query_id}/{facet_id}".format(**request.metadata)
                if key in flaky:
                    flaky.discard(key)      # the retry parses
                    return CompletionResponse("garbage", 0.0)
                return super().complete(request)

        banks, thread_counts = [], []
        for parallelism in (1, 4):
            flaky.add("q5/f0")
            threads.clear()
            banks.append(generate_bank(
                queries, "question_gen_car", Backend(responses), parallelism))
            thread_counts.append(len(threads))
        assert thread_counts[0] == 1 and thread_counts[1] > 1
        serial, parallel = banks
        assert parallel == serial
        assert serial.query_ids == [f"q{i}" for i in range(8)]
        assert [q.question_id for q in serial.questions_for("q3")] \
            == ["q3/f0/0", "q3/f2/0", "q3/f2/1", "q3/f2/2"]
        assert [q.text for q in serial.questions_for("q5")] == ["Q5.0.0?"]
        assert serial.questions_for("q4") == ()


class TestDiffBanks:
    def two_question_bank(self):
        return QuestionBank({"q1": (
            ExamQuestion("q1/q/0", "q1", "A?"),
            ExamQuestion("q1/q/1", "q1", "B?"),
        )})

    def index(self, grades):
        return grade_index(grades, GradePolicy(SELF_RATED, min_rating=4))

    def test_identical_banks_empty_diff(self):
        bank = self.two_question_bank()
        grades = [rated("q1", "p1", "q1/q/0", 5)]
        report = diff_banks(bank, bank, self.index(grades))
        assert report.empty

    def test_removing_sole_answering_question_flips(self):
        old = self.two_question_bank()
        new = QuestionBank({"q1": (ExamQuestion("q1/q/1", "q1", "B?"),)})
        grades = [rated("q1", "p1", "q1/q/0", 5),
                  rated("q1", "p1", "q1/q/1", 0)]
        report = diff_banks(old, new, self.index(grades))
        assert report.removed == ["q1/q/0"]
        [flip] = report.flips
        assert (flip.passage_id, flip.old_label, flip.new_label) == ("p1", 1, 0)

    def test_added_ungraded_question_flagged_not_flipped(self):
        old = self.two_question_bank()
        new = QuestionBank({"q1": old.questions_for("q1")
                            + (ExamQuestion("q1/q/2", "q1", "C?"),)})
        grades = [rated("q1", "p1", "q1/q/0", 5)]
        report = diff_banks(old, new, self.index(grades))
        assert report.added == ["q1/q/2"]
        assert report.needs_grading == ["q1/q/2"]
        assert report.flips == []

    def test_removals_only_flip_downward(self):
        # Property: deleting questions can only turn labels 1 -> 0.
        old = self.two_question_bank()
        new = QuestionBank({"q1": (ExamQuestion("q1/q/0", "q1", "A?"),)})
        grades = [rated("q1", f"p{i}", f"q1/q/{j}", r)
                  for i, (j, r) in enumerate([(0, 5), (1, 5), (0, 0), (1, 4)])]
        report = diff_banks(old, new, self.index(grades))
        for flip in report.flips:
            assert (flip.old_label, flip.new_label) == (1, 0)

    def test_edited_question_detected(self):
        old = self.two_question_bank()
        new = QuestionBank({"q1": (
            ExamQuestion("q1/q/0", "q1", "A, but sharper?"),
            ExamQuestion("q1/q/1", "q1", "B?"),
        )})
        report = diff_banks(old, new,
                            self.index([rated("q1", "p1", "q1/q/0", 5)]))
        assert report.edited == ["q1/q/0"]
        assert report.needs_grading == []
