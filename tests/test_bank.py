import ast
import re
import threading
import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from exam_eval.bank import (
    BankDiffReport,
    LabelFlip,
    diff_banks,
    generate_bank,
    parse_question_list,
)
from exam_eval.gateway import CompletionResponse, MockBackend
from exam_eval.model import (
    ExamQuestion,
    Facet,
    GradePolicy,
    Query,
    QuestionBank,
    SELF_RATED,
)
import oracles
from conftest import RecordingBackend, grade_index, rated

# Characters that a plain list's item may hold, and those on which Python's
# reading of a list turns; an item holds at most one of the latter.
ITEM_CHARACTERS = ["a", "n", "é", "\U0001f600", " ", "\t", "#", ",", "[", "]",
                   "?"]
ODD_CHARACTERS = ["\\", "\\", "'", '"', "\n", "\r", "\x0c", "\x00", "\ud800"]
SPACES = ["", " ", "\t", "\n", " \n\t", "\r", "\x0c"]


@st.composite
def completions(draw):
    """Prose, then "[", quoted items each followed by a space and a comma,
    no comma or two, then "]" and more prose."""
    parts = [draw(st.sampled_from(["", "Here:\n", "1. A?\n"])), "["]
    for _ in range(draw(st.integers(0, 4))):
        quote = draw(st.sampled_from("'\""))
        text = "".join(draw(st.lists(st.sampled_from(ITEM_CHARACTERS),
                                     max_size=4)))
        if draw(st.booleans()):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(ODD_CHARACTERS)) + text[at:]
        parts += [draw(st.sampled_from(SPACES)), quote, text, quote,
                  draw(st.sampled_from(SPACES)),
                  draw(st.sampled_from([",", ",", "", ",,"]))]
    parts += [draw(st.sampled_from(SPACES)), "]",
              draw(st.sampled_from(["", "\n- B?", " ok"]))]
    return "".join(parts)


class TestParseQuestionList:
    @pytest.mark.filterwarnings("ignore:invalid escape sequence")
    @settings(max_examples=300)
    @given(completion=completions())
    def test_matches_the_literal_eval_reader(self, completion):
        # A bracket text in the plain-list grammar is read by its items,
        # which are what `ast.literal_eval` makes of it; any other bracket
        # text is read by `ast.literal_eval` itself.
        expected = oracles.question_list(completion)
        bracket = re.search(r"\[.*\]", completion, re.DOTALL)
        text = bracket.group(0) if bracket else None
        items = None if text is None else oracles.plain_list(text)
        if items is not None:
            assert ast.literal_eval(text) == items
        with mock.patch.object(ast, "literal_eval",
                               wraps=ast.literal_eval) as literal_eval:
            assert parse_question_list(completion) == expected
        assert literal_eval.call_count == (text is not None and items is None)

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

    def test_unhashable_literal_falls_through_to_numbered_lines(self):
        # `ast.literal_eval` raises TypeError for a set holding a list.
        assert parse_question_list("1. What is tea?\n[{[1]}]") \
            == ["What is tea?"]

    def test_deduplication_preserves_order(self):
        assert parse_question_list('["B?", "A?", "B?"]') == ["B?", "A?"]

    def test_invalid_escape_read_without_a_warning(self):
        # Python 3.11 warns of the escape with a DeprecationWarning, 3.12
        # and later with a SyntaxWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_question_list(r"['What is \d?', 'x?']") \
                == [r"What is \d?", "x?"]


def ten_questions():
    return str([f"Question {i}?" for i in range(10)])


class TestGenerateBank:
    def test_fixed_list_yields_ten_per_query(self):
        queries = [Query("q1", "topic one"), Query("q2", "topic two")]
        backend = RecordingBackend({"default": ten_questions()})
        bank = generate_bank(queries, backend, 1, per_facet=False)
        assert len(bank.questions_for("q1")) == 10
        assert len(bank.questions_for("q2")) == 10
        assert len(backend.request_log) == 2

    def test_deterministic_question_ids(self):
        queries = [Query("q1", "topic")]
        bank_a = generate_bank(queries, MockBackend(
            {"default": ten_questions()}), 1, per_facet=False)
        bank_b = generate_bank(queries, MockBackend(
            {"default": ten_questions()}), 1, per_facet=False)
        assert [q.question_id for q in bank_a.questions_for("q1")] \
            == [q.question_id for q in bank_b.questions_for("q1")] \
            == [f"q1/q/{i}" for i in range(10)]

    def test_facet_template_fans_out_per_facet(self, skin_query):
        backend = MockBackend({"default": '["F?"]'})
        bank = generate_bank([skin_query], backend, 1, per_facet=True)
        [question] = bank.questions_for(skin_query.query_id)
        assert question.facet_id == "structure-of-the-skin"
        assert question.question_id.endswith("/structure-of-the-skin/0")
        assert question.gold_answer is None

    def test_garbage_retries_once_then_warns(self, caplog):
        backend = RecordingBackend({"default": "garbage"})
        bank = generate_bank([Query("q1", "t")], backend, 1,
                             per_facet=False)
        assert bank.questions_for("q1") == ()
        assert len(backend.request_log) == 2
        assert any("no questions parsed" in r.message for r in caplog.records)

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
            banks.append(generate_bank(queries, Backend(responses),
                                       parallelism, per_facet=True))
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

    def diff(self, old, new, grades):
        policy = GradePolicy(SELF_RATED, min_rating=4)
        return diff_banks(grade_index(grades, policy, old),
                          grade_index(grades, policy, new))

    def test_identical_banks_empty_diff(self):
        bank = self.two_question_bank()
        grades = [rated("q1", "p1", "q1/q/0", 5)]
        assert self.diff(bank, bank, grades) == BankDiffReport()

    def test_removing_sole_answering_question_flips(self):
        old = self.two_question_bank()
        new = QuestionBank({"q1": (ExamQuestion("q1/q/1", "q1", "B?"),)})
        grades = [rated("q1", "p1", "q1/q/0", 5),
                  rated("q1", "p1", "q1/q/1", 0)]
        report = self.diff(old, new, grades)
        assert report.removed == ["q1/q/0"]
        [flip] = report.flips
        assert (flip.passage_id, flip.old_label, flip.new_label) == ("p1", 1, 0)

    def test_added_ungraded_question_flagged_not_flipped(self):
        old = self.two_question_bank()
        new = QuestionBank({"q1": old.questions_for("q1")
                            + (ExamQuestion("q1/q/2", "q1", "C?"),)})
        grades = [rated("q1", "p1", "q1/q/0", 5)]
        report = self.diff(old, new, grades)
        assert report.added == ["q1/q/2"]
        assert report.needs_grading == ["q1/q/2"]
        assert report.flips == []

    def test_removals_only_flip_downward(self):
        # Property: deleting questions can only turn labels 1 -> 0.
        old = self.two_question_bank()
        new = QuestionBank({"q1": (ExamQuestion("q1/q/0", "q1", "A?"),)})
        grades = [rated("q1", f"p{i}", f"q1/q/{j}", r)
                  for i, (j, r) in enumerate([(0, 5), (1, 5), (0, 0), (1, 4)])]
        report = self.diff(old, new, grades)
        for flip in report.flips:
            assert (flip.old_label, flip.new_label) == (1, 0)

    def test_edited_question_detected(self):
        old = self.two_question_bank()
        new = QuestionBank({"q1": (
            ExamQuestion("q1/q/0", "q1", "A, but sharper?"),
            ExamQuestion("q1/q/1", "q1", "B?"),
        )})
        report = self.diff(old, new, [rated("q1", "p1", "q1/q/0", 5)])
        assert report.edited == ["q1/q/0"]
        assert report.needs_grading == []

    def test_moved_question_flips_the_labels_it_changes(self):
        # Same id and text, filed under another query: an edit, whose
        # grade under its new query counts and flips that pair's label.
        old = QuestionBank({"q1": (ExamQuestion("q1/q/0", "q1", "A?"),),
                            "q2": (ExamQuestion("b", "q2", "B?"),)})
        new = QuestionBank({"q1": (*old.questions_for("q1"),
                                   ExamQuestion("b", "q1", "B?")),
                            "q2": ()})
        report = self.diff(old, new, [rated("q1", "p1", "b", 5)])
        assert (report.added, report.removed, report.edited) \
            == ([], [], ["b"])
        assert report.needs_grading == []
        assert report.flips == [LabelFlip("q1", "p1", 0, 1)]
        # Without a grade under its new query, it needs grading.
        report = self.diff(old, new, [rated("q2", "p1", "b", 5)])
        assert (report.edited, report.needs_grading) == (["b"], ["b"])
