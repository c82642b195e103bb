import json
import re

import pytest
from hypothesis import given, strategies as st

from exam_eval.formats import GradeStore
from exam_eval.gateway import (
    BackendError,
    BudgetExceeded,
    CompletionRequest,
    HttpBackend,
    MockBackend,
    PROMPT_TEMPLATES,
    render,
    render_qa_prompt,
    render_question_gen_prompt,
    render_self_rating_prompt,
    token_count,
    truncate_context,
)
from exam_eval.grading import grade_corpus
from exam_eval.model import (
    ContractViolation,
    ExamQuestion,
    Query,
    QuestionBank,
    SELF_RATED,
)
from conftest import stored_grades


class TestPromptRendering:
    def test_query_template_substitution(self):
        prompt = render_question_gen_prompt(
            Query("q1", "how do wildfires start"))
        assert prompt.startswith(
            "Break the query 'how do wildfires start' into concise questions")
        assert "Python list format" in prompt
        assert "{" not in prompt

    def test_facet_template_contains_both_strings(self, skin_query):
        prompt = render_question_gen_prompt(skin_query, skin_query.facets[0])
        assert "The Integumentary System" in prompt
        assert "Structure of the Skin" in prompt
        assert prompt.startswith("Explore the connection between")

    def test_empty_title_rejected(self):
        with pytest.raises(ContractViolation):
            render_question_gen_prompt(Query("q1", ""))

    def test_qa_prompt_question_before_context(self):
        prompt = render_qa_prompt("Outer layer of the skin?", "some passage")
        assert prompt.index("Outer layer") < prompt.index("some passage")
        assert prompt.startswith(
            "provide a complete and concise answer to the question")

    def test_qa_prompt_empty_context_legal(self):
        prompt = render_qa_prompt("A?", "")
        assert prompt.endswith("Context: ")

    def test_self_rating_scale_text(self):
        prompt = render_self_rating_prompt("A?", "ctx")
        assert ("- 5: The answer is highly relevant, complete, and accurate."
                in prompt)
        assert ("- 0: The answer is not relevant or complete at all."
                in prompt)
        assert "{" not in prompt

    def test_rendering_is_pure(self):
        a = render_self_rating_prompt("A?", "ctx")
        b = render_self_rating_prompt("A?", "ctx")
        assert a == b

    def test_unknown_template_name(self):
        with pytest.raises(ContractViolation):
            render("freestyle")

    def test_unbound_body_placeholder_rejected(self):
        with pytest.raises(ContractViolation, match="context"):
            render("qa", question="A?")


BRACES_TEXT = ('config: {config} then {"key": [1, 2]} and '
               '\\frac{a}{b} {question} {context}')


@pytest.mark.parametrize("template_name, render", [
    ("qa", render_qa_prompt), ("self_rating", render_self_rating_prompt)])
class TestBracesRenderVerbatim:
    def test_short_context(self, template_name, render):
        question = "What does {config} hold?"
        out = truncate_context(question, BRACES_TEXT, 512,
                               template_name=template_name)
        assert out == BRACES_TEXT
        prompt = render(question, out)
        assert prompt.endswith(f"Question: {question}\nContext: {BRACES_TEXT}")

    def test_truncated_context(self, template_name, render):
        context = " ".join([BRACES_TEXT] * 100)
        out = truncate_context("A?", context, 128,
                               template_name=template_name)
        assert context.startswith(out) and len(out) < len(context)
        prompt = render("A?", out)
        assert prompt.endswith(f"Context: {out}")
        assert token_count(prompt) <= 128


class TestTruncation:
    def test_short_context_untouched(self):
        assert truncate_context("A?", "short context", 512) == "short context"

    def test_long_context_fits_budget(self):
        context = " ".join(f"tok{i}" for i in range(1000))
        out = truncate_context("A?", context, 512)
        assert context.startswith(out)
        prompt = render_qa_prompt("A?", out)
        assert token_count(prompt) <= 512
        # Tight: one more context token would overflow.
        assert token_count(prompt) == 512

    def test_question_intact_under_truncation(self):
        context = " ".join(f"tok{i}" for i in range(1000))
        question = "What is the airspeed velocity of an unladen swallow?"
        out = truncate_context(question, context, 128)
        assert question in render_qa_prompt(question, out)

    def test_oversized_question_is_hard_error(self):
        question = " ".join(f"word{i}" for i in range(600))
        with pytest.raises(BudgetExceeded):
            truncate_context(question, "ctx", 512)


def test_context_field_is_last_and_follows_whitespace():
    # truncate_context counts the prompt's tokens as the empty-context
    # count plus the context's own, which holds only for such templates.
    bodies = [b for b in PROMPT_TEMPLATES.values() if "{context}" in b]
    assert len(bodies) == 2
    for body in bodies:
        head, field, tail = body.rpartition("{context}")
        assert field and tail == "" and "{context}" not in head
        assert head[-1].isspace()


def test_truncation_needs_a_trailing_context_field():
    with pytest.raises(ContractViolation, match="context field"):
        truncate_context("A?", "ctx", 512, template_name="question_gen_dl")


def longest_fitting_prefix(question, context, budget, template_name):
    """Brute force: render and count the prompt for every token prefix."""
    fits = lambda c: token_count(
        render(template_name, question=question, context=c)) <= budget
    if not fits(""):
        raise BudgetExceeded(budget)
    if fits(context):
        return context
    best = ""
    for match in re.finditer(r"\S+", context):
        if fits(context[:match.end()]):
            best = context[:match.end()]
    return best


WHITESPACE = ["\t", "\n", "\r", "\x1c", "\x85", "\xa0", "\u2009",
              "\u2028", "\u3000", " ", "  "]
WORDS = ["tok", "{braces}", "{context}", "{question}", "{}", "a{b}c",
         "\\frac{a}{b}", "café", "x"]
contexts = st.lists(st.sampled_from(WORDS + WHITESPACE), max_size=60).map(
    "".join)
questions = st.lists(st.sampled_from(WORDS + WHITESPACE), min_size=1,
                     max_size=8).map("".join)


@pytest.mark.parametrize("template_name", ["qa", "self_rating"])
@given(question=questions, context=contexts, data=st.data())
def test_truncation_matches_brute_force(template_name, question, context,
                                        data):
    fixed = token_count(render(template_name, question=question, context=""))
    budget = fixed - 1 + data.draw(
        st.integers(0, len(context.split()) + 2), label="slack")
    try:
        expected = longest_fitting_prefix(question, context, budget,
                                          template_name)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            truncate_context(question, context, budget, template_name)
        return
    assert truncate_context(question, context, budget,
                            template_name) == expected


class FakeResponse:
    def __init__(self, status_code, text=""):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        return self.responses.pop(0)


def ok(text):
    return FakeResponse(200, json.dumps({"choices": [{"text": text}]}))


MALFORMED_BODIES = ["not json", "{}", '{"choices": []}',
                    '{"choices": [{"text": null}]}']


ENDPOINT = "http://backend/v1/completions"


class TestHttpBackend:

    def test_success_after_rate_limiting(self):
        session = FakeSession([FakeResponse(429), FakeResponse(429), ok("hi")])
        backend = HttpBackend(ENDPOINT, "m", session=session,
                              sleep=lambda s: None)
        response = backend.complete(CompletionRequest.of("prompt"))
        assert response.text == "hi"
        assert session.calls == 3

    def test_exhausted_retries_surface_error(self):
        session = FakeSession([FakeResponse(503)] * 4)
        backend = HttpBackend(ENDPOINT, "m", session=session,
                              sleep=lambda s: None)
        with pytest.raises(BackendError) as excinfo:
            backend.complete(CompletionRequest.of("some prompt text"))
        assert "some prompt" in str(excinfo.value)
        assert session.calls == 4

    def test_client_error_fails_fast(self):
        session = FakeSession([FakeResponse(400, text="bad request")])
        backend = HttpBackend(ENDPOINT, "m", session=session,
                              sleep=lambda s: None)
        with pytest.raises(BackendError):
            backend.complete(CompletionRequest.of("p"))
        assert session.calls == 1

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_reply_fails_fast(self, body):
        session = FakeSession([FakeResponse(200, body), ok("late")])
        backend = HttpBackend(ENDPOINT, "m", session=session,
                              sleep=lambda s: None)
        with pytest.raises(BackendError, match="http://backend"):
            backend.complete(CompletionRequest.of("p"))
        assert session.calls == 1

    def test_malformed_reply_skips_only_its_pair(self, tmp_path):
        bank = QuestionBank({"q1": (ExamQuestion("q1/q/0", "q1", "A?"),)})
        passages = {"q1": {f"p{i}": f"text {i}" for i in range(6)}}
        # Serial grading sends the pairs in passage order.
        replies = [ok("4"), *(FakeResponse(200, body)
                              for body in MALFORMED_BODIES), ok("5")]
        session = FakeSession(replies)
        backend = HttpBackend(ENDPOINT, "m", session=session,
                              sleep=lambda s: None)
        store = GradeStore(tmp_path / "g.jsonl.gz")
        summary = grade_corpus(bank, passages, SELF_RATED, store, backend,
                               512, 1)
        assert session.calls == 6
        assert summary.graded == 2
        assert [f.passage_id for f in summary.failures] \
            == ["p1", "p2", "p3", "p4"]
        assert {key[1]: row[2] for key, row in stored_grades(store)} \
            == {"p0": 4, "p5": 5}

    def test_endpoint_required(self):
        with pytest.raises(ContractViolation):
            HttpBackend("", "m")


class TestMockBackend:
    def test_keyed_by_question_and_passage(self):
        backend = MockBackend({"qq1/p1": "epidermis", "default": "dunno"})
        request = CompletionRequest.of("p", question_id="qq1", passage_id="p1")
        assert backend.complete(request).text == "epidermis"
        other = CompletionRequest.of("p", question_id="qq2", passage_id="p9")
        assert backend.complete(other).text == "dunno"

    def test_deterministic(self):
        backend = MockBackend({"default": "4"})
        request = CompletionRequest.of("p")
        assert (backend.complete(request).text
                == backend.complete(request).text == "4")

    def test_fixture_loading(self, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({"default": "0"}))
        backend = MockBackend.from_fixture(path)
        assert backend.complete(CompletionRequest.of("p")).text == "0"

    def test_empty_completion_when_unscripted(self):
        backend = MockBackend({})
        assert backend.complete(CompletionRequest.of("p")).text == ""

