import http.client
import json
import re
import socket
import sys
import urllib.parse

import pytest
from hypothesis import example, given, strategies as st

from exam_eval.formats import GradeStore, ParseError, load_queries
from exam_eval.gateway import (
    AUTH_TOKEN_ENV,
    BackendError,
    BudgetExceeded,
    CompletionRequest,
    HttpBackend,
    MockBackend,
    QA_PROMPT,
    SELF_RATING_PROMPT,
    make_backend,
    render_qa_prompt,
    render_question_gen_prompt,
    render_self_rating_prompt,
    smallest_allowance,
    split_context,
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
from conftest import ok_reply, stored_grades


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

    def test_empty_title_rejected(self, tmp_path):
        # Rendering trusts the query: the queries reader rejects an empty
        # title, so no prompt is ever rendered for one.
        path = tmp_path / "queries.json"
        path.write_text(json.dumps([{"query_id": "q1", "title": ""}]))
        with pytest.raises(ParseError, match="title of query 'q1' must be "
                                             "a non-empty string"):
            load_queries(path)

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


BRACES_TEXT = ('config: {config} then {"key": [1, 2]} and '
               '\\frac{a}{b} {question} {context}')


@pytest.mark.parametrize(
    "render", [render_qa_prompt, render_self_rating_prompt],
    ids=["qa-render_qa_prompt", "self_rating-render_self_rating_prompt"])
class TestBracesRenderVerbatim:
    def test_short_context(self, render):
        question = "What does {config} hold?"
        out = truncate_context(question, BRACES_TEXT, 512, render)
        assert out == BRACES_TEXT
        prompt = render(question, out)
        assert prompt.endswith(f"Question: {question}\nContext: {BRACES_TEXT}")

    def test_truncated_context(self, render):
        context = " ".join([BRACES_TEXT] * 100)
        out = truncate_context("A?", context, 128, render)
        assert context.startswith(out) and len(out) < len(context)
        prompt = render("A?", out)
        assert prompt.endswith(f"Context: {out}")
        assert token_count(prompt) <= 128


class TestTruncation:
    def test_short_context_untouched(self):
        assert truncate_context("A?", "short context", 512,
                                render_qa_prompt) == "short context"

    def test_long_context_fits_budget(self):
        context = " ".join(f"tok{i}" for i in range(1000))
        out = truncate_context("A?", context, 512, render_qa_prompt)
        assert context.startswith(out)
        prompt = render_qa_prompt("A?", out)
        assert token_count(prompt) <= 512
        # Tight: one more context token would overflow.
        assert token_count(prompt) == 512

    def test_question_intact_under_truncation(self):
        context = " ".join(f"tok{i}" for i in range(1000))
        question = "What is the airspeed velocity of an unladen swallow?"
        out = truncate_context(question, context, 128, render_qa_prompt)
        assert question in render_qa_prompt(question, out)

    def test_oversized_question_is_hard_error(self):
        question = " ".join(f"word{i}" for i in range(600))
        with pytest.raises(BudgetExceeded):
            truncate_context(question, "ctx", 512, render_qa_prompt)


def test_context_field_is_last_and_follows_whitespace():
    # truncate_context counts the prompt's tokens as the empty-context
    # count plus the context's own, which holds only for such templates.
    for body in (QA_PROMPT, SELF_RATING_PROMPT):
        head, field, tail = body.rpartition("{context}")
        assert field and tail == "" and "{context}" not in head
        assert head[-1].isspace()


def longest_fitting_prefix(question, context, budget, render):
    """Brute force: render and count the prompt for every token prefix."""
    fits = lambda c: token_count(render(question, c)) <= budget
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


@pytest.mark.parametrize("render", [render_qa_prompt,
                                    render_self_rating_prompt],
                         ids=["qa", "self_rating"])
@given(context=contexts, questions=st.lists(questions, min_size=1,
                                            max_size=5),
       pick=st.integers(0, 4), slack=st.integers(-1, 62))
# A question that keeps no context token, and one that keeps two more than
# the shared split, beside a question over the budget; a context of
# whitespace alone.
@example(context="tok x\u3000{} tok",
         questions=["x", "tok tok tok", "x x x x"], pick=0, slack=0)
@example(context="tok x\u3000{} tok",
         questions=["x", "tok tok tok", "x x x x"], pick=1, slack=0)
@example(context=" \t\u2028 ", questions=["x", "tok tok"], pick=0, slack=0)
def test_shared_split_matches_brute_force(render, context, questions, pick,
                                          slack):
    # Each question's cut, made alone or finished from one split of the
    # context at the smallest allowance of the questions that fit, is the
    # longest prefix that fits; the budget is drawn around one question's
    # fixed tokens, so others may be over it.
    budget = token_count(render(questions[pick % len(questions)], "")) + slack
    split = split_context(context, smallest_allowance(questions, budget,
                                                      render))
    for question in questions:
        try:
            expected = longest_fitting_prefix(question, context, budget,
                                              render)
        except BudgetExceeded:
            for shared in ((), (split,)):
                with pytest.raises(BudgetExceeded):
                    truncate_context(question, context, budget, render,
                                     *shared)
            continue
        assert truncate_context(question, context, budget, render) \
            == expected
        assert truncate_context(question, context, budget, render,
                                split) == expected


def test_split_past_the_allowance_is_a_contract_violation():
    context = " ".join(f"tok{i}" for i in range(600))
    keep = 512 - token_count(render_qa_prompt("A?", ""))
    assert truncate_context("A?", context, 512, render_qa_prompt,
                            split_context(context, keep)) \
        == truncate_context("A?", context, 512, render_qa_prompt)
    with pytest.raises(ContractViolation, match=re.escape(
            f"context split after {keep + 1} tokens, but the question "
            f"leaves room for {keep}")):
        truncate_context("A?", context, 512, render_qa_prompt,
                         split_context(context, keep + 1))


MALFORMED_BODIES = ["not json", "{}", '{"choices": []}',
                    '{"choices": [{"text": null}]}']


ENDPOINT = "http://backend/v1/completions"


def never_sleep(seconds):
    raise AssertionError(f"retried after {seconds} s")


class TestHttpBackend:

    def test_success_after_rate_limiting(self, completion_server,
                                         http_backend):
        completion_server.replies += [(429, "", {}), (429, "", {}),
                                      ok_reply("hi")]
        backend = http_backend()
        response = backend.complete(CompletionRequest.of("prompt"))
        assert response.text == "hi"
        assert len(completion_server.received) == 3

    def test_exhausted_retries_surface_error(self, completion_server,
                                             http_backend):
        completion_server.replies += [(503, "", {})] * 4
        slept = []
        backend = http_backend(sleep=slept.append)
        with pytest.raises(BackendError) as excinfo:
            backend.complete(CompletionRequest.of("some prompt text"))
        assert "some prompt" in str(excinfo.value)
        assert len(completion_server.received) == 4
        assert slept == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("replies, expected", [
        ([(429, "3")], [3]),
        ([(503, "999")], [60]),
        ([(503, " 0 ")], [0]),
        ([(429, "3"), (500, None)], [3, 2.0]),
        ([(500, "3")], [1.0]),
        ([(429, "Wed, 21 Oct 2015 07:28:00 GMT")], [1.0]),
        ([(503, "-3")], [1.0]),
        ([(503, "2.5")], [1.0]),
        ([(429, "\uff13")], [1.0]),
    ], ids=["seconds", "capped", "zero", "backoff-after-a-retry-after",
            "not-429-or-503", "http-date", "negative", "fraction",
            "non-ascii-digit"])
    def test_retry_after_in_seconds_replaces_the_backoff(
            self, completion_server, http_backend, replies, expected):
        # RFC 9110, section 10.2.3: delay-seconds is 1*DIGIT; an HTTP-date
        # or anything else leaves the backoff of 1, 2 and 4 s.
        completion_server.replies += [
            (status, "", {} if value is None else {"Retry-After": value})
            for status, value in replies] + [ok_reply("hi")]
        slept = []
        backend = http_backend(sleep=slept.append)
        assert backend.complete(CompletionRequest.of("p")).text == "hi"
        assert slept == expected

    def test_client_error_fails_fast(self, completion_server, http_backend):
        completion_server.replies.append((400, "bad request", {}))
        backend = http_backend()
        with pytest.raises(BackendError):
            backend.complete(CompletionRequest.of("p"))
        assert len(completion_server.received) == 1

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_reply_fails_fast(self, completion_server,
                                        http_backend, body):
        completion_server.replies += [(200, body, {}), ok_reply("late")]
        backend = http_backend()
        with pytest.raises(BackendError,
                           match=re.escape(completion_server.url)):
            backend.complete(CompletionRequest.of("p"))
        assert len(completion_server.received) == 1

    def test_malformed_reply_skips_only_its_pair(self, tmp_path,
                                                 completion_server,
                                                 http_backend):
        bank = QuestionBank({"q1": (ExamQuestion("q1/q/0", "q1", "A?"),)})
        passages = {"q1": {f"p{i}": f"text {i}" for i in range(6)}}
        # Serial grading sends the pairs in passage order.
        completion_server.replies += [
            ok_reply("4"), *((200, body, {}) for body in MALFORMED_BODIES),
            ok_reply("5")]
        backend = http_backend()
        store = GradeStore(tmp_path / "g.jsonl.gz")
        summary = grade_corpus(bank, passages, SELF_RATED, store, backend,
                               512, 1)
        assert len(completion_server.received) == 6
        assert summary.graded == 2
        assert [f.passage_id for f in summary.failures] \
            == ["p1", "p2", "p3", "p4"]
        assert {key[1]: row[2] for key, row in stored_grades(store)} \
            == {"p0": 4, "p5": 5}

    def test_endpoint_required(self):
        with pytest.raises(ContractViolation,
                           match="no backend: give --endpoint or --mock"):
            HttpBackend("", "m")

    @pytest.mark.parametrize("url", [
        "localhost:1/v1/completions", "backend/v1/completions",
        "ftp://backend/v1", "http:///v1/completions", "https://:8000/v1"])
    def test_endpoint_without_scheme_or_host_rejected(self, completion_server,
                                                      url):
        # Requests would fail at once and be retried like network errors;
        # the URL is rejected before the first one.
        with pytest.raises(ContractViolation, match=re.escape(
                f"endpoint {url!r} is not an http:// or https:// URL "
                f"naming a host")):
            HttpBackend(url, "m",
                        sleep=never_sleep).complete(CompletionRequest.of("p"))
        assert len(completion_server.received) == 0

    @pytest.mark.parametrize("url", [
        ENDPOINT, "https://127.0.0.1:8000/v1/completions", "http://[::1]/v1"])
    def test_endpoint_with_scheme_and_host_accepted(
            self, completion_server, http_backend, monkeypatch, url):
        # The loopback server stands in for every host as their proxy; an
        # https endpoint is reached through a plain tunnel.
        proxy = f"http://127.0.0.1:{completion_server.server_port}"
        monkeypatch.setenv("http_proxy", proxy)
        monkeypatch.setenv("https_proxy", proxy)
        monkeypatch.setattr(http.client, "HTTPSConnection",
                            http.client.HTTPConnection)
        completion_server.replies.append(ok_reply("hi"))
        backend = http_backend(url)
        assert backend.complete(CompletionRequest.of("p")).text == "hi"
        target = urllib.parse.urlsplit(url)
        assert [(r.method, r.path) for r in completion_server.received] == (
            [("CONNECT", target.netloc), ("POST", target.path)]
            if target.scheme == "https" else [("POST", url)])

    def test_sequential_requests_share_one_connection(self, completion_server,
                                                      http_backend):
        completion_server.replies += [ok_reply(str(i)) for i in range(5)]
        backend = http_backend(sleep=never_sleep)
        assert [backend.complete(CompletionRequest.of("p")).text
                for _ in range(5)] == ["0", "1", "2", "3", "4"]
        assert completion_server.connections == 1
        assert {r.connection for r in completion_server.received} == {1}

    @pytest.mark.parametrize("parallelism", [2, 8])
    def test_parallel_grading_opens_one_connection_per_worker(
            self, tmp_path, completion_server, http_backend, parallelism):
        bank = QuestionBank({"q1": tuple(
            ExamQuestion(f"q1/q/{i}", "q1", f"Q{i}?") for i in range(4))})
        passages = {"q1": {f"p{i}": f"text {i}" for i in range(5)}}
        completion_server.replies += [ok_reply("3")] * 20
        backend = http_backend(sleep=never_sleep)
        # Frequent thread switches, to expose a lost update of the
        # connections that `close` must close.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            summary = grade_corpus(bank, passages, SELF_RATED,
                                   GradeStore(tmp_path / "g.jsonl.gz"),
                                   backend, 512, parallelism)
        finally:
            sys.setswitchinterval(interval)
        assert summary.graded == 20 and not summary.failures
        assert 1 <= completion_server.connections <= parallelism
        assert len(backend._opened) == completion_server.connections

    def test_dropped_keep_alive_is_resent_without_a_retry(
            self, completion_server, http_backend):
        completion_server.close_after_reply = True
        completion_server.replies += [ok_reply("first"), ok_reply("second")]
        backend = http_backend(sleep=never_sleep)
        assert backend.complete(CompletionRequest.of("p")).text == "first"
        assert backend.complete(CompletionRequest.of("p")).text == "second"
        assert completion_server.connections == 2
        assert [r.connection for r in completion_server.received] == [1, 2]

    def test_dropped_fresh_connection_is_retried(self, completion_server,
                                                 http_backend):
        completion_server.replies += [None] * 4
        slept = []
        with pytest.raises(BackendError, match="after 4 attempts"):
            http_backend(sleep=slept.append).complete(
                CompletionRequest.of("p"))
        assert slept == [1.0, 2.0, 4.0]
        assert [r.connection for r in completion_server.received] \
            == [1, 2, 3, 4]

    @pytest.mark.parametrize("token", [None, "s3cret"])
    def test_bearer_token_only_when_set(self, completion_server,
                                        http_backend, monkeypatch, token):
        if token is None:
            monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        else:
            monkeypatch.setenv(AUTH_TOKEN_ENV, token)
        completion_server.replies.append(ok_reply("hi"))
        http_backend().complete(CompletionRequest.of("p"))
        (received,) = completion_server.received
        assert received.headers.get("Authorization") == (
            token and f"Bearer {token}")
        assert json.loads(received.body)["prompt"] == "p"

    def test_redirect_is_not_followed(self, completion_server, http_backend):
        completion_server.replies += [
            (302, "", {"Location": "http://elsewhere/v1/completions"}),
            ok_reply("late")]
        with pytest.raises(BackendError, match=re.escape(
                "HTTP 302 from ")) as excinfo:
            http_backend(sleep=never_sleep).complete(
                CompletionRequest.of("p"))
        assert "http://elsewhere/v1/completions" in str(excinfo.value)
        assert len(completion_server.received) == 1

    @pytest.mark.parametrize("scheme", ["http://", ""])
    def test_http_proxy_gets_the_absolute_uri(self, completion_server,
                                              http_backend, monkeypatch,
                                              scheme):
        monkeypatch.setenv(
            "http_proxy",
            f"{scheme}127.0.0.1:{completion_server.server_port}")
        completion_server.replies.append(ok_reply("via proxy"))
        url = "http://unresolvable.invalid/v1/completions"
        backend = http_backend(url, sleep=never_sleep)
        assert backend.complete(CompletionRequest.of("p")).text == "via proxy"
        (received,) = completion_server.received
        assert received.path == url
        assert received.headers["Host"] == "unresolvable.invalid"

    def test_proxy_without_host_rejected(self, monkeypatch):
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        monkeypatch.setenv("http_proxy", "http://:3128")
        with pytest.raises(ContractViolation, match=re.escape(
                "http proxy 'http://:3128' names no host")):
            make_backend(ENDPOINT, "m")

    def test_no_proxy_host_is_reached_directly(self, completion_server,
                                               http_backend, monkeypatch):
        monkeypatch.setenv(
            "http_proxy", f"http://127.0.0.1:{completion_server.server_port}")
        monkeypatch.setenv("no_proxy", "localhost,.invalid")
        dialled = []

        def refuse(address, *args, **kwargs):
            # Stands in for the connect, so that no name is looked up.
            dialled.append(address)
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(socket, "create_connection", refuse)
        backend = http_backend("http://unresolvable.invalid/v1/completions")
        with pytest.raises(BackendError, match="refused"):
            backend.complete(CompletionRequest.of("p"))
        assert set(dialled) == {("unresolvable.invalid", 80)}
        assert completion_server.received == []


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
        backend = make_backend("", "m", str(path))
        assert backend.complete(CompletionRequest.of("p")).text == "0"

    def test_empty_completion_when_unscripted(self):
        backend = MockBackend({})
        assert backend.complete(CompletionRequest.of("p")).text == ""

