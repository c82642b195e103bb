"""Prompt rendering, token budgeting, and completion execution.

The completion backend is pluggable: an OpenAI-compatible HTTP endpoint for
real inference, or a deterministic mock for tests and fixture pipelines.
"""
from __future__ import annotations

import functools
import http.client
import json
import logging
import os
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol

from . import formats
from .model import ContractViolation, Facet, Query

log = logging.getLogger(__name__)

AUTH_TOKEN_ENV = "EXAM_EVAL_API_KEY"


QUESTION_GEN_DL = (
    "Break the query '{query_title}' into concise questions that must be "
    "answered. Generate 10 concise insightful questions that reveal whether "
    "information relevant for '{query_title}' was provided, showcasing a "
    "deep understanding of the subject matter. Avoid basic or "
    "introductory-level inquiries. Keep the questions short and in a Python "
    "list format."
)

QUESTION_GEN_CAR = (
    "Explore the connection between '{query_title}' with a specific focus "
    "on the subtopic '{query_subtopic}'. Generate insightful questions that "
    "delve into advanced aspects of '{query_subtopic}', showcasing a deep "
    "understanding of the subject matter. Avoid basic or introductory-level "
    "inquiries. Give the question set in a Python list format."
)

QA_PROMPT = (
    "provide a complete and concise answer to the question based on the "
    "context.\n"
    "Question: {question}\n"
    "Context: {context}"
)

SELF_RATING_PROMPT = (
    "Can the question be answered based on the available context? "
    "choose one:\n"
    "- 5: The answer is highly relevant, complete, and accurate.\n"
    "- 4: The answer is mostly relevant and complete but may have minor "
    "gaps or inaccuracies.\n"
    "- 3: The answer is partially relevant and complete, with noticeable "
    "gaps or inaccuracies.\n"
    "- 2: The answer has limited relevance and completeness, with "
    "significant gaps or inaccuracies.\n"
    "- 1: The answer is minimally relevant or complete, with substantial "
    "shortcomings.\n"
    "- 0: The answer is not relevant or complete at all.\n"
    "Question: {question}\n"
    "Context: {context}"
)

PROMPT_TEMPLATES = {
    "question_gen_dl": QUESTION_GEN_DL,
    "question_gen_car": QUESTION_GEN_CAR,
    "qa": QA_PROMPT,
    "self_rating": SELF_RATING_PROMPT,
}


def render(name: str, **bindings: str) -> str:
    """Substitute every `{name}` of the named template in one pass.

    `str.format` never rescans what it inserts, so bound values that
    contain braces (JSON, LaTeX, code) come through verbatim.
    """
    return PROMPT_TEMPLATES[name].format(**bindings)


def render_question_gen_prompt(query: Query, facet: Facet | None = None) -> str:
    """Render the question-generation prompt for a query (and facet).

    The facet-focused template requires a facet; the plain query template
    must be called without one.
    """
    if facet is None:
        return render("question_gen_dl", query_title=query.title)
    return render("question_gen_car", query_title=query.title,
                  query_subtopic=facet.title)


def render_qa_prompt(question: str, context: str) -> str:
    return render("qa", question=question, context=context)


def render_self_rating_prompt(question: str, context: str) -> str:
    return render("self_rating", question=question, context=context)


# ---------------------------------------------------------------------------
# Token budgeting

def token_count(text: str) -> int:
    """Whitespace-token count, the unit of every token budget."""
    return len(text.split())


class BudgetExceeded(ValueError):
    """Template plus question alone exceed the token budget."""


@functools.lru_cache(maxsize=1024)
def _fixed_tokens(template_name: str, question: str) -> int:
    """Token count of the prompt with an empty context: one per question."""
    return token_count(render(template_name, question=question, context=""))


def truncate_context(question: str, context: str, budget: int,
                     template_name: str = "qa") -> str:
    """Shorten the context so the rendered prompt fits the token budget.

    The context keeps its longest whitespace-token prefix for which the
    whole prompt fits; the returned context is that character prefix,
    ending at the last kept token, and the question and template text are
    never touched. Raises BudgetExceeded when the prompt cannot fit even
    with an empty context.

    The cut is computed, not searched for: in the grading templates
    `{context}` is the last field and follows whitespace, so no token
    spans the boundary and the prompt's whitespace-token count is the
    empty-context count plus the context's own.
    """
    fixed = _fixed_tokens(template_name, question)
    if fixed > budget:
        raise BudgetExceeded(
            f"question and template alone need {fixed} tokens, "
            f"budget is {budget}")
    keep = budget - fixed
    # Splitting stops after the kept tokens; the rest of the context, from
    # the first token that must go, comes back whole as the last part.
    parts = context.split(None, keep)
    if len(parts) <= keep:
        return context
    return context[:len(context) - len(parts[-1])].rstrip()


# ---------------------------------------------------------------------------
# Completion backends


# Fixed request settings: greedy decoding and short answers, recorded for
# reproducibility.
TIMEOUT_S = 60.0
MAX_RETRIES = 3
TEMPERATURE = 0.0
MAX_NEW_TOKENS = 128


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    metadata: dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, prompt: str, **metadata: str) -> "CompletionRequest":
        return cls(prompt=prompt, metadata=metadata)


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    latency: float


class BackendError(RuntimeError):
    """A completion could not be obtained after all retries."""


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResponse: ...

    def close(self) -> None: ...


class HttpBackend:
    """OpenAI-compatible completions client with retry and backoff.

    Auth token, if needed, comes from the EXAM_EVAL_API_KEY environment
    variable. One prompt per request; batching is intentionally unsupported.
    The endpoint must be an http:// or https:// URL that names a host, so
    a malformed one fails before any request instead of being retried.

    Each thread that sends requests keeps one keep-alive connection;
    `close` closes them all. The proxy, if any, comes from HTTP_PROXY or
    HTTPS_PROXY, unless NO_PROXY covers the endpoint's host. Redirects
    are not followed.
    """

    def __init__(self, endpoint_url: str, model_name: str,
                 sleep: Callable[[float], None] = time.sleep):
        url = urllib.parse.urlsplit(endpoint_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ContractViolation(
                f"endpoint {endpoint_url!r} is not an http:// or https:// URL "
                f"naming a host" if endpoint_url
                else "no backend: give --endpoint or --mock")
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self._sleep = sleep
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https"
            else http.client.HTTPConnection)
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    @functools.cached_property
    def _route(self) -> tuple[tuple[str, int], tuple[str, int] | None, str]:
        """(address to connect to, host and port to tunnel to or None,
        request target): the endpoint itself, or the proxy that the
        environment names for it. Read at the first request, so that a
        command that sends none does not scan the environment."""
        url = urllib.parse.urlsplit(self.endpoint_url)
        https = url.scheme == "https"
        origin = (url.hostname, url.port or (443 if https else 80))
        path = urllib.parse.urlunsplit(
            ("", "", url.path or "/", url.query, ""))
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.hostname):
            return origin, None, path
        proxy_url = urllib.parse.urlsplit(
            proxy if "://" in proxy else f"http://{proxy}")
        if not proxy_url.hostname:
            raise ContractViolation(
                f"{url.scheme} proxy {proxy!r} names no host")
        address = (proxy_url.hostname, proxy_url.port or 80)
        # https tunnels through the proxy; plain http sends it the
        # absolute URI.
        return ((address, origin, path) if https
                else (address, None, self.endpoint_url))

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection; it connects on its first request."""
        conn = getattr(self._local, "connection", None)
        if conn is None:
            address, tunnel, _ = self._route
            conn = self._local.connection = self._connection_class(
                *address, timeout=TIMEOUT_S)
            if tunnel:
                conn.set_tunnel(*tunnel)
            with self._lock:
                self._opened.append(conn)
        return conn

    def _post(self, body: bytes, headers: dict[str, str]
              ) -> tuple[http.client.HTTPResponse, bytes]:
        """One POST of the body: the response and its body, read in full."""
        conn = self._connection()
        reused = conn.sock is not None
        try:
            conn.request("POST", self._route[2], body, headers)
            response = conn.getresponse()
            return response, response.read()
        # RemoteDisconnected is a ConnectionResetError.
        except (BrokenPipeError, ConnectionResetError):
            conn.close()
            if not reused:
                raise
        except (OSError, http.client.HTTPException):
            conn.close()
            raise
        # The server closed the idle keep-alive connection: sending once
        # more, on a fresh connection, spends no retry.
        return self._post(body, headers)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = json.dumps({
            "model": self.model_name,
            "prompt": request.prompt,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_NEW_TOKENS,
        }).encode()
        attempts = MAX_RETRIES + 1
        last_error: Exception | None = None
        start = time.monotonic()
        for attempt in range(attempts):
            if attempt:
                self._sleep(min(2.0 ** (attempt - 1), 30.0))
            try:
                resp, reply = self._post(body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if resp.status == 200:
                # The server answered; asking again would not change a
                # malformed body, so it fails this request at once.
                try:
                    text = json.loads(reply)["choices"][0]["text"]
                    if not isinstance(text, str):
                        raise TypeError(
                            f"completion text is {type(text).__name__}")
                except (ValueError, LookupError, TypeError) as exc:
                    raise BackendError(
                        f"malformed completion body from "
                        f"{self.endpoint_url}: {exc!r}") from exc
                return CompletionResponse(
                    text=text, latency=time.monotonic() - start)
            if resp.status in (429, 500, 502, 503, 504):
                last_error = BackendError(
                    f"HTTP {resp.status} from {self.endpoint_url}")
                continue
            if 300 <= resp.status < 400:
                raise BackendError(
                    f"HTTP {resp.status} from {self.endpoint_url}: redirect "
                    f"to {resp.getheader('Location')!r} not followed")
            raise BackendError(
                f"HTTP {resp.status} from {self.endpoint_url}: "
                f"{reply.decode('utf-8', 'replace')[:200]}")
        raise BackendError(
            f"completion failed after {attempts} attempts "
            f"(prompt starts {request.prompt[:60]!r}): {last_error}")

    def close(self) -> None:
        """Close every thread's connection."""
        with self._lock:
            for conn in self._opened:
                conn.close()


class MockBackend:
    """Deterministic scripted backend for model-free pipelines.

    Responses are looked up by request metadata, most specific key first:
    "question_id/passage_id", "question_id", "query_id/facet_id",
    "query_id", then the fixture's "default" entry. Missing everything
    yields an empty completion.
    """

    def __init__(self, responses: dict[str, str]):
        self.responses = dict(responses)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        meta = request.metadata
        qid = meta.get("question_id")
        pid = meta.get("passage_id")
        query_id = meta.get("query_id")
        facet_id = meta.get("facet_id")
        candidates = []
        if qid and pid:
            candidates.append(f"{qid}/{pid}")
        if qid:
            candidates.append(qid)
        if query_id and facet_id:
            candidates.append(f"{query_id}/{facet_id}")
        if query_id:
            candidates.append(query_id)
        candidates.append("default")
        for key in candidates:
            if key in self.responses:
                return CompletionResponse(text=self.responses[key],
                                          latency=0.0)
        return CompletionResponse(text="", latency=0.0)

    def close(self) -> None:
        """Nothing to release."""


def map_ordered(fn: Callable, items: list, parallelism: int) -> list:
    """`fn` of every item, in item order; on `parallelism` worker threads
    when that is above 1."""
    if parallelism > 1 and items:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def make_backend(endpoint_url: str, model_name: str,
                 mock_fixture: str | None = None) -> Backend:
    """The scripted backend when a mock fixture is given, else the HTTP
    client for the endpoint."""
    if mock_fixture:
        return MockBackend(formats.load_mock_fixture(mock_fixture))
    return HttpBackend(endpoint_url, model_name)

