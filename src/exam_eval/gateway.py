"""Prompt rendering, token budgeting, and completion execution.

The completion backend is pluggable: an OpenAI-compatible HTTP endpoint for
real inference, or a deterministic mock for tests and fixture pipelines.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

from . import formats
from .model import BackendError, ContractViolation, Facet, Query

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

# Each renderer substitutes every field of its template in one
# `str.format` pass, which never rescans what it inserts, so bound values
# that contain braces (JSON, LaTeX, code) come through verbatim.

def render_question_gen_prompt(query: Query, facet: Facet | None = None) -> str:
    """Render the question-generation prompt for a query (and facet).

    The facet-focused template requires a facet; the plain query template
    must be called without one.
    """
    if facet is None:
        return QUESTION_GEN_DL.format(query_title=query.title)
    return QUESTION_GEN_CAR.format(query_title=query.title,
                                   query_subtopic=facet.title)


def render_qa_prompt(question: str, context: str) -> str:
    return QA_PROMPT.format(question=question, context=context)


def render_self_rating_prompt(question: str, context: str) -> str:
    return SELF_RATING_PROMPT.format(question=question, context=context)


# ---------------------------------------------------------------------------
# Token budgeting

def token_count(text: str) -> int:
    """Whitespace-token count, the unit of every token budget."""
    return len(text.split())


class BudgetExceeded(ValueError):
    """Template plus question alone exceed the token budget."""


@functools.cache
def _fixed_tokens(render: Callable[[str, str], str], question: str) -> int:
    """Token count of the prompt with an empty context: one per renderer
    and question."""
    return token_count(render(question, ""))


# `(low, start)`: a context split after its first `low` tokens, and the
# offset at which the rest begins (see `split_context`).
ContextSplit = tuple[int, int | None]


def smallest_allowance(questions: Iterable[str], budget: int,
                       render: Callable[[str, str], str]) -> int:
    """The fewest context tokens that the budget leaves beside any of the
    questions that fit it: the `low` at which `split_context` splits a
    context once for all of them. 0 when none fits, as then no context is
    cut."""
    return min((budget - fixed for fixed in
                (_fixed_tokens(render, question) for question in questions)
                if fixed <= budget), default=0)


def split_context(context: str, low: int) -> ContextSplit:
    """`(low, start)`: `start` is the offset at which the context's token
    `low + 1` begins, or None when it has no more than `low` tokens."""
    # Splitting stops after `low` tokens; the rest of the context, from
    # token `low + 1`, comes back whole as the last part.
    parts = context.split(None, low)
    return low, (len(context) - len(parts[-1]) if len(parts) > low
                 else None)


def truncate_context(question: str, context: str, budget: int,
                     render: Callable[[str, str], str],
                     split: ContextSplit | None = None) -> str:
    """Shorten the context so the prompt that `render` makes of the
    question and context fits the token budget.

    The context keeps its longest whitespace-token prefix for which the
    whole prompt fits; the returned context is that character prefix,
    ending at the last kept token, and the question and template text are
    never touched. Raises BudgetExceeded when the prompt cannot fit even
    with an empty context.

    The cut is computed, not searched for: in the grading templates
    `{context}` is the last field and follows whitespace, so no token
    spans the boundary and the prompt's whitespace-token count is the
    empty-context count plus the context's own. So the context keeps
    `keep = budget - fixed` tokens, where `fixed` is the empty-context
    count.

    The cut can start from a split shared by every question asked of the
    context: `split` is `split_context(context, low)` for a `low` of at
    most this question's `keep`, such as the `smallest_allowance` of the
    questions. A `low` above `keep` raises ContractViolation. Without
    `split`, the context is split at `keep` itself. From `(low, start)`:
    a None `start` keeps the whole context; a `low` equal to `keep` cuts
    at `start`; otherwise the rest of the context from `start` is split
    at `keep - low` more tokens, and the context is cut where the token
    after those begins, or kept whole when the rest has no more tokens
    than that. The cut drops the whitespace before it.
    """
    fixed = _fixed_tokens(render, question)
    if fixed > budget:
        raise BudgetExceeded(
            f"question and template alone need {fixed} tokens, "
            f"budget is {budget}")
    keep = budget - fixed
    low, start = split_context(context, keep) if split is None else split
    if low > keep:
        raise ContractViolation(
            f"context split after {low} tokens, but the question leaves "
            f"room for {keep}")
    if start is not None and low < keep:
        extra = keep - low
        more = context[start:].split(None, extra)
        start = len(context) - len(more[-1]) if len(more) > extra else None
    return context if start is None else context[:start].rstrip()


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


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResponse: ...

    def close(self) -> None: ...


def _delay_seconds(retry_after: str | None) -> float | None:
    """The delay that a Retry-After header gives in seconds (RFC 9110,
    section 10.2.3), at most TIMEOUT_S; None for an HTTP-date, a value
    that does not parse, or no header."""
    value = (retry_after or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), TIMEOUT_S)


class HttpBackend:
    """OpenAI-compatible completions client with retry and backoff.

    One prompt per request; batching is intentionally unsupported. The
    endpoint must be an http:// or https:// URL that names a host. The
    environment is read once, when the client is built: the auth token,
    if any, from EXAM_EVAL_API_KEY, and the proxy, if any, from HTTP_PROXY
    or HTTPS_PROXY, unless NO_PROXY covers the endpoint's host. So a
    malformed endpoint, or a proxy URL that names no host, fails before
    any request instead of being retried.

    Each thread that sends requests keeps one keep-alive connection;
    `close` closes them all. Redirects are not followed.

    `http.client` and `urllib.request` (which load `email` and `ssl`) are
    imported where a client uses them, so that a command that builds no
    client does not load them.
    """

    def __init__(self, endpoint_url: str, model_name: str,
                 sleep: Callable[[float], None] = time.sleep):
        import http.client
        import urllib.request
        url = urllib.parse.urlsplit(endpoint_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ContractViolation(
                f"endpoint {endpoint_url!r} is not an http:// or https:// URL "
                f"naming a host" if endpoint_url
                else "no backend: give --endpoint or --mock")
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self._sleep = sleep
        https = url.scheme == "https"
        self._connection_class = (http.client.HTTPSConnection if https
                                  else http.client.HTTPConnection)
        # The address to connect to, the host and port to tunnel to, and
        # the request target: of the endpoint, or of the proxy it goes by.
        origin = (url.hostname, url.port or (443 if https else 80))
        self._address, self._tunnel = origin, None
        self._target = urllib.parse.urlunsplit(
            ("", "", url.path or "/", url.query, ""))
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.hostname):
            proxy_url = urllib.parse.urlsplit(
                proxy if "://" in proxy else f"http://{proxy}")
            if not proxy_url.hostname:
                raise ContractViolation(
                    f"{url.scheme} proxy {proxy!r} names no host")
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            # https tunnels through the proxy; plain http sends it the
            # absolute URI.
            if https:
                self._tunnel = origin
            else:
                self._target = endpoint_url
        self._headers = {"Content-Type": "application/json"}
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token:
            self._headers["Authorization"] = f"Bearer {token}"
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection; it connects on its first request."""
        conn = getattr(self._local, "connection", None)
        if conn is None:
            conn = self._local.connection = self._connection_class(
                *self._address, timeout=TIMEOUT_S)
            if self._tunnel:
                conn.set_tunnel(*self._tunnel)
            with self._lock:
                self._opened.append(conn)
        return conn

    def _post(self, body: bytes) -> tuple[http.client.HTTPResponse, bytes]:
        """One POST of the body: the response and its body, read in full."""
        import http.client
        conn = self._connection()
        reused = conn.sock is not None
        try:
            conn.request("POST", self._target, body, self._headers)
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
        return self._post(body)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        import http.client
        body = json.dumps({
            "model": self.model_name,
            "prompt": request.prompt,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_NEW_TOKENS,
        }).encode()
        attempts = MAX_RETRIES + 1
        last_error: Exception | None = None
        retry_after: float | None = None
        start = time.monotonic()
        for attempt in range(attempts):
            if attempt:
                self._sleep(2.0 ** (attempt - 1) if retry_after is None
                            else retry_after)
                retry_after = None
            try:
                resp, reply = self._post(body)
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
                if resp.status in (429, 503):
                    retry_after = _delay_seconds(resp.getheader("Retry-After"))
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
        from concurrent.futures import ThreadPoolExecutor
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

