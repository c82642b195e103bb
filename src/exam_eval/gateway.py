"""Prompt rendering, token budgeting, and completion execution.

The completion backend is pluggable: an OpenAI-compatible HTTP endpoint for
real inference, or a deterministic mock for tests and fixture pipelines.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import requests

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


_PLACEHOLDERS = {name: frozenset(re.findall(r"\{([a-z_]+)\}", body))
                 for name, body in PROMPT_TEMPLATES.items()}


def render(name: str, **bindings: str) -> str:
    """Substitute every `{name}` of the named template in one pass.

    Only the template is checked for unbound names: `str.format` never
    rescans what it inserts, so bound values that contain braces (JSON,
    LaTeX, code) come through verbatim.
    """
    if name not in PROMPT_TEMPLATES:
        raise ContractViolation(f"unknown prompt template {name!r}")
    unbound = _PLACEHOLDERS[name] - bindings.keys()
    if unbound:
        raise ContractViolation(
            f"template {name!r} left unbound placeholders: "
            f"{', '.join(sorted(unbound))}")
    return PROMPT_TEMPLATES[name].format(**bindings)


def render_question_gen_prompt(query: Query, facet: Facet | None = None) -> str:
    """Render the question-generation prompt for a query (and facet).

    The facet-focused template requires a facet; the plain query template
    must be called without one.
    """
    if not query.title:
        raise ContractViolation("query title must be non-empty")
    if facet is None:
        return render("question_gen_dl", query_title=query.title)
    if not facet.title:
        raise ContractViolation("facet title must be non-empty")
    return render("question_gen_car", query_title=query.title,
                  query_subtopic=facet.title)


def render_qa_prompt(question: str, context: str) -> str:
    if not question:
        raise ContractViolation("question must be non-empty")
    return render("qa", question=question, context=context)


def render_self_rating_prompt(question: str, context: str) -> str:
    if not question:
        raise ContractViolation("question must be non-empty")
    return render("self_rating", question=question, context=context)


# ---------------------------------------------------------------------------
# Token budgeting

def token_count(text: str) -> int:
    """Whitespace-token count, the unit of every token budget."""
    return len(text.split())


# Templates whose last field is `{context}`, after whitespace.
_TRUNCATABLE = frozenset(name for name, body in PROMPT_TEMPLATES.items()
                         if re.search(r"\s\{context\}\Z", body))


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
    if template_name not in _TRUNCATABLE:
        raise ContractViolation(
            f"template {template_name!r} does not end in a context field")
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


class HttpBackend:
    """OpenAI-compatible completions client with retry and backoff.

    Auth token, if needed, comes from the EXAM_EVAL_API_KEY environment
    variable. One prompt per request; batching is intentionally unsupported.
    """

    def __init__(self, endpoint_url: str, model_name: str,
                 session: requests.Session | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        if not endpoint_url:
            raise ContractViolation("endpoint_url is required")
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.session = session or requests.Session()
        self._sleep = sleep

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload = {
            "model": self.model_name,
            "prompt": request.prompt,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_NEW_TOKENS,
        }
        attempts = MAX_RETRIES + 1
        last_error: Exception | None = None
        start = time.monotonic()
        for attempt in range(attempts):
            if attempt:
                self._sleep(min(2.0 ** (attempt - 1), 30.0))
            try:
                resp = self.session.post(
                    self.endpoint_url, json=payload, headers=headers,
                    timeout=TIMEOUT_S)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code == 200:
                # The server answered; asking again would not change a
                # malformed body, so it fails this request at once.
                try:
                    text = resp.json()["choices"][0]["text"]
                    if not isinstance(text, str):
                        raise TypeError(
                            f"completion text is {type(text).__name__}")
                except (ValueError, LookupError, TypeError) as exc:
                    raise BackendError(
                        f"malformed completion body from "
                        f"{self.endpoint_url}: {exc!r}") from exc
                return CompletionResponse(
                    text=text, latency=time.monotonic() - start)
            if resp.status_code in (429, 500, 502, 503, 504):
                last_error = BackendError(
                    f"HTTP {resp.status_code} from {self.endpoint_url}")
                continue
            raise BackendError(
                f"HTTP {resp.status_code} from {self.endpoint_url}: "
                f"{resp.text[:200]}")
        raise BackendError(
            f"completion failed after {attempts} attempts "
            f"(prompt starts {request.prompt[:60]!r}): {last_error}")


class MockBackend:
    """Deterministic scripted backend for model-free pipelines.

    Responses are looked up by request metadata, most specific key first:
    "question_id/passage_id", "question_id", "query_id/facet_id",
    "query_id", then the fixture's "default" entry. Missing everything
    yields an empty completion.
    """

    def __init__(self, responses: dict[str, str]):
        self.responses = dict(responses)

    @classmethod
    def from_fixture(cls, path: str | Path) -> "MockBackend":
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ContractViolation(
                f"mock fixture {path} must be a JSON object")
        return cls({str(k): str(v) for k, v in doc.items()})

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
        return MockBackend.from_fixture(mock_fixture)
    return HttpBackend(endpoint_url, model_name)

