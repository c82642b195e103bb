import http.server
import json
import threading
from dataclasses import dataclass
from email.message import Message

import pytest

from exam_eval.formats import GradeStore
from exam_eval.gateway import (
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    MockBackend,
)
from exam_eval.model import (
    ExamQuestion,
    Facet,
    GradeIndex,
    QA_VERIFIED,
    Query,
    QuestionBank,
    Run,
    SELF_RATED,
)

# The skin-anatomy worked example used throughout the suite: one judged
# passage, one hand-authored question with a gold answer, one generated
# question without.

SKIN_QUERY_ID = "tqa2:L_0384"
SKIN_PASSAGE_ID = "b95bf325b7fdacac183b1daf7c118be407f52a3a"
SKIN_PASSAGE_TEXT = (
    "The skin is the largest organ in the human body. Skin is made up of "
    "three layers, the epidermis, dermis and the fat layer, also called "
    "the hypodermis. The epidermis is the outer layer of skin that keeps "
    "vital fluids in and harmful bacteria out of the body. The dermis is "
    "the inner layer of skin that contains blood vessels, nerves, hair "
    "follicles, oil, and sweat glands. Severe damage to large areas of "
    "skin exposes the human organism to dehydration and infections that "
    "can result in death."
)


@pytest.fixture
def skin_query():
    return Query(
        query_id=SKIN_QUERY_ID,
        title="The Integumentary System",
        facets=(Facet("structure-of-the-skin", "Structure of the Skin"),))


@pytest.fixture
def skin_passage():
    """The passage's id and text."""
    return SKIN_PASSAGE_ID, SKIN_PASSAGE_TEXT


@pytest.fixture
def tqa_question():
    return ExamQuestion(
        question_id="NDQ_007535",
        query_id=SKIN_QUERY_ID,
        text="Outer layer of the skin?",
        gold_answer="epidermis")


@pytest.fixture
def generated_question():
    return ExamQuestion(
        question_id=f"{SKIN_QUERY_ID}/structure-of-the-skin/0",
        query_id=SKIN_QUERY_ID,
        facet_id="structure-of-the-skin",
        text="How does the epidermis, dermis, and hypodermis work together "
             "to provide protection, sensation, and regulation for the body?")


@pytest.fixture
def skin_bank(tqa_question, generated_question):
    return QuestionBank({SKIN_QUERY_ID: (tqa_question, generated_question)})


def make_run(tag, entries):
    """entries: list of (query_id, passage_id) in rank order, queries kept
    in first-seen order."""
    by_query = {}
    for query_id, passage_id in entries:
        by_query.setdefault(query_id, []).append(passage_id)
    return Run(tag, by_query)


def rated(query_id, passage_id, question_id, rating, answer_text=None):
    """A self_rated grade as the store's (key, row)."""
    return ((query_id, passage_id, question_id, SELF_RATED),
            (answer_text, None, rating))


def verified(query_id, passage_id, question_id, verdict, answer_text=None):
    """A qa_verified grade as the store's (key, row)."""
    return ((query_id, passage_id, question_id, QA_VERIFIED),
            (answer_text, verdict, None))


def grade_index(grades, policy):
    """An index of in-memory (key, row) grades under the policy; a question
    graded twice for the same pair keeps its last grade."""
    return GradeIndex(dict(grades), policy)


def stored_grades(store: GradeStore) -> list:
    """Every grade the store reads back, as (key, row) pairs."""
    return list(store.read().items())


class RecordingBackend(MockBackend):
    """A mock backend that keeps every request it is sent."""

    def __init__(self, responses):
        super().__init__(responses)
        self.request_log: list[CompletionRequest] = []

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.request_log.append(request)
        return super().complete(request)


# ---------------------------------------------------------------------------
# A loopback completions endpoint for the HTTP client


def ok_reply(text):
    """A scripted 200 reply carrying one completion."""
    return 200, json.dumps({"choices": [{"text": text}]}), {}


@dataclass
class ReceivedRequest:
    method: str
    path: str
    headers: Message
    body: bytes
    connection: int     # 1 for the server's first connection, and so on


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.connection_number = self.server.connections

    def _record(self, body=b""):
        self.server.received.append(ReceivedRequest(
            self.command, self.path, self.headers, body,
            self.connection_number))

    def _send(self, status, body, headers):
        body = body.encode() if isinstance(body, str) else body
        head = "".join(
            f"{name}: {value}\r\n" for name, value in
            {"Content-Length": len(body), **headers}.items())
        # Headers and body in one write: with two, every keep-alive
        # request stalls on Nagle's algorithm against delayed ACK.
        self.wfile.write(
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
            f"{head}\r\n".encode("latin-1") + body)

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            self._record(body)
            reply = (self.server.replies.pop(0) if self.server.replies
                     else (500, "unscripted request", {}))
        if reply is not None:
            self._send(*reply)
        if reply is None or self.server.close_after_reply:
            self.close_connection = True

    def do_CONNECT(self):
        # As a proxy's tunnel: plain HTTP continues on this connection.
        with self.server.lock:
            self._record()
        self._send(200, b"", {})
        self.close_connection = False

    def log_message(self, format, *args):
        pass


class CompletionServer(http.server.ThreadingHTTPServer):
    """A loopback completions endpoint that serves scripted replies.

    `replies` holds (status, body, headers) tuples, served in order, and
    a request beyond them gets a 500; a None reply closes the connection
    without answering. `received` records every request with the number
    of the connection it came on. With `close_after_reply`, each
    connection is closed after its first reply without saying so, as a
    server that drops idle keep-alive connections does.
    """
    daemon_threads = True
    block_on_close = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.url = f"http://127.0.0.1:{self.server_port}/v1/completions"
        self.replies: list[tuple | None] = []
        self.received: list[ReceivedRequest] = []
        self.connections = 0
        self.close_after_reply = False
        self.lock = threading.Lock()


PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy")


@pytest.fixture
def completion_server(monkeypatch):
    """A running CompletionServer, reached without any proxy."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    server = CompletionServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def no_sleep(seconds):
    pass


@pytest.fixture
def http_backend(completion_server):
    """`make(url=server's url, sleep=no_sleep)`: an HttpBackend, closed
    when the test ends."""
    backends = []

    def make(url=completion_server.url, sleep=no_sleep):
        backends.append(HttpBackend(url, "m", sleep=sleep))
        return backends[-1]

    yield make
    for backend in backends:
        backend.close()
