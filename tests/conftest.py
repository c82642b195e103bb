import contextlib
import http.server
import itertools
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from email.message import Message

import pytest
from hypothesis import Phase, settings, strategies as st

import oracles
from exam_eval.formats import GradeStore, parse_run_file
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
    GradePolicy,
    QA_VERIFIED,
    Query,
    QuestionBank,
    Run,
    SELF_RATED,
)

# `tests/mutants.py` runs under this profile: a caught mutant fails at its
# first failing example, which is not shrunk, and no example is saved.
settings.register_profile(
    "mutants", phases=[p for p in Phase if p is not Phase.shrink],
    database=None)

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


def grade_index(grades, policy, bank):
    """An index of in-memory (key, row) grades for the bank under the
    policy; a question graded twice for the same pair keeps its last
    grade."""
    return GradeIndex(dict(grades), policy, bank)


def stored_grades(store: GradeStore) -> list:
    """Every grade the store reads back, as (key, row) pairs."""
    return list(store.read().items())


# ---------------------------------------------------------------------------
# Drawn inputs for the oracle and invariant checks

QUERY_IDS = ("q0", "q1", "q2")
PASSAGE_IDS = tuple(f"p{i}" for i in range(8))
PAIR_KEYS = tuple(itertools.product(QUERY_IDS, PASSAGE_IDS, range(5)))
# A grade's key and the query whose question it grades.
MISFILED_KEYS = tuple(itertools.product(PAIR_KEYS, QUERY_IDS))


@st.composite
def run_files(draw, tag):
    """A run file as text: random passages and gapped ranks per query,
    lines in random order. Its scores fall as the rank grows, are all
    equal, or grow with it: a run ordered by score, not by rank, differs
    from the oracles' runs."""
    score = draw(st.sampled_from([lambda rank: 1.0 / rank, lambda rank: 1.0,
                                  float]))
    lines = []
    for query_id in QUERY_IDS:
        # The first passages of a permutation, ranked by drawn gaps: few
        # draws per query.
        pids = draw(st.permutations(PASSAGE_IDS))[
            :draw(st.integers(1, len(PASSAGE_IDS)))]
        ranks = itertools.accumulate(draw(st.lists(
            st.integers(1, 12), min_size=len(pids), max_size=len(pids))))
        lines += [f"{query_id} Q0 {p} {r} {score(r):.4f} {tag}\n"
                  for p, r in zip(pids, ranks)]
    return "".join(draw(st.permutations(lines)))


@st.composite
def scoring_inputs(draw):
    """A bank, grades, 1-3 parsed runs with their rows as the oracles read
    them, a self-rated policy and a depth."""
    # A query may end up with no questions. Question index 4 is never in
    # the bank, and a misfiled grade is of another query's question: both
    # must count nowhere.
    bank = QuestionBank({q: tuple(
        ExamQuestion(f"{q}/q/{i}", q, f"Q{i}?")
        for i in range(draw(st.integers(0, 4)))) for q in QUERY_IDS})
    # A key is one draw of all (query, passage, question index) triples.
    pair_keys = st.sampled_from(PAIR_KEYS)
    ratings = draw(st.dictionaries(pair_keys, st.integers(0, 5), max_size=60))
    verdicts = draw(st.dictionaries(pair_keys, st.booleans(), max_size=10))
    misfiled = draw(st.dictionaries(
        st.sampled_from(MISFILED_KEYS), st.integers(0, 5), max_size=10))
    grades = [rated(q, p, f"{q}/q/{i}", r) for (q, p, i), r in ratings.items()]
    grades += [verified(q, p, f"{q}/q/{i}", v)
               for (q, p, i), v in verdicts.items()]
    grades += [rated(q, p, f"{other}/q/{i}", r)
               for ((q, p, i), other), r in misfiled.items() if other != q]
    texts = [draw(run_files(f"sys{i}"))
             for i in range(draw(st.integers(1, 3)))]
    policy = GradePolicy(SELF_RATED, min_rating=draw(st.integers(1, 5)),
                         min_answers=draw(st.integers(1, 2)))
    return (bank, grades, list(map(parse_run_file, texts)),
            list(map(oracles.run_rows, texts)), policy,
            draw(st.integers(1, 6)))


@st.composite
def bank_edits(draw, bank):
    """The bank with one question removed, one reworded, one moved to the
    end of a drawn query's questions and one added, as far as its
    questions allow. The added question has index 4, which
    `scoring_inputs` grades but never puts in a bank; a moved question
    keeps its id and text."""
    questions = draw(st.permutations(bank.all_questions()))
    removed, reworded, moved = questions[:1], questions[1:2], questions[2:3]
    query_id = draw(st.sampled_from(bank.query_ids))
    target = draw(st.sampled_from(bank.query_ids))
    added = ExamQuestion(f"{query_id}/q/4", query_id, "An added question?")
    return QuestionBank({q: tuple(
        replace(question, text=f"{question.text} Reworded.")
        if question in reworded else question
        for question in qs if question not in removed + moved)
        + tuple(replace(question, query_id=q)
                for question in moved if q == target)
        + ((added,) if q == query_id else ())
        for q, qs in bank.questions_by_query.items()})


@st.composite
def pipeline_inputs(draw):
    """Run files, a bank and an edit of it, passage texts, a rating
    fixture, a policy, a depth, and official judgments with the lowest
    grade that counts as relevant, over the queries and passages of
    `run_files`."""
    runs = {f"sys{i}": draw(run_files(f"sys{i}"))
            for i in range(draw(st.integers(1, 3)))}
    # The first query has questions; the others may have none.
    bank = QuestionBank({q: tuple(
        ExamQuestion(f"{q}/q/{i}", q, f"Question {i} of {q}?")
        for i in range(draw(st.integers(q == QUERY_IDS[0], 3))))
        for q in QUERY_IDS})
    untexted = draw(st.sets(st.sampled_from(PASSAGE_IDS), max_size=2))
    texts = {p: f"text of {p}" for p in PASSAGE_IDS if p not in untexted}
    # Ratings take a few values and official grades as many, so that the
    # graded agreement table is often square and larger than 2x2, where
    # its overall kappa differs from its first row's.
    levels = draw(st.integers(3, 4))
    rating_values = draw(st.lists(st.sampled_from("012345"), min_size=levels,
                                  max_size=levels, unique=True))
    keys = [f"{q}/q/{i}/{p}" for q in QUERY_IDS for i in range(3)
            for p in PASSAGE_IDS]
    ratings = dict(zip(keys, draw(st.lists(
        st.sampled_from(rating_values), min_size=len(keys),
        max_size=len(keys)))))
    policy_text = (f"rate:{draw(st.integers(1, 5))}"
                   + draw(st.sampled_from(["", "+min-answers=2"])))
    pairs = [(q, p) for q in QUERY_IDS for p in PASSAGE_IDS]
    # A grade of 0 may be spelled -2, which reads as 0.
    official_values = draw(st.lists(
        st.sampled_from([draw(st.sampled_from([0, -2])), 1, 2, 3]),
        min_size=levels, max_size=levels, unique=True))
    official = {pair: grade for pair, grade in zip(pairs, draw(st.lists(
        st.sampled_from([*official_values, None]), min_size=len(pairs),
        max_size=len(pairs)))) if grade is not None}
    return (runs, bank, draw(bank_edits(bank)), texts, ratings, policy_text,
            draw(st.integers(1, 6)), official, draw(st.integers(1, 3)))


LOCK_HOLDER = """
import sys
from exam_eval.formats import GradeStore
with GradeStore(sys.argv[1]).locked():
    print("locked", flush=True)
    sys.stdin.read()
"""


def child_env():
    """The environment of a child Python that imports the exam_eval these
    tests import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["exam_eval"].__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@contextlib.contextmanager
def lock_holder(path):
    """A child process that holds the store's lock until it is killed,
    which happens at the latest when the block ends."""
    with subprocess.Popen([sys.executable, "-c", LOCK_HOLDER, str(path)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True, env=child_env()) as holder:
        try:
            assert holder.stdout.readline() == "locked\n"
            yield holder
        finally:
            holder.kill()
            holder.wait(timeout=10)


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
