"""Readers and writers for every on-disk artifact.

Each input file has one reader here, which applies every rule for what a
valid input is: the model types it builds check nothing again.
"""
from __future__ import annotations

import contextlib
import fcntl
import functools
import gzip
import json
import logging
import math
import zlib
from collections.abc import Iterator
from operator import itemgetter
from pathlib import Path

from .model import (
    ContractViolation,
    ExamQuestion,
    Facet,
    GradeKey,
    GradeRow,
    OVERALL_SYSTEM,
    Qrels,
    Query,
    QuestionBank,
    Run,
    check_grade,
)

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """A malformed input; carries the 1-based line number when it has one."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _reader(load):
    """`load(path)`, with every error in the file's content naming the file."""
    @functools.wraps(load)
    def named(path: str | Path):
        try:
            return load(path)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        except (ParseError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None
    return named


def _objects_with(value, keys: tuple[str, ...] = ()) -> bool:
    """Whether a decoded JSON value is a list of objects that each hold
    `keys`."""
    return isinstance(value, list) and all(
        isinstance(v, dict) and all(k in v for k in keys) for v in value)


def _text(value, what: str) -> str:
    """A field that must be a non-empty string."""
    if type(value) is not str or not value:
        raise ParseError(f"{what} must be a non-empty string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# TREC run files


def parse_run_file(text: str) -> Run:
    """Parse a 6-column TREC run file: qid Q0 docid rank score tag.

    Column 2 may be "Q0" or "0"; both appear in the wild. The run tag is
    taken from the first line; differing tags on later lines produce a
    warning, first tag wins. The score must be a number but is not kept:
    the rank column orders the run. Queries come back in sorted order,
    each with its passage ids in rank order. A passage listed twice for a
    query, or two passages sharing a rank, are rejected at the first line
    that repeats one.
    """
    by_query: dict[str, list[tuple[str, int]]] = {}
    run_tag: str | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 6:
            raise ParseError(
                f"expected 6 whitespace-separated fields, got {len(fields)}",
                line_no)
        qid, literal, docid, rank_s, score_s, tag = fields
        if literal not in ("Q0", "0"):
            raise ParseError(
                f"expected 'Q0' or '0' in column 2, got {literal!r}", line_no)
        try:
            rank = int(rank_s)
            float(score_s)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if rank < 1:
            raise ParseError(
                f"rank must be >= 1, got {rank} for ({qid}, {docid})",
                line_no)
        if tag != run_tag:
            if run_tag is None:
                run_tag = tag
            else:
                log.warning(
                    "line %d: run tag %r differs from %r; keeping the first",
                    line_no, tag, run_tag)
        rows = by_query.get(qid)
        if rows is None:
            rows = by_query[qid] = []
        rows.append((docid, rank))
    run_tag = run_tag or ""
    passage_of, rank_of = itemgetter(0), itemgetter(1)
    ranked: dict[str, list[str]] = {}
    for qid, rows in by_query.items():
        rows.sort(key=rank_of)
        passage_ids = ranked[qid] = list(map(passage_of, rows))
        if (len(set(passage_ids)) != len(rows)
                or len(set(map(rank_of, rows))) != len(rows)):
            raise _repeated_row(text, run_tag)
    return Run(run_tag, {qid: ranked[qid] for qid in sorted(ranked)})


def _repeated_row(text: str, run_tag: str) -> ParseError:
    """The error for the first line in the file that repeats a passage or
    a rank of its own query; looked up only once the file is known to
    hold one."""
    seen: set[tuple[str, str, str | int]] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        qid = fields[0]
        for what, value in (("passage", fields[2]), ("rank", int(fields[3]))):
            if (qid, what, value) in seen:
                return ParseError(
                    f"{what} {value!r} listed twice for query {qid!r} "
                    f"in run {run_tag!r}", line_no)
            seen.add((qid, what, value))


@_reader
def load_run_file(path: str | Path) -> Run:
    return parse_run_file(Path(path).read_text())


# ---------------------------------------------------------------------------
# Qrels


def parse_qrels(text: str) -> Qrels:
    """Parse a qrels file: qid 0 docid grade, one judgment per line.

    A negative grade (down to -2) reads as relevance 0.
    """
    qrels: Qrels = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(
                f"expected 4 whitespace-separated fields, got {len(fields)}",
                line_no)
        qid, _, docid, grade_s = fields
        try:
            grade = int(grade_s)
        except ValueError:
            raise ParseError(
                f"non-integer grade {grade_s!r}", line_no) from None
        key = (qid, docid)
        if key in qrels:
            raise ParseError(f"duplicate judgment for {key}", line_no)
        if grade < -2:
            raise ParseError(
                f"judgment grade must be >= -2, got {grade}", line_no)
        qrels[key] = max(grade, 0)
    return qrels


def write_qrels(qrels: Qrels) -> str:
    """Serialize qrels byte-deterministically.

    Rows are `<query_id> 0 <passage_id> <relevance>` sorted by
    (query_id, passage_id), so identical label sets always diff clean.
    """
    return "".join(f"{query_id} 0 {passage_id} {relevance}\n"
                   for (query_id, passage_id), relevance
                   in sorted(qrels.items()))


@_reader
def load_qrels(path: str | Path) -> Qrels:
    return parse_qrels(Path(path).read_text())


# ---------------------------------------------------------------------------
# Question banks (JSON)
#
# Schema:
# {
#   "queries": [
#     {
#       "query_id": "...",
#       "questions": [
#         {"question_id": "...", "text": "...",
#          "facet_id": "..." | null, "gold_answer": "..." | null},
#         ...
#       ]
#     },
#     ...
#   ]
# }


def parse_question_bank(text: str) -> QuestionBank:
    """Parse a question-bank document.

    Query ids are non-empty strings, unique in the bank; question ids are
    non-empty strings, unique across the bank. A question's text is a
    non-empty string, and its gold answer a non-empty string or null.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "queries" not in doc:
        raise ParseError("question bank must be an object with a 'queries' key")
    if not _objects_with(doc["queries"]):
        raise ParseError("question bank 'queries' must be a list of objects")
    by_query: dict[str, tuple[ExamQuestion, ...]] = {}
    question_ids: set[str] = set()
    for entry in doc["queries"]:
        query_id = _text(entry.get("query_id"), "query_id")
        if query_id in by_query:
            raise ParseError(f"duplicate query_id {query_id!r}")
        if not _objects_with(entry.get("questions", [])):
            raise ParseError(
                f"questions of query {query_id!r} must be a list of objects")
        questions = []
        for q in entry.get("questions", []):
            question_id = _text(q.get("question_id"),
                                f"question_id in query {query_id!r}")
            if question_id in question_ids:
                raise ParseError(f"duplicate question_id {question_id!r}")
            question_ids.add(question_id)
            gold_answer = q.get("gold_answer")
            if gold_answer is not None:
                _text(gold_answer, f"gold_answer of question {question_id!r}")
            questions.append(ExamQuestion(
                question_id, query_id,
                _text(q.get("text"), f"text of question {question_id!r}"),
                q.get("facet_id"), gold_answer))
        by_query[query_id] = tuple(questions)
    return QuestionBank(by_query)


@_reader
def load_question_bank(path: str | Path) -> QuestionBank:
    return parse_question_bank(Path(path).read_text())


def save_question_bank(bank: QuestionBank) -> str:
    doc = {
        "queries": [
            {
                "query_id": query_id,
                "questions": [
                    {
                        "question_id": q.question_id,
                        "text": q.text,
                        "facet_id": q.facet_id,
                        "gold_answer": q.gold_answer,
                    }
                    for q in questions
                ],
            }
            for query_id, questions in bank.questions_by_query.items()
        ]
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Queries, passages, mock fixtures and official ranks (JSON)


@_reader
def load_queries(path: str | Path) -> list[Query]:
    """A JSON list of {"query_id", "title", "facets": [{"facet_id",
    "title"}]} objects, facets optional.

    Query ids and titles, and facet ids and titles, are non-empty strings;
    query ids are unique, and so are a query's facet ids.
    """
    doc = json.loads(Path(path).read_text())
    if not _objects_with(doc, ("query_id", "title")):
        raise ParseError(
            "expected a JSON list of objects with 'query_id' and 'title'")
    queries = []
    query_ids: set[str] = set()
    for entry in doc:
        query_id = _text(entry["query_id"], "query_id")
        if query_id in query_ids:
            raise ParseError(f"duplicate query_id {query_id!r}")
        query_ids.add(query_id)
        facets = entry.get("facets", [])
        if not _objects_with(facets, ("facet_id", "title")):
            raise ParseError(
                f"facets of query {query_id!r} must be a list of objects "
                f"with 'facet_id' and 'title'")
        facet_ids = [_text(f["facet_id"], f"facet_id in query {query_id!r}")
                     for f in facets]
        if len(set(facet_ids)) != len(facet_ids):
            raise ParseError(f"duplicate facet ids in query {query_id!r}")
        title = _text(entry["title"], f"title of query {query_id!r}")
        queries.append(Query(query_id, title, tuple(
            Facet(facet_id, _text(f["title"], f"title of facet {facet_id!r}"))
            for facet_id, f in zip(facet_ids, facets))))
    return queries


@_reader
def load_passages(path: str | Path) -> dict[str, str]:
    """Passage texts from a JSON object {passage_id: text}.

    A text is a string or null; a null text reads as no text, so the
    passage is left out.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object mapping passage_id to text")
    for passage_id, text in doc.items():
        if text is not None and type(text) is not str:
            raise ParseError(
                f"text of passage {passage_id!r} must be a string or null, "
                f"got {type(text).__name__}")
    return {pid: text for pid, text in doc.items() if text is not None}


@_reader
def load_mock_fixture(path: str | Path) -> dict[str, str]:
    """Canned completions from a JSON object {request key: completion};
    every completion is a string."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ParseError(
            "expected a JSON object mapping request keys to completions")
    for key, text in doc.items():
        if type(text) is not str:
            raise ParseError(
                f"mock response {key!r} must be a string, got "
                f"{'null' if text is None else type(text).__name__}")
    return doc


@_reader
def load_official_ranks(path: str | Path) -> dict[str, float | str | None]:
    """A JSON object mapping system name to official rank: a finite number,
    a numeric string, or null for an unranked system."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ParseError(
            "expected a JSON object mapping system name to official rank")
    for system, rank in doc.items():
        if rank is None:        # unranked
            continue
        try:
            if type(rank) is bool or not math.isfinite(float(rank)):
                raise ValueError
        except (TypeError, ValueError):
            raise ParseError(
                f"official rank of {system!r} must be a number or null, "
                f"got {rank!r}") from None
    return doc


# ---------------------------------------------------------------------------
# Leaderboard TSVs


@_reader
def load_leaderboard_scores(path: str | Path) -> dict[str, float]:
    """Each system's score from a leaderboard TSV, as `leaderboard` writes
    it; the header and the `_overall_` row are skipped."""
    scores: dict[str, float] = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(),
                                   start=1):
        fields = line.split("\t")
        if len(fields) < 2 or fields[0] in ("system", OVERALL_SYSTEM):
            continue
        try:
            scores[fields[0]] = float(fields[1])
        except ValueError:
            raise ParseError(f"bad score {fields[1]!r} for {fields[0]!r}",
                             line_no) from None
    return scores


# ---------------------------------------------------------------------------
# Grade store: append-only gzip JSON-lines


_GRADE_FIELDS = ("query_id", "passage_id", "question_id", "mode",
                 "answer_text", "verified", "rating")


def _grade_to_json(key: GradeKey, row: GradeRow) -> str:
    record = dict(zip(_GRADE_FIELDS, key + row))
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


_DECODER = json.JSONDecoder()
_REQUIRED_FIELDS = _GRADE_FIELDS[:4]
_ALL_FIELDS = frozenset(_GRADE_FIELDS)
_get_fields = itemgetter(*_GRADE_FIELDS)


def _decode_grade(line: str, line_no: int) -> tuple[GradeKey, GradeRow]:
    """One store line as its key and row.

    The record's shape is checked here, its fields by `check_grade`, the
    rule `append` applies too.
    """
    try:
        record = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line_no) from None
    if type(record) is not dict:
        raise ParseError(
            f"grade record must be a JSON object, got "
            f"{type(record).__name__}", line_no)
    if record.keys() != _ALL_FIELDS:
        unknown = record.keys() - _ALL_FIELDS
        if unknown:
            raise ParseError(
                f"unknown grade fields {sorted(unknown)}", line_no)
        missing = [f for f in _REQUIRED_FIELDS if f not in record]
        if missing:
            raise ParseError(f"missing grade fields {missing}", line_no)
        record = {"answer_text": None, "verified": None, "rating": None,
                  **record}
    query_id, passage_id, question_id, mode, answer_text, verified, rating \
        = _get_fields(record)
    try:
        check_grade(query_id, passage_id, question_id, mode, verified, rating)
    except (ContractViolation, TypeError) as exc:
        raise ParseError(str(exc), line_no) from None
    return ((query_id, passage_id, question_id, mode),
            (answer_text, verified, rating))


class GradeStore:
    """Path-backed append-only grade log, one JSON object per gzip line.

    A writer holds `locked()`; a reader takes no lock, and during an
    append it can report the store as corrupt. Duplicate (query, passage,
    question, mode) keys resolve last-writer-wins on read.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @contextlib.contextmanager
    def locked(self) -> Iterator[None]:
        """Hold an exclusive lock on the store file, which is created empty
        where there was none. A lock held elsewhere raises
        `ContractViolation`. The OS releases the lock when the process
        ends, however it ends."""
        with open(self.path, "ab") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ContractViolation(
                    f"grade store {self.path} is being written by another "
                    f"process") from None
            yield

    def append(self, rows: dict[GradeKey, GradeRow]) -> None:
        """Write the rows, in order, after checking each with `check_grade`;
        a bad row raises `ContractViolation` and nothing is written. No rows
        leave an existing store's bytes as they are and create an empty
        store where there was none, one that `read` returns as empty."""
        for (query_id, passage_id, question_id, mode), (_, verified, rating) \
                in rows.items():
            check_grade(query_id, passage_id, question_id, mode, verified,
                        rating)
        # The batch goes to the compressor in one write; the bytes are
        # those of writing its lines one at a time.
        data = "".join(_grade_to_json(key, row) + "\n"
                       for key, row in rows.items()).encode("utf-8")
        with open(self.path, "ab") as raw:
            if data:
                # mtime=0 and no embedded filename keep the bytes
                # deterministic for identical grade sequences.
                with gzip.GzipFile(filename="", mode="ab", fileobj=raw,
                                   mtime=0) as fh:
                    fh.write(data)

    def read(self) -> dict[GradeKey, GradeRow]:
        """Every stored grade as key -> (answer_text, verified, rating),
        deduplicated last-writer-wins, in first-seen key order.

        Lines are decoded one at a time as the gzip stream is read; a bad
        line raises `ParseError` with its line number, and a damaged file
        raises `ParseError` naming the store as corrupt.
        """
        rows: dict[GradeKey, GradeRow] = {}
        if not self.path.exists():
            return rows
        try:
            with gzip.open(self.path, "rt", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
                    if line.isspace():
                        continue
                    key, row = _decode_grade(line, line_no)
                    rows[key] = row
        except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
            raise ParseError(f"corrupt grade store {self.path}: {exc}") from None
        return rows
