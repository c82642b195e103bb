"""Parsers and writers for every on-disk artifact.

Covers TREC run files, qrels files, the JSON question-bank document, and the
gzip-compressed JSON-lines grade store.
"""
from __future__ import annotations

import gzip
import json
import logging
import os
import zlib
from operator import itemgetter
from pathlib import Path

from .model import (
    ContractViolation,
    ExamQuestion,
    GradeKey,
    GradeRow,
    Qrels,
    QuestionBank,
    Run,
    check_grade,
)

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """A malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def objects_with(value, keys: tuple[str, ...] = ()) -> bool:
    """Whether a decoded JSON value is a list of objects that each hold
    `keys`."""
    return isinstance(value, list) and all(
        isinstance(v, dict) and all(k in v for k in keys) for v in value)


# ---------------------------------------------------------------------------
# TREC run files


def parse_run_file(text: str) -> Run:
    """Parse a 6-column TREC run file: qid Q0 docid rank score tag.

    Column 2 may be "Q0" or "0"; both appear in the wild. The run tag is
    taken from the first line; differing tags on later lines produce a
    warning, first tag wins. Queries come back in sorted order, each with
    its rows sorted by rank.
    """
    by_query: dict[str, list[tuple[str, int, float]]] = {}
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
            score = float(score_s)
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
        rows.append((docid, rank, score))
    by_rank = itemgetter(1)
    return Run(run_tag or "", {qid: sorted(by_query[qid], key=by_rank)
                               for qid in sorted(by_query)})


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


def load_question_bank(text: str) -> QuestionBank:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "queries" not in doc:
        raise ParseError("question bank must be an object with a 'queries' key")
    if not objects_with(doc["queries"]):
        raise ParseError("question bank 'queries' must be a list of objects")
    by_query: dict[str, tuple[ExamQuestion, ...]] = {}
    for entry in doc["queries"]:
        query_id = entry.get("query_id")
        if not query_id:
            raise ParseError("query entry missing 'query_id'")
        if type(query_id) is not str:
            raise ParseError(f"query_id {query_id!r} must be a string")
        if query_id in by_query:
            raise ParseError(f"duplicate query_id {query_id!r}")
        if not objects_with(entry.get("questions", [])):
            raise ParseError(
                f"questions of query {query_id!r} must be a list of objects")
        questions = []
        for q in entry.get("questions", []):
            text_field = q.get("text")
            if not text_field:
                raise ParseError(
                    f"question in query {query_id!r} missing 'text'")
            questions.append(ExamQuestion(
                question_id=q.get("question_id", ""),
                query_id=query_id,
                text=text_field,
                facet_id=q.get("facet_id"),
                gold_answer=q.get("gold_answer"),
            ))
        by_query[query_id] = tuple(questions)
    return QuestionBank(by_query)


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

    A single writer owns the store at a time (advisory `.lock` file);
    readers are always safe. Duplicate (query, passage, question, mode)
    keys resolve last-writer-wins on read.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @property
    def lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    def _acquire_lock(self) -> None:
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ContractViolation(
                f"grade store {self.path} is locked by another writer "
                f"(remove {self.lock_path} if stale)") from None
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)

    def _release_lock(self) -> None:
        try:
            self.lock_path.unlink()
        except FileNotFoundError:
            pass

    def append(self, rows: dict[GradeKey, GradeRow]) -> None:
        """Write the rows, in order, after checking each with `check_grade`;
        a bad row raises `ContractViolation` and nothing is written."""
        for (query_id, passage_id, question_id, mode), (_, verified, rating) \
                in rows.items():
            check_grade(query_id, passage_id, question_id, mode, verified,
                        rating)
        # The batch goes to the compressor in one write; the bytes are
        # those of writing its lines one at a time.
        data = "".join(_grade_to_json(key, row) + "\n"
                       for key, row in rows.items()).encode("utf-8")
        self._acquire_lock()
        try:
            # mtime=0 and no embedded filename keep the bytes deterministic
            # for identical grade sequences.
            with open(self.path, "ab") as raw:
                with gzip.GzipFile(filename="", mode="ab", fileobj=raw,
                                   mtime=0) as fh:
                    fh.write(data)
        finally:
            self._release_lock()

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
