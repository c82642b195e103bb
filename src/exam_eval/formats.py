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
import os
import re
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
    QA_VERIFIED,
    Qrels,
    Query,
    QuestionBank,
    Run,
    SELF_RATED,
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


def read_text(path: str | Path) -> str:
    """An input file's text: UTF-8, a leading byte-order mark skipped."""
    return Path(path).read_text(encoding="utf-8-sig")


def _objects_with(value, keys: tuple[str, ...] = ()) -> bool:
    """Whether a decoded JSON value is a list of objects that each hold
    `keys`."""
    return isinstance(value, list) and all(
        isinstance(v, dict) and all(k in v for k in keys) for v in value)


# A string as a JSON string: the C function `json.dumps` itself calls with
# `ensure_ascii=False`.
_quote = json.encoder.encode_basestring


def _text(value, what: str) -> str:
    """A field that must be a non-empty string."""
    if type(value) is not str or not value:
        raise ParseError(f"{what} must be a non-empty string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# TREC run files


def parse_run_file(text: str, path: str | Path = "<string>") -> Run:
    """Parse a 6-column TREC run file: qid Q0 docid rank score tag.

    Column 2 may be "Q0" or "0"; both appear in the wild. The run tag is
    taken from the first line and kept; a file whose other lines carry
    another tag logs one warning, which names the file, `path`, and counts
    those lines. A file without run lines has no tag and is rejected. The
    score must be a number but is not kept: the rank column orders the
    run. Queries come back in sorted order, each with its passage ids in
    rank order. Lines may come in any order.

    One pass collects each query's passage, rank and score texts, wherever
    its lines are, and each query's columns are then converted and checked
    at once. On any fault, `_first_fault` words the error for the first
    faulty line in file order, a line that repeats a passage or a rank of
    its query included, and no tag warning is logged.
    """
    columns: dict[str, tuple[list[str], list[str], list[str]]] = {}
    run_tag = qid = None
    other_tags = 0
    lines = text.splitlines()
    try:    # every fault raises ValueError
        for fields in map(str.split, lines):
            if len(fields) != 6:
                if fields:
                    raise ValueError
                continue
            line_qid, literal, docid, rank_s, score_s, tag = fields
            if line_qid != qid:
                qid = line_qid
                column = columns.get(qid)
                if column is None:
                    column = columns[qid] = ([], [], [])
                    if run_tag is None:
                        run_tag = tag
                passages, rank_texts, score_texts = column
            if tag != run_tag or literal not in ("Q0", "0"):
                if literal not in ("Q0", "0"):
                    raise ValueError
                other_tags += 1
            passages.append(docid)
            rank_texts.append(rank_s)
            score_texts.append(score_s)
        if run_tag is None:
            raise ValueError
        by_query: dict[str, list[str]] = {}
        for qid in sorted(columns):
            passages, rank_texts, score_texts = columns[qid]
            ranks = list(map(int, rank_texts))
            list(map(float, score_texts))
            ascending = sorted(ranks)
            if (ascending[0] < 1 or len(set(ranks)) != len(ranks)
                    or len(set(passages)) != len(passages)):
                raise ValueError
            if ascending != ranks:
                by_rank = dict(zip(ranks, passages))
                passages = [by_rank[rank] for rank in ascending]
            by_query[qid] = passages
    except ValueError:
        raise _first_fault(lines) from None
    if other_tags:
        log.warning("%s: keeping run tag %r, the first line's; lines with "
                    "another tag: %d", path, run_tag, other_tags)
    return Run(run_tag, by_query)


def _first_fault(lines: list[str]) -> ParseError | None:
    """The error for the first faulty one of a run file's lines; None when
    no line is faulty. A file without run lines is faulty."""
    seen: set[tuple[str, str | int]] = set()     # (qid, docid), (qid, rank)
    run_tag = None
    for line_no, fields in enumerate(map(str.split, lines), 1):
        if not fields:
            continue
        if len(fields) != 6:
            return ParseError(
                f"expected 6 whitespace-separated fields, got {len(fields)}",
                line_no)
        qid, literal, docid, rank_s, score_s, tag = fields
        if literal not in ("Q0", "0"):
            return ParseError(
                f"expected 'Q0' or '0' in column 2, got {literal!r}", line_no)
        try:
            rank = int(rank_s)
            float(score_s)
        except ValueError as exc:
            return ParseError(str(exc), line_no)
        if rank < 1:
            return ParseError(
                f"rank must be >= 1, got {rank} for ({qid}, {docid})",
                line_no)
        for what, value in (("passage", docid), ("rank", rank)):
            if (qid, value) in seen:
                return ParseError(
                    f"{what} {value!r} listed twice for query {qid!r} "
                    f"in run {run_tag!r}", line_no)
            seen.add((qid, value))
        if run_tag is None:
            run_tag = tag
    return None if run_tag else ParseError(
        "no run lines: a run's tag, from its first line, names its "
        "leaderboard row")


@_reader
def load_run_file(path: str | Path) -> Run:
    return parse_run_file(read_text(path), path)


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
    return parse_qrels(read_text(path))


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
    non-empty string, and its facet id and gold answer are each a
    non-empty string or null.
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
            # `_text` words the error, and its message is built only then:
            # a facet-focused bank gives every question a facet id, and a
            # qa bank every question a gold answer.
            facet_id = q.get("facet_id")
            if facet_id is not None and (type(facet_id) is not str
                                         or not facet_id):
                _text(facet_id, f"facet_id of question {question_id!r}")
            gold_answer = q.get("gold_answer")
            if gold_answer is not None and (type(gold_answer) is not str
                                            or not gold_answer):
                _text(gold_answer, f"gold_answer of question {question_id!r}")
            questions.append(ExamQuestion(
                question_id, query_id,
                _text(q.get("text"), f"text of question {question_id!r}"),
                facet_id, gold_answer))
        by_query[query_id] = tuple(questions)
    return QuestionBank(by_query)


@_reader
def load_question_bank(path: str | Path) -> QuestionBank:
    return parse_question_bank(read_text(path))


# The one layout `save_question_bank` writes: the bytes of
# `json.dumps(doc, indent=2, ensure_ascii=False)` on the bank's document,
# for every bank whose fields are strings, or None for a facet id or gold
# answer, as in each bank that `parse_question_bank` returns.
_BANK_QUERY = '\n    {\n      "query_id": %s,\n      "questions": %s\n    }'
_BANK_QUESTION = ('\n        {\n          "question_id": %s,\n'
                  '          "text": %s,\n          "facet_id": %s,\n'
                  '          "gold_answer": %s\n        }')


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of rendered items, each of which starts on a line of its
    own, with the closing bracket on a line at `indent`; `[]` when empty."""
    return f"[{','.join(items)}\n{indent}]" if items else "[]"


def save_question_bank(bank: QuestionBank) -> str:
    queries = [
        _BANK_QUERY % (_quote(query_id), _json_list([
            _BANK_QUESTION % (
                _quote(q.question_id), _quote(q.text),
                "null" if q.facet_id is None else _quote(q.facet_id),
                "null" if q.gold_answer is None else _quote(q.gold_answer))
            for q in questions], "      "))
        for query_id, questions in bank.questions_by_query.items()]
    return '{\n  "queries": %s\n}\n' % _json_list(queries, "  ")


# ---------------------------------------------------------------------------
# Queries, passages, mock fixtures and official ranks (JSON)


@_reader
def load_queries(path: str | Path) -> list[Query]:
    """A JSON list of {"query_id", "title", "facets": [{"facet_id",
    "title"}]} objects, facets optional.

    Query ids and titles, and facet ids and titles, are non-empty strings;
    query ids are unique, and so are a query's facet ids.
    """
    doc = json.loads(read_text(path))
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

    A text is a string or null; a null or empty text reads as no text, so
    the passage is left out.
    """
    doc = json.loads(read_text(path))
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object mapping passage_id to text")
    for passage_id, text in doc.items():
        if text is not None and type(text) is not str:
            raise ParseError(
                f"text of passage {passage_id!r} must be a string or null, "
                f"got {type(text).__name__}")
    return {pid: text for pid, text in doc.items() if text}


@_reader
def load_mock_fixture(path: str | Path) -> dict[str, str]:
    """Canned completions from a JSON object {request key: completion};
    every completion is a string."""
    doc = json.loads(read_text(path))
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
def load_official_ranks(path: str | Path) -> dict[str, float | None]:
    """A JSON object mapping system name to official rank: a finite number,
    a numeric string, or null for an unranked system. Each rank is read as
    a float, whichever way the file spells it."""
    doc = json.loads(read_text(path))
    if not isinstance(doc, dict):
        raise ParseError(
            "expected a JSON object mapping system name to official rank")
    ranks: dict[str, float | None] = {}
    for system, rank in doc.items():
        if rank is None:        # unranked
            ranks[system] = None
            continue
        try:
            ranks[system] = float(rank)
            if type(rank) is bool or not math.isfinite(ranks[system]):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ParseError(
                f"official rank of {system!r} must be a number or null, "
                f"got {rank!r}") from None
    return ranks


# ---------------------------------------------------------------------------
# Leaderboard TSVs


@_reader
def load_leaderboard_scores(path: str | Path) -> dict[str, float]:
    """Each system's score from a leaderboard TSV, as `leaderboard` writes
    it; a first line whose first field is `system` is the header, and it,
    the `_overall_` row and blank lines are skipped. A later `system` row
    is a system of that name. Any other line without a tab, and a system
    listed twice at its second row, are rejected."""
    scores: dict[str, float] = {}
    text = read_text(path)
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split("\t")
        if (not line.strip() or fields[0] == OVERALL_SYSTEM
                or (line_no == 1 and fields[0] == "system")):
            continue
        if len(fields) < 2:
            raise ParseError(f"expected a system and its score separated "
                             f"by a tab, got {line!r}", line_no)
        if fields[0] in scores:
            raise ParseError(f"duplicate system {fields[0]!r}", line_no)
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


# zlib's and gzip(1)'s default level: Python's gzip defaults to 9, which
# costs several times the CPU per append for a store about 2 % smaller.
_COMPRESSLEVEL = 6

# The one layout `append` writes: the bytes of
# `json.JSONEncoder(ensure_ascii=False, sort_keys=True)` on the record.
_LINE = ('{"answer_text": %s, "mode": %s, "passage_id": %s, "query_id": %s, '
         '"question_id": %s, "rating": %s, "verified": %s}')
_LITERALS = {None: "null", True: "true", False: "false"}


def _grade_to_json(key: GradeKey, row: GradeRow) -> str:
    query_id, passage_id, question_id, mode = key
    answer_text, verified, rating = row
    return _LINE % (
        "null" if answer_text is None else _quote(answer_text), _quote(mode),
        _quote(passage_id), _quote(query_id), _quote(question_id),
        "null" if rating is None else int.__repr__(rating),
        _LITERALS[verified])


# That layout read back, for the grades that `check_grade` accepts. The
# answer is null or any JSON string, taken with its quotes; the ids are
# strings that need no escape, so that their text is their value. The
# `rated` group takes part in a self_rated line, which must then carry a
# rating in [0, 5] and a null verdict; a qa_verified line a null rating and
# a verdict.
_ID = r'"([^"\\\x00-\x1f]*)"'
_LINE_PATTERN = (
    r'\{"answer_text": (null|"[^"\\\x00-\x1f]*'
    r'(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*"), '
    r'"mode": "(?:(?P<rated>self_rated)|qa_verified)", '
    rf'"passage_id": {_ID}, "query_id": {_ID}, "question_id": {_ID}, '
    r'"rating": (?(rated)([0-5])|null), '
    r'"verified": (?(rated)null|(true|false))\}')
# Every line of a text that is in that layout, with its "\n"; no match can
# span two lines, for no group takes a control character.
_CANONICAL_LINES = re.compile(r"(?m)^" + _LINE_PATTERN + r"\n")
# A group's text as its value; a group that did not take part reads as "".
_MODES = {"self_rated": SELF_RATED, "": QA_VERIFIED}
_RATINGS = {"": None, **{str(n): n for n in range(6)}}
_VERDICTS = {"": None, "true": True, "false": False}
# Lines end at "\n" only; the last may have no ending.
_LINES = re.compile(r".*\n|.+")

# The most text `read` decompresses and decodes at a time.
_CHUNK = 1 << 16

_DECODER = json.JSONDecoder()
_REQUIRED_FIELDS = _GRADE_FIELDS[:4]
_ALL_FIELDS = frozenset(_GRADE_FIELDS)
_get_fields = itemgetter(*_GRADE_FIELDS)


def _decode_grade(line: str, line_no: int) -> tuple[GradeKey, GradeRow]:
    """One store line as its key and row.

    The record's shape is checked here, its fields by `check_grade`, the
    rule `append` applies too. Every error a store line can raise is worded
    here.
    """
    try:
        record = _DECODER.decode(line)
    except (ValueError, RecursionError) as exc:
        # Besides JSONDecodeError, a number over the int digit limit raises
        # ValueError and deep nesting RecursionError.
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
    fields = _get_fields(record)
    try:
        check_grade(*fields)
    except ContractViolation as exc:
        raise ParseError(str(exc), line_no) from None
    return fields[:4], fields[4:]


def _add_matched(rows: dict[GradeKey, GradeRow], found: list) -> None:
    """Add the rows of `_CANONICAL_LINES` matches' groups, in order, a
    column at a time; a key read twice keeps its first place and its last
    row. The answers, each null or a JSON string, are decoded as one JSON
    array."""
    answers, rated, passage_ids, query_ids, question_ids, ratings, verdicts = (
        zip(*found))
    rows.update(zip(
        zip(query_ids, passage_ids, question_ids, map(_MODES.get, rated)),
        zip(_DECODER.decode(f"[{','.join(answers)}]"),
            map(_VERDICTS.get, verdicts), map(_RATINGS.get, ratings))))


def _add_lines(rows: dict[GradeKey, GradeRow], text: str,
               line_no: int) -> None:
    """Add the rows of `text`, whose first line is line `line_no` of the
    store, one line at a time by `_decode_grade`, which reads any JSON
    layout and words every error; a blank line is skipped."""
    for line_no, line in enumerate(_LINES.findall(text), line_no):
        if not line.isspace():
            key, row = _decode_grade(line, line_no)
            rows[key] = row


class _TornTail(Exception):
    """The last gzip member, at byte offset `args[0]`, ends before its
    end-of-stream marker."""


def _member(view: memoryview, start: int) -> Iterator[bytes]:
    """The text of the gzip member at byte `start`, at most `_CHUNK` bytes
    at a time; returns the offset of the byte after it. A member that ends
    before the data does raises `_TornTail`, and a broken one `zlib.error`.
    """
    member = zlib.decompressobj(31)
    end = start                 # of the input fed to the member
    while not member.eof:
        tail = member.unconsumed_tail
        if not tail and end < len(view):
            tail = view[end:end + _CHUNK]
            end += len(tail)
        out = member.decompress(tail, _CHUNK)
        if out:
            yield out
        elif not tail:
            raise _TornTail(start)
    return end - len(member.unused_data)


def _ends(view: memoryview, start: int) -> bool:
    """Whether an intact gzip member starts at byte `start`."""
    try:
        for _ in _member(view, start):
            pass
    except (_TornTail, zlib.error):
        return False
    return True


def _inflate(data: bytes) -> Iterator[bytes]:
    """The text of the gzip members in `data`, at most `_CHUNK` bytes at a
    time, as `gzip` reads it: zero padding after a member is skipped. A
    last member that ends early raises `_TornTail`. A broken member raises
    `zlib.error`, and so do bytes after a member that do not start one and
    a member that does not end before an intact one that starts after it.
    """
    view = memoryview(data)
    start = 0
    while start < len(data):
        try:
            start = yield from _member(view, start)
        except _TornTail:
            later = data.find(b"\x1f\x8b", start + 1)
            while later != -1 and not _ends(view, later):
                later = data.find(b"\x1f\x8b", later + 1)
            if later != -1:
                raise zlib.error(
                    f"the gzip member at byte {start} does not end, but "
                    f"the one at byte {later} does") from None
            raise
        while start < len(data) and not data[start]:
            start += 1


def _read_rows(data: bytes) -> dict[GradeKey, GradeRow]:
    """The rows of a store's bytes, read a chunk of whole lines at a time.

    A chunk is decoded once. When `_CANONICAL_LINES` matches every line in
    it, its rows are read from the matches' groups, which hold a valid
    grade by construction; any other chunk is read again by `_add_lines`,
    which words the error of a bad line at its line number in the store. A
    line may span chunks and members."""
    rows: dict[GradeKey, GradeRow] = {}
    findall = _CANONICAL_LINES.findall
    line_no = 1                 # of the chunk's first line
    carry = b""                 # the start of a line that spans chunks
    for out in _inflate(data):
        end = out.rfind(b"\n") + 1
        if not end:
            carry += out
            continue
        text = (carry + out[:end]).decode("utf-8")
        carry = out[end:]
        lines = text.count("\n")
        found = findall(text)
        if len(found) == lines:
            _add_matched(rows, found)
        else:
            _add_lines(rows, text, line_no)
        line_no += lines
    if carry:
        _add_lines(rows, carry.decode("utf-8"), line_no)
    return rows


class GradeStore:
    """Path-backed append-only grade log, one JSON object per gzip line.

    Each `append` writes one gzip member, the unit of commit: `read` keeps
    a member's rows once the member has ended. A writer holds `locked()`;
    a reader takes no lock. Duplicate (query, passage, question, mode)
    keys resolve last-writer-wins on read.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # The torn member's offset and the file's size, as the last `read`
        # found them.
        self._torn: tuple[int, int] | None = None

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
        a bad row raises `ContractViolation` and nothing is written. A torn
        last member that the last `read` found is cut off first, so a
        writer holds `locked()` from that read to the append; a file whose
        size has changed since that read raises `ContractViolation`. The
        rows are
        one gzip member, on disk (`os.fsync`) when `append` returns. No rows
        leave an intact store's bytes as they are and create an empty store
        where there was none, one that `read` returns as empty."""
        for key, row in rows.items():
            check_grade(*key, *row)
        # The batch goes to the compressor in one write; the bytes are
        # those of writing its lines one at a time.
        data = "".join(_grade_to_json(key, row) + "\n"
                       for key, row in rows.items()).encode("utf-8")
        with open(self.path, "ab") as raw:
            if self._torn is not None:
                torn_at, size = self._torn
                if os.fstat(raw.fileno()).st_size != size:
                    raise ContractViolation(
                        f"grade store {self.path} changed after it was "
                        f"read; its torn member at byte {torn_at} is left "
                        f"as it is")
                raw.truncate(torn_at)
                self._torn = None
            if data:
                # mtime=0 and no embedded filename keep the bytes
                # deterministic for identical grade sequences.
                with gzip.GzipFile(filename="", mode="ab", fileobj=raw,
                                   compresslevel=_COMPRESSLEVEL,
                                   mtime=0) as fh:
                    fh.write(data)
                raw.flush()
                os.fsync(raw.fileno())

    def read(self) -> dict[GradeKey, GradeRow]:
        """Every stored grade as key -> (answer_text, verified, rating),
        deduplicated last-writer-wins, in first-seen key order.

        The file is read once and its gzip members walked in turn, at most
        `_CHUNK` bytes of text at a time (`_read_rows`). A chunk whose lines
        are all valid grades in the layout `append` writes is read from one
        regex pass, with no call per line; a chunk with a line in any other
        layout, or whose mode, rating and verdict disagree, is read by the
        general JSON decoder, which words the error. A last member that
        ends before its end-of-stream marker is a torn write: its rows are
        dropped, with one warning that names the store and the member's
        byte offset. A bad line raises `ParseError` with its line number.
        Any other damage (a bad CRC or deflate stream, bytes after a member
        that do not start one, a member that does not end before an intact
        one starts, text that is not UTF-8) raises `ParseError` naming the
        store as corrupt.
        """
        self._torn = None
        if not self.path.exists():
            return {}
        data = self.path.read_bytes()
        try:
            return self._rows(data)
        except (zlib.error, UnicodeDecodeError) as exc:
            raise ParseError(f"corrupt grade store {self.path}: {exc}") from None

    def _rows(self, data: bytes) -> dict[GradeKey, GradeRow]:
        """The rows of the store's bytes, those of a torn last member
        dropped. Lines are read before their member's CRC is checked, so a
        bad line is reported only once the rest of the file is seen to be
        intact: damage or a tear after it explains it."""
        try:
            try:
                return _read_rows(data)
            except ParseError:
                for _ in _inflate(data):
                    pass
                raise
        except _TornTail as torn:
            torn_at, = torn.args
            self._torn = torn_at, len(data)
            log.warning("grade store %s: the gzip member at byte %d "
                        "ends early, as an interrupted write leaves it; "
                        "its grades are dropped", self.path, torn_at)
            return _read_rows(data[:torn_at])
