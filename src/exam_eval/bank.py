"""Question-bank construction and maintenance.

Generates per-query (or per-facet) question sets through the gateway,
parses model output into question lists, and reports the grade-flip impact
of bank edits.
"""
from __future__ import annotations

import ast
import logging
import re
import threading
import warnings
from dataclasses import dataclass, field

from . import gateway
from .model import (
    ExamQuestion,
    Facet,
    GradeIndex,
    Query,
    QuestionBank,
)

log = logging.getLogger(__name__)


# A plain list: quoted strings with no escape, separated by commas, with
# an optional trailing comma, and spaces, tabs or newlines around items and
# commas. An item holds no backslash, no quote of its own kind, no control
# character but tab and no surrogate, so its value is the text between its
# quotes, as `ast.literal_eval` reads it.
_ITEM = (r"'([^'\\\x00-\x08\x0a-\x1f\ud800-\udfff]*)'"
         r'|"([^"\\\x00-\x08\x0a-\x1f\ud800-\udfff]*)"')
_SPACE = r"[ \t\n]*"
_PLAIN_LIST = re.compile(
    rf"\[{_SPACE}(?:(?:{_ITEM}){_SPACE}(?:,{_SPACE}(?:{_ITEM}){_SPACE})*"
    rf"(?:,{_SPACE})?)?\]")
_ITEMS = re.compile(_ITEM)
# `warnings.catch_warnings` swaps the process's filter list and puts it
# back, so two of `generate`'s workers in it at once could leave one's
# filter in place for good.
_QUIET = threading.Lock()


def parse_question_list(completion: str) -> list[str]:
    """Extract a question list from a model completion.

    Tries, in order: a bracketed Python-style list of quoted strings;
    numbered or bulleted lines; bare lines ending in '?'. Results are
    trimmed, deduplicated, and kept in source order. An empty list is a
    legal outcome. A bracket text that is a plain list is read by its
    items; any other is read by `ast.literal_eval`. Brackets nested too
    deep for Python's parser (it raises RecursionError or MemoryError, by
    version) count as no list.
    """
    candidates: list[str] = []

    bracket = re.search(r"\[.*\]", completion, re.DOTALL)
    if bracket and _PLAIN_LIST.fullmatch(bracket.group(0)):
        candidates = [single or double for single, double
                      in _ITEMS.findall(bracket.group(0))]
    elif bracket:
        try:
            # Python warns of what it finds odd in the text it compiles,
            # such as the invalid escape in ['What is \d?']: a fault of the
            # completion, not of this program.
            with _QUIET, warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parsed = ast.literal_eval(bracket.group(0))
            if isinstance(parsed, (list, tuple)):
                candidates = [str(item) for item in parsed
                              if isinstance(item, str)]
        except (ValueError, SyntaxError, TypeError, RecursionError,
                MemoryError):
            pass

    if not candidates:
        for line in completion.splitlines():
            m = re.match(r"\s*(?:\d+[.)]|[-*•])\s+(.*)", line)
            if m:
                candidates.append(m.group(1))

    if not candidates:
        candidates = [line for line in completion.splitlines()
                      if line.strip().endswith("?")]

    seen: set[str] = set()
    out: list[str] = []
    for c in candidates:
        c = c.strip().strip('"\'').strip()
        if c and c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _question_id(query_id: str, facet_id: str | None, ordinal: int) -> str:
    return f"{query_id}/{facet_id or 'q'}/{ordinal}"


def generate_bank(queries: list[Query], backend: gateway.Backend,
                  parallelism: int, *, per_facet: bool) -> QuestionBank:
    """Generate a question bank by prompting the backend once per query,
    or once per query-facet with the facet-focused template.

    Question ids are assigned deterministically as
    `<query_id>/<facet_id or "q">/<ordinal>`. An unparseable completion is
    retried once; a query whose completions never parse ends up with zero
    questions and a warning. Prompts go out on `parallelism` workers; the
    bank is the same for every worker count.
    """
    targets: list[tuple[Query, Facet | None]] = []
    for query in queries:
        if per_facet and not query.facets:
            log.warning("query %s has no facets; skipped under the "
                        "facet-focused template", query.query_id)
        for facet in query.facets if per_facet else (None,):
            targets.append((query, facet))

    def ask(target: tuple[Query, Facet | None]) -> list[str]:
        query, facet = target
        prompt = gateway.render_question_gen_prompt(query, facet)
        request = gateway.CompletionRequest.of(
            prompt, query_id=query.query_id,
            **({"facet_id": facet.facet_id} if facet else {}))
        for _ in range(2):
            texts = parse_question_list(backend.complete(request).text)
            if texts:
                return texts
        log.warning("no questions parsed for query %s%s", query.query_id,
                    f" facet {facet.facet_id}" if facet else "")
        return []

    questions: dict[str, list[ExamQuestion]] = {
        query.query_id: [] for query in queries}
    for (query, facet), texts in zip(
            targets, gateway.map_ordered(ask, targets, parallelism)):
        facet_id = facet.facet_id if facet else None
        questions[query.query_id] += [
            ExamQuestion(question_id=_question_id(query.query_id, facet_id, i),
                         query_id=query.query_id, facet_id=facet_id,
                         text=text)
            for i, text in enumerate(texts)]
    return QuestionBank({query_id: tuple(qs)
                         for query_id, qs in questions.items()})


# ---------------------------------------------------------------------------
# Bank diffing


@dataclass(frozen=True)
class LabelFlip:
    query_id: str
    passage_id: str
    old_label: int
    new_label: int


@dataclass
class BankDiffReport:
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    edited: list[str] = field(default_factory=list)
    needs_grading: list[str] = field(default_factory=list)
    flips: list[LabelFlip] = field(default_factory=list)


def diff_banks(old_index: GradeIndex, new_index: GradeIndex
               ) -> BankDiffReport:
    """Report the edits from the old index's bank to the new one's and the
    passages whose binary label they flip.

    Questions are matched by id; an id in both banks with another query
    or text counts as edited. Added or edited questions without a counted
    grade in the new bank are flagged needs-grading. A pair's old label
    comes from the old index and its new label from the new one; both
    indexes hold the same grades under the same policy.
    """
    old, new = old_index.bank, new_index.bank
    old_by_id = old.by_question_id()
    new_by_id = new.by_question_id()
    report = BankDiffReport()
    report.added = sorted(set(new_by_id) - set(old_by_id))
    report.removed = sorted(set(old_by_id) - set(new_by_id))
    report.edited = sorted(
        qid for qid in set(old_by_id) & set(new_by_id)
        if (old_by_id[qid].query_id, old_by_id[qid].text)
        != (new_by_id[qid].query_id, new_by_id[qid].text))

    graded_question_ids = new_index.question_ids()
    report.needs_grading = sorted(
        qid for qid in report.added + report.edited
        if qid not in graded_question_ids)

    # A label can change only where a query's questions did.
    affected_queries = {
        query_id for query_id in {*old.query_ids, *new.query_ids}
        if old.questions_for(query_id) != new.questions_for(query_id)}
    for query_id, passage_id in sorted({*old_index.pairs(),
                                        *new_index.pairs()}):
        if query_id not in affected_queries:
            continue
        old_label = old_index.label(query_id, passage_id)
        new_label = new_index.label(query_id, passage_id)
        if old_label != new_label:
            report.flips.append(
                LabelFlip(query_id, passage_id, old_label, new_label))
    return report
