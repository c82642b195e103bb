"""Brute-force oracles: each scoring rule written the plainest way, once,
for the tests to compare `exam_eval` against.

This module uses only the standard library and imports nothing from
`exam_eval`. A run is its rows as `run_rows` splits the file, grades are
the store's (key, row) pairs, and a bank and a policy are read
only through their attributes: `questions_by_query` of questions with a
`question_id`, `query_id` and `text`, and `mode`, `min_rating` and
`min_answers`. A bank's file also reads each question's `facet_id` and
`gold_answer`. The answer check takes the program's normalizer as an
argument.
"""
import ast
import itertools
import json
import math
import re


def run_rows(text):
    """Each query's (passage, rank) rows of a run file, in file order: the
    oracles rank them themselves instead of reading a parsed run.

    A text that is no run raises ValueError with the number of its first
    faulty line: one with other than 6 fields, column 2 other than "Q0" or
    "0", a rank that is no integer of at least 1, a score that is no
    number, or a passage or a rank its query already has. A text without
    run lines raises it with None. Blank lines are skipped."""
    rows = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            query_id, column_2, passage_id, rank, score, _ = fields
            rank = int(rank)
            float(score)
        except ValueError:
            raise ValueError(line_no) from None
        ranked = rows.setdefault(query_id, [])
        if (column_2 not in ("Q0", "0") or rank < 1
                or any(p == passage_id or r == rank for p, r in ranked)):
            raise ValueError(line_no)
        ranked.append((passage_id, rank))
    if not rows:
        raise ValueError(None)
    return rows


def pool(rows_of_runs, depth):
    """Query -> set of passages some run ranks within its top depth."""
    pooled = {}
    for rows in rows_of_runs:
        for query_id, ranked in rows.items():
            ranks = sorted(rank for _, rank in ranked)
            for passage_id, rank in ranked:
                if rank in ranks[:depth]:
                    pooled.setdefault(query_id, set()).add(passage_id)
    return pooled


def counted(grades, bank, policy):
    """Each counted grade's (query, passage, question, outcome): of the
    policy's mode, with a question the bank files under the grade's own
    query. The outcome is the verdict of a qa_verified grade, the rating
    of a self_rated one."""
    return [(q, p, qid, verdict if mode == "qa_verified" else rating)
            for (q, p, qid, mode), (_, verdict, rating) in grades
            if mode == policy.mode and qid in {
                question.question_id
                for question in bank.questions_by_query.get(q, ())}]


def passed(outcome, policy):
    """A verdict passes when it is true, a rating when it reaches
    `min_rating`."""
    if policy.mode == "qa_verified":
        return outcome is True
    return outcome >= policy.min_rating


def cover(pooled, bank, grades, policy):
    """Per query with questions: the share of them that some pooled
    passage answers with an outcome that passes."""
    answered = {(q, qid) for q, p, qid, outcome
                in counted(grades, bank, policy)
                if p in pooled.get(q, ()) and passed(outcome, policy)}
    return {q: sum((q, question.question_id) in answered
                   for question in questions) / len(questions)
            for q, questions in bank.questions_by_query.items() if questions}


def precision(pooled, judged, k):
    """Per judged query, min(k, relevant pooled passages) / k: a run's P@k
    when the pool is its top k, the best P@k of any ranking of a larger
    pool. `judged` maps (query, passage) to a trec_eval grade, negative
    ones included."""
    queries = {q for q, _ in judged}
    return {q: min(k, sum(judged.get((q, p), 0) >= 1 for p in pids)) / k
            for q, pids in pooled.items() if q in queries}


def qrels(grades, bank, policy, graded=False):
    """A label per pair with a counted grade: 1 when at least
    `min_answers` of its outcomes pass, else 0; or the highest rating
    when `graded`."""
    outcomes = {}
    for q, p, _, outcome in counted(grades, bank, policy):
        outcomes.setdefault((q, p), []).append(outcome)
    if graded:
        return {pair: max(os) for pair, os in outcomes.items()}
    return {pair: int(sum(passed(o, policy) for o in os)
                      >= policy.min_answers)
            for pair, os in outcomes.items()}


def diff(old, new, grades, policy):
    """`diff`'s report as its output lines: the edits by question id, then
    each pair whose binary label differs between the two banks."""
    def filing(bank):
        return {question.question_id: (question.query_id, question.text)
                for questions in bank.questions_by_query.values()
                for question in questions}

    old_filing, new_filing = filing(old), filing(new)
    added = sorted(set(new_filing) - set(old_filing))
    edited = sorted(qid for qid in set(old_filing) & set(new_filing)
                    if old_filing[qid] != new_filing[qid])
    graded = {(q, qid) for q, _, qid, _ in counted(grades, new, policy)}
    needs_grading = sorted(qid for qid in added + edited
                           if (new_filing[qid][0], qid) not in graded)
    lines = [f"{title}\t{qid}\n" for title, qids in (
        ("added", added),
        ("removed", sorted(set(old_filing) - set(new_filing))),
        ("edited", edited), ("needs_grading", needs_grading))
        for qid in qids]
    before, after = qrels(grades, old, policy), qrels(grades, new, policy)
    for q, p in sorted(before.keys() | after.keys()):
        a, b = before.get((q, p), 0), after.get((q, p), 0)
        if a != b:
            lines.append(f"flip\t{q}\t{p}\t{a}->{b}\n")
    return lines


def mean(scores):
    return sum(scores.values()) / len(scores) if scores else 0.0


def std_error(scores):
    """The standard error of the mean, from the n - 1 sample variance."""
    n = len(scores)
    if n < 2:
        return 0.0
    m = mean(scores)
    return math.sqrt(sum((v - m) ** 2 for v in scores.values())
                     / (n - 1) / n)


def average_ranks(values):
    """1-based ranks; tied values share the mean of their positions."""
    return [sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2
            for v in values]


def oracle_spearman(a, b):
    """The Pearson correlation of the average ranks."""
    ra, rb = average_ranks(a), average_ranks(b)
    n = len(ra)
    ma, mb = sum(ra) / n, sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def oracle_kendall_tau_b(a, b):
    concordant = discordant = ties_a = ties_b = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0 and db == 0:
            continue
        if da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        elif (da > 0) == (db > 0):
            concordant += 1
        else:
            discordant += 1
    denom = math.sqrt((concordant + discordant + ties_a)
                      * (concordant + discordant + ties_b))
    return (concordant - discordant) / denom


def kappa(counts):
    """Cohen's kappa of a square table and each row's one-vs-rest kappa,
    as (overall, per_row); None where some expected agreement is 1."""
    def of(table):
        n = sum(map(sum, table))
        size = len(table)
        observed = sum(table[i][i] for i in range(size)) / n
        expected = sum(sum(table[i]) * sum(row[i] for row in table)
                       for i in range(size)) / (n * n)
        return None if expected == 1 else \
            (observed - expected) / (1 - expected)

    total = sum(map(sum, counts))
    per_row = []
    for i, row in enumerate(counts):
        hit = row[i]
        missed = sum(row) - hit
        wrong = sum(other[i] for other in counts) - hit
        per_row.append(of([[hit, missed],
                           [wrong, total - hit - missed - wrong]]))
    overall = of(counts)
    if overall is None or None in per_row:
        return None
    return overall, per_row


def groups(values, threshold):
    """An agreement table's collapse of its values, highest first: each
    value on its own without a threshold, else the non-empty groups at or
    above it and below it."""
    ordered = sorted(set(values), reverse=True)
    if threshold is None:
        return [[v] for v in ordered]
    return [g for g in ([v for v in ordered if v >= threshold],
                        [v for v in ordered if v < threshold]) if g]


def levenshtein(a, b):
    """The edit distance by the full table: each insertion, deletion or
    substitution of a character costs 1."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def reference_verify(predicted, gold, normalize):
    """The qa rule: the normalized answers match when their edit distance
    is under 20 % of the longer one's length. A gold answer that normalizes
    to nothing compares the raw strings."""
    a, b = normalize(predicted), normalize(gold)
    if not b:
        a, b = predicted, gold
    longer = max(len(a), len(b))
    return longer == 0 or levenshtein(a, b) < 0.2 * longer


def bank_text(bank):
    """A bank's file: the JSON encoder's indent-2 text of its document."""
    return json.dumps({"queries": [
        {"query_id": query_id, "questions": [
            {"question_id": q.question_id, "text": q.text,
             "facet_id": q.facet_id, "gold_answer": q.gold_answer}
            for q in questions]}
        for query_id, questions in bank.questions_by_query.items()]},
        indent=2, ensure_ascii=False) + "\n"


def question_list(completion):
    """The questions of a model completion, with every bracket text read by
    `ast.literal_eval`: the strings of a list or tuple from the first "[" to
    the last "]"; else the numbered or bulleted lines; else the lines ending
    in "?". Each is trimmed of spaces and quotes; empties and repeats go."""
    candidates = []
    bracket = re.search(r"\[.*\]", completion, re.DOTALL)
    if bracket:
        try:
            parsed = ast.literal_eval(bracket.group(0))
        except (ValueError, SyntaxError, TypeError, RecursionError,
                MemoryError):
            parsed = None
        if isinstance(parsed, (list, tuple)):
            candidates = [item for item in parsed if isinstance(item, str)]
    if not candidates:
        candidates = [m.group(1) for m in map(
            re.compile(r"\s*(?:\d+[.)]|[-*•])\s+(.*)").match,
            completion.splitlines()) if m]
    if not candidates:
        candidates = [line for line in completion.splitlines()
                      if line.strip().endswith("?")]
    out = []
    for c in candidates:
        c = c.strip().strip("\"'").strip()
        if c and c not in out:
            out.append(c)
    return out


def plain_list(text):
    """The item values of a plain list, or None for any other text: "[",
    items in single or double quotes separated by commas, an optional comma
    after the last item, then "]", with spaces, tabs and newlines around
    items and commas. An item holds no backslash, no quote of its own kind,
    no control character but tab and no surrogate."""
    if not text.startswith("["):
        return None
    items, rest = [], text[1:].lstrip(" \t\n")
    while rest[:1] in ("'", '"'):
        end = rest.find(rest[0], 1)
        if end == -1 or any(c == "\\" or (c < " " and c != "\t")
                            or "\ud800" <= c <= "\udfff"
                            for c in rest[1:end]):
            return None
        items.append(rest[1:end])
        rest = rest[end + 1:].lstrip(" \t\n")
        if rest[:1] != ",":
            break
        rest = rest[1:].lstrip(" \t\n")
    return items if rest == "]" else None
