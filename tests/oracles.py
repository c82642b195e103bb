"""Brute-force oracles: each scoring rule written the plainest way, once,
for the tests to compare `exam_eval` against.

This module uses only the standard library and imports nothing from
`exam_eval`. A run is its rows as `run_rows` splits the file, grades are
the store's (key, row) pairs, and a bank and a self-rated policy are read
only through their attributes: `questions_by_query` of questions with a
`question_id`, `query_id` and `text`, and `mode`, `min_rating` and
`min_answers`. The answer check takes the program's normalizer as an
argument.
"""
import itertools
import math


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
    """Each counted grade's (query, passage, question, rating): of the
    policy's mode, with a question the bank files under the grade's own
    query."""
    return [(q, p, qid, rating)
            for (q, p, qid, mode), (_, _, rating) in grades
            if mode == policy.mode and qid in {
                question.question_id
                for question in bank.questions_by_query.get(q, ())}]


def cover(pooled, bank, grades, policy):
    """Per query with questions: the share of them that some pooled
    passage answers with a rating of at least `min_rating`."""
    answered = {(q, qid) for q, p, qid, rating
                in counted(grades, bank, policy)
                if p in pooled.get(q, ()) and rating >= policy.min_rating}
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
    `min_answers` of its ratings reach `min_rating`, else 0; or the
    highest rating when `graded`."""
    ratings = {}
    for q, p, _, rating in counted(grades, bank, policy):
        ratings.setdefault((q, p), []).append(rating)
    if graded:
        return {pair: max(rs) for pair, rs in ratings.items()}
    return {pair: int(sum(r >= policy.min_rating for r in rs)
                      >= policy.min_answers)
            for pair, rs in ratings.items()}


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
