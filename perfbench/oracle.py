"""Expected outputs, computed from the generated inputs alone, and the
checks that compare them with what the program wrote.

Every check returns a list of mismatch descriptions; an empty list passes.
Scores are compared to the 4 decimals the program prints.
"""
from __future__ import annotations

import gzip
import json
import math
import re
from collections import defaultdict
from pathlib import Path

from workloads import Case, pool_of

TOL4 = 0.5e-4 + 1e-9
TOL3 = 0.5e-3 + 1e-9
MIN_RATING = 4


class Expected:
    """Labels and scores implied by a case's grades, computed directly."""

    def __init__(self, case: Case):
        self.case = case
        self.depth = case.shape.depth
        self.bank_ids = {qid: [q.question_id for q in qs]
                         for qid, qs in case.bank.items()}
        self.answered: dict[tuple[str, str], set[str]] = defaultdict(set)
        self.max_rating: dict[tuple[str, str], int] = {}
        self.correct_count: dict[tuple[str, str], int] = defaultdict(int)
        for (qid, pid, question_id), value in case.grades.items():
            ok = value if isinstance(value, bool) else value >= MIN_RATING
            pair = (qid, pid)
            self.correct_count[pair] += ok
            if ok:
                self.answered[pair].add(question_id)
            if not isinstance(value, bool):
                self.max_rating[pair] = max(self.max_rating.get(pair, 0),
                                            value)
        self.pairs = sorted({(q, p) for q, p, _ in case.grades})
        self.pool = pool_of(case.runs, self.depth)

    # -- labels ----------------------------------------------------------------

    def binary_labels(self, min_answers: int = 1) -> dict[tuple[str, str], int]:
        return {pair: int(self.correct_count[pair] >= min_answers)
                for pair in self.pairs}

    def graded_labels(self) -> dict[tuple[str, str], int]:
        return {pair: self.max_rating[pair] for pair in self.pairs}

    def agreement_labels(self) -> dict[tuple[str, str], int]:
        if self.case.shape.mode == "qa":
            return self.binary_labels()
        return self.graded_labels()

    @staticmethod
    def qrels_text(labels: dict[tuple[str, str], int]) -> str:
        return "".join(f"{q} 0 {p} {v}\n" for (q, p), v in sorted(labels.items()))

    # -- cover and precision -------------------------------------------------

    def cover(self, passages_by_query: dict[str, list[str]]) -> dict[str, float]:
        per_query = {}
        for qid, ids in self.bank_ids.items():
            got: set[str] = set()
            for pid in passages_by_query.get(qid, []):
                got |= self.answered.get((qid, pid), set())
            per_query[qid] = len(got & set(ids)) / len(ids)
        return per_query

    def run_cover(self, tag: str) -> dict[str, float]:
        run = self.case.runs[tag]
        return self.cover({q: r[:self.depth] for q, r in run.items()})

    def precision(self, tag: str) -> dict[str, float]:
        labels = self.binary_labels()
        judged = {q for q, _ in labels}
        run = self.case.runs[tag]
        return {q: sum(labels.get((q, p), 0) for p in run[q][:self.depth])
                / self.depth for q in sorted(run) if q in judged}

    def pooled_precision(self) -> dict[str, float]:
        labels = self.binary_labels()
        judged = {q for q, _ in labels}
        return {q: min(sum(labels.get((q, p), 0) for p in pids), self.depth)
                / self.depth for q, pids in self.pool.items() if q in judged}

    def leaderboard(self, metric: str) -> dict[str, dict[str, float]]:
        if metric == "cover":
            out = {tag: self.run_cover(tag) for tag in self.case.runs}
            out["_overall_"] = self.cover(self.pool)
        else:
            out = {tag: self.precision(tag) for tag in self.case.runs}
            out["_overall_"] = self.pooled_precision()
        return out


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def std_error(values) -> float:
    values = list(values)
    n = len(values)
    if n < 2:
        return 0.0
    m = sum(values) / n
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1)) / math.sqrt(n)


def average_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(a: list[float], b: list[float]) -> float:
    """Pearson correlation of average ranks; NaN when a side is constant."""
    ra, rb = average_ranks(a), average_ranks(b)
    ma, mb = mean(ra), mean(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    spread = math.sqrt(sum((x - ma) ** 2 for x in ra)
                       * sum((y - mb) ** 2 for y in rb))
    return cov / spread if spread else math.nan


def kendall_tau_b(a: list[float], b: list[float]) -> float:
    concordant = discordant = ties_a = ties_b = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
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
    spread = math.sqrt((concordant + discordant + ties_a)
                       * (concordant + discordant + ties_b))
    return (concordant - discordant) / spread if spread else math.nan


# ---------------------------------------------------------------------------
# Checks on program outputs


def _close(got: str, want: float, tol: float = TOL4) -> bool:
    try:
        if math.isnan(want):
            return math.isnan(float(got))
        return abs(float(got) - want) <= tol
    except ValueError:
        return False


def check_cover(text: str, per_query: dict[str, float]) -> list[str]:
    errors = []
    lines = text.splitlines()
    if not lines or lines[0] != "query\tcover":
        return [f"cover: bad header {lines[:1]}"]
    rows = dict(line.split("\t") for line in lines[1:])
    want = dict(per_query, mean=mean(per_query.values()))
    if set(rows) != set(want):
        errors.append(f"cover: rows {sorted(set(rows) ^ set(want))[:5]} differ")
    for key, value in want.items():
        if key in rows and not _close(rows[key], value):
            errors.append(f"cover: {key} is {rows[key]}, expected {value:.6f}")
    return errors


def check_leaderboard(text: str, stderr: str, expected: Expected,
                      metric: str) -> list[str]:
    name = f"leaderboard {metric}"
    per_system = expected.leaderboard(metric)
    ranks = expected.case.official_ranks
    lines = text.splitlines()
    if not lines or lines[0] != "system\tscore\tstd_error\tofficial_rank":
        return [f"{name}: bad header {lines[:1]}"]
    rows = [line.split("\t") for line in lines[1:]]
    errors = []
    if sorted(r[0] for r in rows) != sorted(per_system):
        errors.append(f"{name}: systems {[r[0] for r in rows]} differ")
    printed = [float(r[1]) for r in rows]
    if printed != sorted(printed, reverse=True):
        errors.append(f"{name}: rows not sorted by score")
    for system, score, se, rank in rows:
        if system not in per_system:
            continue
        values = per_system[system].values()
        if not _close(score, mean(values)):
            errors.append(f"{name}: {system} score {score}, "
                          f"expected {mean(values):.6f}")
        if not _close(se, std_error(values)):
            errors.append(f"{name}: {system} std_error {se}, "
                          f"expected {std_error(values):.6f}")
        if rank != str(ranks.get(system, "")):
            errors.append(f"{name}: {system} rank {rank!r}")
    systems = sorted(ranks)
    ours = [mean(per_system[s].values()) for s in systems]
    theirs = [-float(ranks[s]) for s in systems]
    m = re.search(r"spearman=(\S+) kendall=(\S+) n=(\d+)", stderr)
    if not m:
        errors.append(f"{name}: no correlation line in {stderr[-200:]!r}")
    else:
        for label, got, want in (("spearman", m[1], spearman(ours, theirs)),
                                 ("kendall", m[2], kendall_tau_b(ours, theirs))):
            if not _close(got, want):
                errors.append(f"{name}: {label} {got}, expected {want:.6f}")
        if int(m[3]) != len(systems):
            errors.append(f"{name}: correlation over {m[3]} systems")
    return errors


def _split_at(values: set[int], threshold: int) -> list[tuple[int, ...]]:
    hi = tuple(sorted((v for v in values if v >= threshold), reverse=True))
    lo = tuple(sorted((v for v in values if v < threshold), reverse=True))
    return [g for g in (hi, lo) if g]


def _kappa(m: list[list[int]]) -> float | None:
    n = sum(map(sum, m))
    observed = sum(m[i][i] for i in range(len(m))) / n
    rows = [sum(r) for r in m]
    cols = [sum(r[j] for r in m) for j in range(len(m))]
    chance = sum(r * c for r, c in zip(rows, cols)) / (n * n)
    if chance == 1.0:
        return None
    return (observed - chance) / (1.0 - chance)


def expected_table(name: str, labels: dict, judgments: dict,
                   label_groups, judgment_groups) -> dict:
    common = set(labels) & set(judgments)
    row_of = {v: i for i, g in enumerate(label_groups) for v in g}
    col_of = {v: i for i, g in enumerate(judgment_groups) for v in g}
    counts = [[0] * len(judgment_groups) for _ in label_groups]
    for pair in common:
        counts[row_of[labels[pair]]][col_of[judgments[pair]]] += 1
    kappas = None
    if len(label_groups) == len(judgment_groups):
        total = len(common)
        kappas = []
        for i in range(len(counts)):
            tp = counts[i][i]
            row = sum(counts[i]) - tp
            col = sum(r[i] for r in counts) - tp
            kappas.append(_kappa([[tp, row], [col, total - tp - row - col]]))
        if None in kappas or _kappa(counts) is None:
            kappas = None
    name_of = lambda g: "+".join(str(v) for v in sorted(g, reverse=True))
    return {"name": name,
            "rows": [name_of(g) for g in label_groups],
            "cols": [name_of(g) for g in judgment_groups],
            "counts": counts, "kappas": kappas}


def expected_agreement(expected: Expected, min_answers=(1, 2, 5)) -> list[dict]:
    judgments = {(q, p): max(g, 0) for q, p, g in expected.case.official}
    observed_judgments = set(judgments.values())
    labels = expected.agreement_labels()
    observed = set(labels.values())
    tables = []
    for name in ("graded", "lenient", "strict"):
        if name == "graded":
            lg = [(v,) for v in sorted(observed, reverse=True)]
            jg = [(v,) for v in sorted(observed_judgments, reverse=True)]
        else:
            lg = _split_at(observed, 4 if name == "strict" else 1)
            jg = _split_at(observed_judgments, 1)
        tables.append(expected_table(name, labels, judgments, lg, jg))
    for n in min_answers:
        binary = expected.binary_labels(n)
        tables.append(expected_table(
            f"binary-min-answers-{n}", binary, judgments,
            _split_at(set(binary.values()) | {0, 1}, 1),
            _split_at(observed_judgments, 1)))
    return tables


def check_agreement(text: str, tables: list[dict]) -> list[str]:
    blocks = [b for b in re.split(r"^# ", text, flags=re.M) if b.strip()]
    if len(blocks) != len(tables):
        return [f"agreement: {len(blocks)} tables, expected {len(tables)}"]
    errors = []
    for block, want in zip(blocks, tables):
        lines = block.strip("\n").split("\n")
        name = lines[0]
        if name != want["name"]:
            errors.append(f"agreement: table {name!r}, expected {want['name']!r}")
            continue
        if lines[1] != "label\t" + "\t".join(want["cols"]) + "\ttotal\tkappa":
            errors.append(f"agreement {name}: header {lines[1]!r}")
        rows = [line.split("\t") for line in lines[2:]]
        if [r[0] for r in rows] != want["rows"]:
            errors.append(f"agreement {name}: rows {[r[0] for r in rows]}")
            continue
        for i, row in enumerate(rows):
            counts = [int(v) for v in row[1:-2]]
            if counts != want["counts"][i] or int(row[-2]) != sum(counts):
                errors.append(f"agreement {name}: row {row[0]} counts "
                              f"{row[1:-1]}, expected {want['counts'][i]}")
            kappa = want["kappas"][i] if want["kappas"] else None
            if kappa is None:
                if row[-1] != "":
                    errors.append(f"agreement {name}: kappa {row[-1]}, "
                                  "expected none")
            elif not _close(row[-1], kappa, TOL3):
                errors.append(f"agreement {name}: row {row[0]} kappa "
                              f"{row[-1]}, expected {kappa:.5f}")
    return errors


def expected_diff(case: Case) -> str:
    old = {q.question_id: q for qs in case.bank.values() for q in qs}
    new = {q.question_id: q for qs in case.revised.values() for q in qs}
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    edited = sorted(i for i in set(old) & set(new) if old[i].text != new[i].text)
    graded = {question_id for _, _, question_id in case.grades}
    needs = sorted(i for i in added + edited if i not in graded)
    lines = [f"{title}\t{i}\n" for title, ids in
             (("added", added), ("removed", removed), ("edited", edited),
              ("needs_grading", needs)) for i in ids]
    # Only removals change which graded questions count, so only the
    # removals' queries can flip.
    removal_queries = {old[i].query_id for i in removed}
    by_pair: dict[tuple[str, str], list[tuple[str, int | bool]]] = defaultdict(list)
    for (qid, pid, question_id), value in case.grades.items():
        by_pair[(qid, pid)].append((question_id, value))
    for (qid, pid) in sorted(by_pair):
        if qid not in removal_queries:
            continue
        ok = [i for i, v in by_pair[(qid, pid)]
              if (v if isinstance(v, bool) else v >= MIN_RATING)]
        before = int(len(ok) >= 1)
        after = int(len([i for i in ok if i in new]) >= 1)
        if before != after:
            lines.append(f"flip\t{qid}\t{pid}\t{before}->{after}\n")
    return "".join(lines) if lines else "no differences\n"


def read_store(path: Path) -> list[dict]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_store(path: Path, want: dict, mode: str, name: str) -> list[str]:
    """Exactly one grade per expected key, each with the scripted value."""
    if not path.exists():
        return [f"{name}: store {path.name} missing"]
    records = read_store(path)
    got = {}
    for r in records:
        key = (r["query_id"], r["passage_id"], r["question_id"])
        if key in got:
            return [f"{name}: {key} graded twice"]
        got[key] = r["verified"] if mode == "qa" else r["rating"]
        if r["mode"] != ("qa_verified" if mode == "qa" else "self_rated"):
            return [f"{name}: {key} has mode {r['mode']}"]
    errors = []
    if set(got) != set(want):
        missing, extra = set(want) - set(got), set(got) - set(want)
        errors.append(f"{name}: {len(missing)} pairs missing "
                      f"{sorted(missing)[:3]}, {len(extra)} unexpected "
                      f"{sorted(extra)[:3]}")
    wrong = [k for k in set(got) & set(want) if got[k] != want[k]]
    if wrong:
        k = sorted(wrong)[0]
        errors.append(f"{name}: {len(wrong)} grades differ, e.g. {k} is "
                      f"{got[k]}, expected {want[k]}")
    return errors


def check_generated_bank(path: Path, case: Case) -> list[str]:
    doc = json.loads(path.read_text())
    got = {e["query_id"]: [(q["question_id"], q["text"], q["facet_id"],
                            q["gold_answer"]) for q in e["questions"]]
           for e in doc["queries"]}
    want = {qid: [(q.question_id, q.text, q.facet_id, None) for q in qs]
            for qid, qs in case.generated.items()}
    if got != want:
        bad = sorted(q for q in set(got) | set(want)
                     if got.get(q) != want.get(q))
        return [f"generate: bank differs on queries {bad[:5]}"]
    return []


def check_grade_summary(stdout: str, graded: int, existing: int,
                        name: str) -> list[str]:
    m = re.search(r"graded (\d+) pairs \((\d+) already in store, (\d+) failed\)",
                  stdout)
    if not m:
        return [f"{name}: no summary line in {stdout!r}"]
    if (int(m[1]), int(m[2]), int(m[3])) != (graded, existing, 0):
        return [f"{name}: summary {m[0]!r}, expected {graded} graded and "
                f"{existing} already in store"]
    return []
