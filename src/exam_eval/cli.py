"""Command-line interface: one subcommand per pipeline stage.

Orchestration only; every computation lives in the library modules.
Each command imports the library modules it calls, so that `--help` loads
none of them, and no command but `generate` and `grade` loads the HTTP
client.
Output files other than the grade store, which is appended in place, are
written atomically (temp file + rename), so none is ever left partial.
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import sys
from pathlib import Path

import click

from .model import (
    BackendError,
    ContractViolation,
    GradeIndex,
    GradePolicy,
    OVERALL_SYSTEM,
    QA_VERIFIED,
    QuestionBank,
    SELF_RATED,
)

log = logging.getLogger("exam_eval")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BACKEND_IO = 2


_POLICY = re.compile(r"(?:qa|rate:([0-9]+))(?:\+min-answers=([0-9]+))?")


def parse_policy(text: str) -> GradePolicy:
    """Policy grammar: `qa` | `rate:<min_rating>`, optional `+min-answers=<n>`,
    with min_rating in [1, 5] and min_answers at least 1."""
    match = _POLICY.fullmatch(text)
    if match is None:
        raise ContractViolation(
            f"bad policy {text!r}; expected 'qa' or 'rate:<min_rating>', "
            f"optionally followed by '+min-answers=<n>'")
    min_rating, min_answers = match.groups()
    min_answers = _min_answers(int(min_answers or 1))
    if min_rating is None:
        return GradePolicy(mode=QA_VERIFIED, min_answers=min_answers)
    if not 1 <= int(min_rating) <= 5:
        raise ContractViolation(
            f"min_rating must be in [1, 5], got {int(min_rating)}")
    return GradePolicy(mode=SELF_RATED, min_rating=int(min_rating),
                       min_answers=min_answers)


def _min_answers(n: int) -> int:
    if n < 1:
        raise ContractViolation(f"min_answers must be >= 1, got {n}")
    return n


def _grade_index(grades_path: str, policy: GradePolicy,
                 bank: QuestionBank) -> GradeIndex:
    """The store's grades that count for the bank under the policy, read
    once for a command."""
    from . import formats
    return GradeIndex(formats.GradeStore(grades_path).read(), policy, bank)


def atomic_write(path: str | Path, text: str) -> None:
    """Write text to path through a rename, so no reader sees it half
    written. The file keeps the mode `open(path, "w")` would leave: an
    existing file's own, or 0o666 less the umask for a new one."""
    path = Path(path)
    try:
        mode = os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        mode = None
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    # The kernel applies the umask to a new file's 0o666, as open() does.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def read_config_file(path: str) -> dict[str, str]:
    """Simple `key = value` config format; '#' starts a comment line."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8-sig")
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ContractViolation(
                f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


# The options of every command that talks to a backend, in help order.
_BACKEND_OPTIONS = (
    ("--endpoint", dict(default="", help="Inference endpoint URL.")),
    ("--model", dict(default="", help="Model name for the backend.")),
    ("--parallelism", dict(default=1, show_default=True,
                           type=click.IntRange(min=1),
                           help="Concurrent completion workers.")),
    ("--mock", dict(default=None, type=click.Path(exists=True),
                    help="Scripted-response fixture; skips the HTTP "
                         "backend.")),
)


def backend_options(fn):
    for flag, settings in _BACKEND_OPTIONS:
        fn = click.option(flag, **settings)(fn)
    return fn


def _default_map(config_path: str) -> dict[str, dict]:
    """click's default_map from a config file's values, per command.

    A config key is a long option name, with `_` for `-`; the parameter's
    own name is accepted too. Each command takes the keys of its own
    options; a repeatable option takes a whitespace-separated list. A key
    that names no option of any command is an error.
    """
    values = read_config_file(config_path)
    default_map = {}
    unused = set(values)
    for name, command in cli.commands.items():
        params = {key: param for param in command.params
                  for key in (param.name, *(opt.lstrip("-").replace("-", "_")
                                            for opt in param.opts))}
        default_map[name] = {
            params[key].name: (tuple(value.split()) if params[key].multiple
                               else value)
            for key, value in values.items() if key in params}
        unused -= params.keys()
    if unused:
        keys = ", ".join(map(repr, sorted(unused)))
        raise ContractViolation(
            f"{config_path}: unknown config key {keys}: it names no option "
            f"of any command")
    return default_map


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="Key-value file supplying flag defaults.")
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
@click.pass_context
def cli(ctx, config_path, verbose):
    """Exam-style evaluation of retrieval system responses."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    if config_path:
        ctx.default_map = _default_map(config_path)
    log.debug("resolved defaults: %s", ctx.default_map)


@cli.command()
@click.option("--queries", "queries_path", required=True,
              type=click.Path(exists=True), help="JSON query list.")
@click.option("--template", type=click.Choice(["dl", "car"]), required=True,
              help="dl: per query; car: per query-facet.")
@click.option("--out", required=True, type=click.Path(),
              help="Output bank JSON.")
@backend_options
def generate(queries_path, template, out, endpoint, model, parallelism,
             mock):
    """Generate a question bank from queries."""
    from . import bank as bank_mod
    from . import formats, gateway
    queries = formats.load_queries(queries_path)
    log.info("generating bank for %d queries (%s template)",
             len(queries), template)
    with contextlib.closing(
            gateway.make_backend(endpoint, model, mock)) as backend:
        result = bank_mod.generate_bank(queries, backend, parallelism,
                                        per_facet=(template == "car"))
    atomic_write(out, formats.save_question_bank(result))
    click.echo(f"wrote {len(result.all_questions())} questions to {out}")


def _load_runs(run_paths: tuple[str, ...]) -> list:
    """The run files named, and those in the directories named. A run tag
    names the run's leaderboard row, so no two runs share one and none
    takes the pooled row's."""
    from . import formats
    runs, file_of = [], {OVERALL_SYSTEM: "the pooled row"}
    for path in run_paths:
        p = Path(path)
        files = sorted(p.iterdir()) if p.is_dir() else [p]
        for f in files:
            if not f.is_file():
                continue
            run = formats.load_run_file(f)
            if run.run_tag in file_of:
                raise ContractViolation(
                    f"{f}: run tag {run.run_tag!r} is already the tag of "
                    f"{file_of[run.run_tag]}")
            file_of[run.run_tag] = f
            runs.append(run)
    return runs


@cli.command()
@click.option("--bank", "bank_path", required=True, type=click.Path(exists=True))
@click.option("--runs", "run_paths", multiple=True, required=True,
              type=click.Path(exists=True),
              help="Run file or directory of run files; repeatable.")
@click.option("--passages", "passages_path", required=True,
              type=click.Path(exists=True),
              help="JSON object mapping passage_id to text.")
@click.option("--qrels", "qrels_path", default=None, type=click.Path(exists=True),
              help="Official judgments whose passages join the pool.")
@click.option("--mode", type=click.Choice(["qa", "rate"]), required=True)
@click.option("--store", "store_path", required=True, type=click.Path())
@click.option("--depth", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--max-input-tokens", default=512, show_default=True,
              type=click.IntRange(min=64), help="Prompt token budget.")
@backend_options
def grade(bank_path, run_paths, passages_path, qrels_path, mode, store_path,
          depth, endpoint, model, max_input_tokens, parallelism, mock):
    """Grade pooled passages against the question bank."""
    from . import formats, gateway, grading
    bank = formats.load_question_bank(bank_path)
    runs = _load_runs(run_paths)
    texts = formats.load_passages(passages_path)
    judgments = formats.load_qrels(qrels_path) if qrels_path else None
    pool = grading.build_passage_pool(runs, depth, judgments)
    # The pool is deduplicated; a passage without text cannot be graded.
    passages_by_query = {
        query_id: {pid: texts[pid] for pid in pids if pid in texts}
        for query_id, pids in pool.items()}
    missing = (sum(map(len, pool.values()))
               - sum(map(len, passages_by_query.values())))
    if missing:
        log.warning("%d pooled passages have no text and were dropped",
                    missing)
    grade_mode = QA_VERIFIED if mode == "qa" else SELF_RATED
    store = formats.GradeStore(store_path)
    with contextlib.closing(
            gateway.make_backend(endpoint, model, mock)) as backend:
        summary = grading.grade_corpus(bank, passages_by_query, grade_mode,
                                       store, backend, max_input_tokens,
                                       parallelism)
    # The skip-log holds the failures of the latest run only.
    skip_log = Path(store_path).with_suffix(".skipped.jsonl")
    if summary.failures:
        atomic_write(skip_log, "".join(
            json.dumps(entry.__dict__, sort_keys=True) + "\n"
            for entry in summary.failures))
        log.warning("skip-log written to %s", skip_log)
    else:
        skip_log.unlink(missing_ok=True)
    click.echo(f"graded {summary.graded} pairs "
               f"({summary.skipped_existing} already in store, "
               f"{len(summary.failures)} failed) in {summary.duration:.1f}s")


@cli.command()
@click.option("--bank", "bank_path", required=True, type=click.Path(exists=True))
@click.option("--run", "run_path", required=True, type=click.Path(exists=True))
@click.option("--grades", "grades_path", required=True,
              type=click.Path(exists=True))
@click.option("--policy", "policy_text", required=True)
@click.option("--depth", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--out", default=None, type=click.Path(),
              help="Output TSV; stdout when omitted.")
def cover(bank_path, run_path, grades_path, policy_text, depth, out):
    """Per-query coverage scores and their mean for one run."""
    from . import formats, grading, metrics
    bank = formats.load_question_bank(bank_path)
    run = formats.load_run_file(run_path)
    policy = parse_policy(policy_text)
    per_query = metrics.exam_cover(grading.build_passage_pool([run], depth),
                                   _grade_index(grades_path, policy, bank))
    lines = ["query\tcover\n"]
    for query_id in sorted(per_query):
        lines.append(f"{query_id}\t{per_query[query_id]:.4f}\n")
    lines.append(f"mean\t{metrics.mean(per_query):.4f}\n")
    _emit("".join(lines), out)


@cli.command()
@click.option("--bank", "bank_path", required=True, type=click.Path(exists=True))
@click.option("--grades", "grades_path", required=True,
              type=click.Path(exists=True))
@click.option("--policy", "policy_text", required=True)
@click.option("--graded", is_flag=True,
              help="Emit 0-5 max self-ratings instead of binary labels.")
@click.option("--out", default=None, type=click.Path())
def qrels(bank_path, grades_path, policy_text, graded, out):
    """Derive a qrels file from stored grades."""
    from . import formats, metrics
    bank = formats.load_question_bank(bank_path)
    labels = metrics.build_qrels(
        _grade_index(grades_path, parse_policy(policy_text), bank),
        graded=graded)
    _emit(formats.write_qrels(labels), out)


def _rank_text(rank: float | None) -> str:
    """An official rank as the leaderboard prints it: an integral rank as
    an integer, any other in its shortest form, none as empty."""
    if rank is None:
        return ""
    return str(int(rank)) if rank.is_integer() else str(rank)


@cli.command()
@click.option("--bank", "bank_path", required=True, type=click.Path(exists=True))
@click.option("--runs", "run_paths", multiple=True, required=True,
              type=click.Path(exists=True))
@click.option("--grades", "grades_path", required=True,
              type=click.Path(exists=True))
@click.option("--policy", "policy_text", required=True)
@click.option("--metric", type=click.Choice(["cover", "p_at_k"]),
              default="cover", show_default=True)
@click.option("--depth", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--official", "official_path", default=None,
              type=click.Path(exists=True),
              help="JSON object mapping system name to official rank.")
@click.option("--out", default=None, type=click.Path())
def leaderboard(bank_path, run_paths, grades_path, policy_text, metric,
                depth, official_path, out):
    """Score all runs, including the pooled _overall_ row."""
    from . import formats, metrics
    bank = formats.load_question_bank(bank_path)
    runs = _load_runs(run_paths)
    policy = parse_policy(policy_text)
    official = (formats.load_official_ranks(official_path)
                if official_path else None)
    result = metrics.leaderboard(
        runs, _grade_index(grades_path, policy, bank), metric=metric,
        depth=depth, official_ranks=official)
    lines = ["system\tscore\tstd_error\tofficial_rank\n"]
    for row in result.rows:
        rank = _rank_text(row.official_rank)
        lines.append(f"{row.system}\t{row.score:.4f}\t"
                     f"{row.std_error:.4f}\t{rank}\n")
    _emit("".join(lines), out)
    if result.correlation:
        click.echo(f"spearman={result.correlation.spearman:.4f} "
                   f"kendall={result.correlation.kendall:.4f} "
                   f"n={result.correlation.n}", err=True)


@cli.command()
@click.option("--a", "path_a", required=True, type=click.Path(exists=True))
@click.option("--b", "path_b", required=True, type=click.Path(exists=True))
def correlate(path_a, path_b):
    """Rank correlation between two leaderboard TSVs."""
    from . import formats, metrics
    stats = metrics.correlation_stats(formats.load_leaderboard_scores(path_a),
                                      formats.load_leaderboard_scores(path_b))
    click.echo(f"spearman\t{stats.spearman:.4f}")
    click.echo(f"kendall\t{stats.kendall:.4f}")
    click.echo(f"n\t{stats.n}")


# Each collapse's lowest label counted as relevant; graded keeps every
# label and judgment value apart.
_COLLAPSES = {"graded": None, "lenient": 1, "binary": 1, "strict": 4}


def _body_rows(table: metrics.ConfusionTable) -> list[list[str]]:
    """Each row's label, counts, total and kappa, as cells."""
    return [[row_label, *map(str, row), str(sum(row)),
             f"{table.kappa_per_row[i]:.3f}" if table.kappa_per_row else ""]
            for i, (row_label, row) in enumerate(zip(table.row_labels,
                                                     table.counts))]


def _format_table_tsv(table: metrics.ConfusionTable) -> str:
    rows = [["label", *table.col_labels, "total", "kappa"],
            *_body_rows(table)]
    return f"# {table.name}\n" + "".join("\t".join(r) + "\n" for r in rows)


def _format_table_text(table: metrics.ConfusionTable) -> str:
    """Plain-text layout with judgment columns and per-row totals."""
    header = ["Label"] + list(table.col_labels) + ["Total", "kappa"]
    rows = [header, *_body_rows(table)]
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [table.name.upper()]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


@cli.command()
@click.option("--labels", "labels_path", default=None,
              type=click.Path(exists=True),
              help="Exam-derived qrels (labels side of the join).")
@click.option("--judgments", "judgments_path", required=True,
              type=click.Path(exists=True), help="Official qrels.")
@click.option("--collapse", "collapse_names", default="graded,lenient,strict",
              show_default=True, help="Comma-separated collapse names.")
@click.option("--judgment-rel-min", default=1, show_default=True,
              help="Lowest judgment grade counted as relevant.")
@click.option("--min-answers", "min_answers", default=None,
              help="Comma-separated sweep values; needs --grades/--bank/--policy.")
@click.option("--grades", "grades_path", default=None,
              type=click.Path(exists=True))
@click.option("--bank", "bank_path", default=None, type=click.Path(exists=True))
@click.option("--policy", "policy_text", default=None)
@click.option("--format", "fmt", type=click.Choice(["tsv", "table"]),
              default="tsv", show_default=True)
@click.option("--out", default=None, type=click.Path())
def agreement(labels_path, judgments_path, collapse_names, judgment_rel_min,
              min_answers, grades_path, bank_path, policy_text, fmt, out):
    """Inter-annotator agreement tables between labels and judgments."""
    from . import formats, metrics
    names = [n.strip() for n in collapse_names.split(",") if n.strip()]
    if not names:
        raise ContractViolation(
            f"--collapse {collapse_names!r} names no collapse; give one or "
            f"more of {', '.join(sorted(_COLLAPSES))}")
    for name in names:
        if name not in _COLLAPSES:
            raise ContractViolation(f"unknown collapse name {name!r}")
    official = formats.load_qrels(judgments_path)
    tables: list[metrics.ConfusionTable] = []

    if labels_path:
        labels = formats.load_qrels(labels_path)
        for name in names:
            tables.append(metrics.confusion_table(
                name, labels, official, _COLLAPSES[name], judgment_rel_min))

    if min_answers:
        if not (grades_path and bank_path and policy_text):
            raise ContractViolation(
                "--min-answers requires --grades, --bank, and --policy")
        try:
            values = tuple(map(int, min_answers.split(",")))
        except ValueError:
            raise ContractViolation(
                f"bad --min-answers {min_answers!r}; expected "
                f"comma-separated integers, such as 1,2,5") from None
        for n in values:
            _min_answers(n)
        policy = parse_policy(policy_text)
        bank = formats.load_question_bank(bank_path)
        tables += metrics.min_answers_sweep(
            _grade_index(grades_path, policy, bank), official, values,
            judgment_rel_min)

    if not tables:
        raise ContractViolation(
            "nothing to do: supply --labels and/or --min-answers")
    render = _format_table_tsv if fmt == "tsv" else _format_table_text
    _emit("\n".join(map(render, tables)), out)
    for table in tables:
        if table.kappa_overall is not None:
            click.echo(f"{table.name}: kappa={table.kappa_overall:.3f}",
                       err=True)


@cli.command()
@click.option("--old", "old_path", required=True, type=click.Path(exists=True))
@click.option("--new", "new_path", required=True, type=click.Path(exists=True))
@click.option("--grades", "grades_path", required=True,
              type=click.Path(exists=True))
@click.option("--policy", "policy_text", required=True)
@click.option("--out", default=None, type=click.Path())
def diff(old_path, new_path, grades_path, policy_text, out):
    """Show bank edits and the passages whose labels they flip."""
    from . import bank as bank_mod
    from . import formats
    old = formats.load_question_bank(old_path)
    new = formats.load_question_bank(new_path)
    policy = parse_policy(policy_text)
    rows = formats.GradeStore(grades_path).read()
    report = bank_mod.diff_banks(GradeIndex(rows, policy, old),
                                 GradeIndex(rows, policy, new))
    lines = []
    for title, items in (("added", report.added), ("removed", report.removed),
                         ("edited", report.edited),
                         ("needs_grading", report.needs_grading)):
        for qid in items:
            lines.append(f"{title}\t{qid}\n")
    for flip in report.flips:
        lines.append(f"flip\t{flip.query_id}\t{flip.passage_id}\t"
                     f"{flip.old_label}->{flip.new_label}\n")
    _emit("".join(lines) if lines else "no differences\n", out)


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write(out, text)
    else:
        click.echo(text, nl=False)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return EXIT_VALIDATION
    except click.Abort:
        return EXIT_VALIDATION
    except ValueError as exc:   # ContractViolation, formats.ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (BackendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND_IO


if __name__ == "__main__":
    sys.exit(main())
