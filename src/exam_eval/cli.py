"""Command-line interface: one subcommand per pipeline stage.

Orchestration only; every computation lives in the library modules.
The module itself loads only the standard library, and each command
imports the library modules it calls, so `--help` loads no other
`exam_eval` module, and no command but `generate` and `grade` loads the
HTTP client.
Output files other than the grade store, which is appended in place, are
written atomically (temp file + rename), so none is ever left partial.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from pathlib import Path

PROG = "exam-eval"
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BACKEND_IO = 2


_POLICY_GRAMMAR = r"(?:qa|rate:([0-9]+))(?:\+min-answers=([0-9]+))?"


def parse_policy(text: str) -> GradePolicy:
    """Policy grammar: `qa` | `rate:<min_rating>`, optional `+min-answers=<n>`,
    with min_rating in [1, 5] and min_answers at least 1."""
    from .model import QA_VERIFIED, SELF_RATED, ContractViolation, GradePolicy
    match = re.fullmatch(_POLICY_GRAMMAR, text)
    if match is None:
        raise ContractViolation(
            f"bad policy {text!r}; expected 'qa' or 'rate:<min_rating>', "
            f"optionally followed by '+min-answers=<n>'")
    min_rating, min_answers = match.groups()
    min_answers = int(min_answers or 1)
    if min_answers < 1:
        raise ContractViolation(f"min_answers must be >= 1, got {min_answers}")
    if min_rating is None:
        return GradePolicy(mode=QA_VERIFIED, min_answers=min_answers)
    if not 1 <= int(min_rating) <= 5:
        raise ContractViolation(
            f"min_rating must be in [1, 5], got {int(min_rating)}")
    return GradePolicy(mode=SELF_RATED, min_rating=int(min_rating),
                       min_answers=min_answers)


def _grade_index(grades_path: str, policy: GradePolicy, bank: QuestionBank,
                 bank_path: str, rows=None) -> GradeIndex:
    """The grades that count for the bank under the policy, of the store's
    `rows` or of the store read once for a command. One warning names the
    store, the bank, and how many grades do not count for each reason."""
    from . import formats
    from .model import GradeIndex
    rows = formats.GradeStore(grades_path).read() if rows is None else rows
    index = GradeIndex(rows, policy, bank)
    if any(index.uncounted.values()):
        import logging
        logging.getLogger("exam_eval").warning(
            "%d of %d grades in %s do not count for %s: %s",
            sum(index.uncounted.values()), len(rows), grades_path, bank_path,
            ", ".join(f"{n} {reason}"
                      for reason, n in index.uncounted.items() if n))
    return index


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


# ---------------------------------------------------------------------------
# Options: one table of commands and options, from which the parsers, the
# config keys and the help are built.


class UsageError(Exception):
    """A command line or config value that the command does not take.
    It prints under the usage of `command`, or of the top level."""

    command: str | None = None

    def show(self) -> None:
        prog = f"{PROG} {self.command}" if self.command else PROG
        usage = "[OPTIONS]" if self.command else "[OPTIONS] COMMAND [ARGS]..."
        print(f"Usage: {prog} {usage}\nTry '{prog} --help' for help.\n\n"
              f"Error: {self}", file=sys.stderr)


# A flag's value in a config file.
_BOOLEANS = {**dict.fromkeys(("1", "true", "t", "yes", "y", "on"), True),
             **dict.fromkeys(("0", "false", "f", "no", "n", "off", ""), False)}


class Option:
    """A long option: the parameter it fills, the kind of value it takes,
    and its value when neither the command line nor the config file gives
    one. Kinds: `text`, `int` (at least `minimum`, if given), `choice` (one
    of `choices`), `flag`, `policy` (a grade policy, as `parse_policy`
    reads it), `file` (an existing file), `path` (an existing file or
    directory) and `out` (a file to write, not a directory). A `multiple`
    option is repeatable; a config file lists its values separated by
    whitespace. A `listed` option takes one value, a comma-separated list
    whose items are each of its kind. Either gives its values as a
    tuple. An option that `needs` another plays no part without it, and
    naming it on the command line without that one is a usage error; a
    config value is not, since config keys fill every command's
    options."""

    def __init__(self, flag: str, dest: str, kind: str = "text", *,
                 required: bool = False, default=None,
                 multiple: bool = False, listed: bool = False,
                 choices: tuple[str, ...] = (), minimum: int | None = None,
                 short: str | None = None, needs: Option | None = None,
                 help: str = ""):
        self.flag, self.dest, self.kind = flag, dest, kind
        self.needs = needs
        self.required, self.multiple, self.listed = required, multiple, listed
        self.default = False if kind == "flag" else default
        self.choices, self.minimum, self.help = choices, minimum, help
        self.flags = (short, flag) if short else (flag,)
        # Its config key, with `_` for `-`.
        self.name = flag[2:].replace("-", "_")

    def resolve(self, given, config_text: str | None):
        """The value from the command line, else from the config file,
        else the default. A value from either source is checked."""
        if given is None and config_text is not None:
            given = config_text.split() if self.multiple else config_text
        if given is None or given == []:
            if self.required:
                raise UsageError(f"Missing option '{self.flag}'.")
            return self.default
        if self.listed:
            given = [item.strip() for item in given.split(",")]
        if self.multiple or self.listed:
            return tuple(map(self.convert, given))
        return given if given is True else self.convert(given)

    def convert(self, text: str):
        """The value that the text stands for, or a UsageError that says
        why it stands for none."""
        def invalid(reason: str) -> UsageError:
            return UsageError(f"Invalid value for '{self.flag}': {reason}")
        kind = self.kind
        if kind == "int":
            try:
                number = int(text)
            except ValueError:
                range_ = "" if self.minimum is None else " range"
                raise invalid(
                    f"{text!r} is not a valid integer{range_}.") from None
            if self.minimum is not None and number < self.minimum:
                raise invalid(
                    f"{number} is not in the range x>={self.minimum}.")
            return number
        if kind == "choice" and text not in self.choices:
            raise invalid(f"{text!r} is not one of "
                          f"{', '.join(map(repr, self.choices))}.")
        if kind == "flag":
            state = _BOOLEANS.get(text.strip().lower())
            if state is None:
                values = ", ".join(map(repr, sorted(_BOOLEANS)))
                raise invalid(f"{text!r} is not a valid boolean. Recognized "
                              f"values: {values}.")
            return state
        if kind == "policy":
            try:
                return parse_policy(text)
            except ValueError as exc:   # ContractViolation
                raise invalid(f"{exc}.") from None
        if kind in ("file", "path"):
            if not os.path.exists(text):
                raise invalid(f"Path {text!r} does not exist.")
            if not os.access(text, os.R_OK):
                raise invalid(f"Path {text!r} is not readable.")
        if kind in ("file", "out") and os.path.isdir(text):
            raise invalid(f"File {text!r} is a directory.")
        return text

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        """Adds the option to the parser, which keeps its text unchecked."""
        notes = []
        if self.required:
            notes.append("required")
        if self.default not in (None, "", False):
            default = ",".join(self.default) if self.listed else self.default
            notes.append(f"default: {default}")
        if self.minimum is not None:
            notes.append(f"x>={self.minimum}")
        if self.multiple:
            notes.append("repeatable")
        text = f"{self.help} [{'; '.join(notes)}]" if notes else self.help
        if self.kind == "flag":
            action = {"action": "store_true"}
        else:
            metavar = (f"{{{','.join(self.choices)}}}" if self.choices else
                       {"int": "N", "text": "TEXT",
                        "policy": "POLICY"}.get(self.kind, "PATH"))
            if self.listed:
                metavar += "[,...]"
            action = {"action": "append" if self.multiple else "store",
                      "metavar": metavar}
        parser.add_argument(*self.flags, dest=self.dest, default=None,
                            help=text.strip(), **action)


# The top level's own options; neither is a config key.
GLOBAL_OPTIONS = (
    Option("--config", "config_path", "file",
           help="Key-value file supplying flag defaults."),
    Option("--verbose", "verbose", "flag", short="-v", help="Debug logging."),
)
# Each subcommand's function and options, in help order; `command` fills it.
COMMANDS: dict[str, tuple] = {}


def command(*options: Option):
    """Registers the function as the subcommand of its own name."""
    def register(fn):
        COMMANDS[fn.__name__] = (fn, options)
        return fn
    return register


def read_config_file(path: str) -> dict[str, str]:
    """Simple `key = value` config format; '#' starts a comment line.

    A key is an option's long name, with `_` or `-`, and is returned with
    `_` for `-`. A key that names no option of any command, or an option
    set twice under either spelling, is an error.
    """
    from .model import ContractViolation
    names = {option.name for _, options in COMMANDS.values()
             for option in options}
    values: dict[str, str] = {}
    line_of: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path}: {exc}") from None
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ContractViolation(
                f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in line_of:
            raise ContractViolation(
                f"{path}: config key {key!r} is set twice, on lines "
                f"{line_of[key]} and {line_no}")
        values[key], line_of[key] = value.strip(), line_no
    unused = set(values) - names
    if unused:
        keys = ", ".join(map(repr, sorted(unused)))
        raise ContractViolation(
            f"{path}: unknown config key {keys}: it names no option "
            f"of any command")
    return values


@functools.cache
def _parser(name: str | None) -> argparse.ArgumentParser:
    """The parser of the named command, or of the top level for None. Each
    is built once per process, on first use, and never changed after."""
    if name is None:
        options, usage = GLOBAL_OPTIONS, "[OPTIONS] COMMAND [ARGS]..."
        listing = "".join(f"  {command:<13}{fn.__doc__}\n"
                          for command, (fn, _) in sorted(COMMANDS.items()))
        text = dict(description="Exam-style evaluation of retrieval system "
                                "responses.", epilog=f"commands:\n{listing}")
    else:
        fn, options = COMMANDS[name]
        usage, text = "[OPTIONS]", dict(description=fn.__doc__)
    # A prefix of an option is no option: `--dep` is not `--depth`. Help
    # prints as written, so it needs no `textwrap`.
    parser = argparse.ArgumentParser(
        prog=f"{PROG} {name}" if name else PROG, usage=f"%(prog)s {usage}",
        formatter_class=argparse.RawTextHelpFormatter, add_help=False,
        allow_abbrev=False, exit_on_error=False, **text)
    for option in options:
        option.add_to(parser)
    parser.add_argument("--help", action="store_true",
                        help="Show this message and exit.")
    if name is None:
        parser.add_argument("args", nargs=argparse.REMAINDER,
                            help=argparse.SUPPRESS)
    return parser


def _no_such(what: str, name: str, choices) -> str:
    import difflib
    message = f"No such {what} {name!r}."
    close = difflib.get_close_matches(name, choices)
    if len(close) == 1:
        return f"{message} Did you mean {close[0]!r}?"
    if close:
        return (f"{message} (Did you mean one of: "
                f"{', '.join(map(repr, sorted(close)))}?)")
    return message


def _parse(parser: argparse.ArgumentParser, options: tuple[Option, ...],
           argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    """The options argv gives, as strings, and its other arguments. An
    option that is not one of `options`, or a value missing or given to a
    flag, is a UsageError."""
    try:
        given, extra = parser.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        flag = exc.argument_name.split("/")[-1]
        if any(o.flag == flag and o.kind != "flag" for o in options):
            reason = "requires an argument"
        else:
            reason = "does not take a value"
        raise UsageError(f"Option '{flag}' {reason}.") from None
    for arg in extra:
        if arg == "--":     # what follows is arguments, not options
            break
        if arg.startswith("-") and arg != "-":
            flags = [flag for o in options for flag in o.flags]
            raise UsageError(_no_such("option", arg.partition("=")[0],
                                      [*flags, "--help"]))
    return given, [arg for arg in extra if arg != "--"]


# ---------------------------------------------------------------------------
# Commands


# The options of every command that talks to a backend, in help order.
_BACKEND_OPTIONS = (
    Option("--endpoint", "endpoint", default="",
           help="Inference endpoint URL."),
    Option("--model", "model", default="", help="Model name for the backend."),
    Option("--parallelism", "parallelism", "int", default=1, minimum=1,
           help="Concurrent completion workers."),
    Option("--mock", "mock", "file",
           help="Scripted-response fixture; skips the HTTP backend."),
)
# Options that several commands share.
_BANK = Option("--bank", "bank_path", "file", required=True)
_RUNS = Option("--runs", "run_paths", "path", required=True, multiple=True,
               help="Run file or directory of run files.")
_GRADES = Option("--grades", "grades_path", "file", required=True)
_POLICY = Option("--policy", "policy", "policy", required=True)
_DEPTH = Option("--depth", "depth", "int", default=20, minimum=1)
_OUT = Option("--out", "out", "out", help="Output file; stdout when omitted.")


@command(
    Option("--queries", "queries_path", "file", required=True,
           help="JSON query list."),
    Option("--template", "template", "choice", choices=("dl", "car"),
           required=True, help="dl: per query; car: per query-facet."),
    Option("--out", "out", "out", required=True, help="Output bank JSON."),
    *_BACKEND_OPTIONS)
def generate(queries_path, template, out, endpoint, model, parallelism,
             mock):
    """Generate a question bank from queries."""
    import logging
    from . import bank as bank_mod
    from . import formats, gateway
    queries = formats.load_queries(queries_path)
    logging.getLogger("exam_eval").info(
        "generating bank for %d queries (%s template)", len(queries), template)
    with contextlib.closing(
            gateway.make_backend(endpoint, model, mock)) as backend:
        result = bank_mod.generate_bank(queries, backend, parallelism,
                                        per_facet=(template == "car"))
    atomic_write(out, formats.save_question_bank(result))
    _echo(f"wrote {len(result.all_questions())} questions to {out}\n")


def _load_runs(run_paths: tuple[str, ...]) -> list:
    """The run files named, and those in the directories named. A run tag
    names the run's leaderboard row, so no two runs share one and none
    takes the pooled row's."""
    from . import formats
    from .model import OVERALL_SYSTEM, ContractViolation
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


@command(
    _BANK, _RUNS,
    Option("--passages", "passages_path", "file", required=True,
           help="JSON object mapping passage_id to text."),
    Option("--qrels", "qrels_path", "file",
           help="Official judgments whose passages join the pool."),
    Option("--mode", "mode", "choice", choices=("qa", "rate"), required=True),
    Option("--store", "store_path", "out", required=True),
    _DEPTH,
    Option("--max-input-tokens", "max_input_tokens", "int", default=512,
           minimum=64, help="Prompt token budget."),
    *_BACKEND_OPTIONS)
def grade(bank_path, run_paths, passages_path, qrels_path, mode, store_path,
          depth, endpoint, model, max_input_tokens, parallelism, mock):
    """Grade pooled passages against the question bank."""
    import json
    import logging
    from . import formats, gateway, grading
    from .model import QA_VERIFIED, SELF_RATED
    log = logging.getLogger("exam_eval")
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
    _echo(f"graded {summary.graded} pairs "
          f"({summary.skipped_existing} already in store, "
          f"{len(summary.failures)} failed) in {summary.duration:.1f}s\n")


@command(_BANK, Option("--run", "run_path", "file", required=True), _GRADES,
         _POLICY, _DEPTH, _OUT)
def cover(bank_path, run_path, grades_path, policy, depth, out):
    """Per-query coverage scores and their mean for one run."""
    from . import formats, grading, metrics
    bank = formats.load_question_bank(bank_path)
    run = formats.load_run_file(run_path)
    per_query = metrics.exam_cover(
        grading.build_passage_pool([run], depth),
        _grade_index(grades_path, policy, bank, bank_path))
    lines = ["query\tcover\n"]
    for query_id in sorted(per_query):
        lines.append(f"{query_id}\t{per_query[query_id]:.4f}\n")
    lines.append(f"mean\t{metrics.mean(per_query):.4f}\n")
    _emit("".join(lines), out)


@command(_BANK, _GRADES, _POLICY,
         Option("--graded", "graded", "flag",
                help="Emit 0-5 max self-ratings instead of binary labels."),
         _OUT)
def qrels(bank_path, grades_path, policy, graded, out):
    """Derive a qrels file from stored grades."""
    from . import formats, metrics
    bank = formats.load_question_bank(bank_path)
    labels = metrics.build_qrels(
        _grade_index(grades_path, policy, bank, bank_path), graded=graded)
    _emit(formats.write_qrels(labels), out)


def _rank_text(rank: float | None) -> str:
    """An official rank as the leaderboard prints it: an integral rank as
    an integer, any other in its shortest form, none as empty."""
    if rank is None:
        return ""
    return str(int(rank)) if rank.is_integer() else str(rank)


@command(_BANK, _RUNS, _GRADES, _POLICY,
         Option("--metric", "metric", "choice", choices=("cover", "p_at_k"),
                default="cover"),
         _DEPTH,
         Option("--official", "official_path", "file",
                help="JSON object mapping system name to official rank."),
         _OUT)
def leaderboard(bank_path, run_paths, grades_path, policy, metric, depth,
                official_path, out):
    """Score all runs, including the pooled _overall_ row."""
    from . import formats, metrics
    bank = formats.load_question_bank(bank_path)
    runs = _load_runs(run_paths)
    official = (formats.load_official_ranks(official_path)
                if official_path else None)
    result = metrics.leaderboard(
        runs, _grade_index(grades_path, policy, bank, bank_path),
        metric=metric, depth=depth, official_ranks=official)
    lines = ["system\tscore\tstd_error\tofficial_rank\n"]
    for row in result.rows:
        rank = _rank_text(row.official_rank)
        lines.append(f"{row.system}\t{row.score:.4f}\t"
                     f"{row.std_error:.4f}\t{rank}\n")
    _emit("".join(lines), out)
    if result.correlation:
        print(f"spearman={result.correlation.spearman:.4f} "
              f"kendall={result.correlation.kendall:.4f} "
              f"n={result.correlation.n}", file=sys.stderr)


@command(Option("--a", "path_a", "file", required=True),
         Option("--b", "path_b", "file", required=True))
def correlate(path_a, path_b):
    """Rank correlation between two leaderboard TSVs."""
    from . import formats, metrics
    stats = metrics.correlation_stats(formats.load_leaderboard_scores(path_a),
                                      formats.load_leaderboard_scores(path_b))
    _echo(f"spearman\t{stats.spearman:.4f}\nkendall\t{stats.kendall:.4f}\n"
          f"n\t{stats.n}\n")


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


_MIN_ANSWERS = Option("--min-answers", "min_answers", "int", listed=True,
                      minimum=1, help="Sweep values; needs --grades, --bank "
                      "and --policy.")


@command(
    Option("--labels", "labels_path", "file",
           help="Exam-derived qrels (labels side of the join)."),
    Option("--judgments", "judgments_path", "file", required=True,
           help="Official qrels."),
    Option("--collapse", "collapses", "choice", listed=True,
           choices=tuple(_COLLAPSES), default=("graded", "lenient", "strict"),
           help="Collapse names."),
    Option("--judgment-rel-min", "judgment_rel_min", "int", default=1,
           help="Lowest judgment grade counted as relevant."),
    _MIN_ANSWERS,
    Option("--grades", "grades_path", "file", needs=_MIN_ANSWERS),
    Option("--bank", "bank_path", "file", needs=_MIN_ANSWERS),
    Option("--policy", "policy", "policy", needs=_MIN_ANSWERS),
    Option("--format", "fmt", "choice", choices=("tsv", "table"),
           default="tsv"),
    _OUT)
def agreement(labels_path, judgments_path, collapses, judgment_rel_min,
              min_answers, grades_path, bank_path, policy, fmt, out):
    """Inter-annotator agreement tables between labels and judgments."""
    if min_answers and not (grades_path and bank_path and policy):
        raise UsageError(
            "--min-answers requires --grades, --bank and --policy.")
    if not (labels_path or min_answers):
        raise UsageError(
            "Nothing to do: supply --labels, --min-answers or both.")
    from . import formats, metrics
    official = formats.load_qrels(judgments_path)
    tables: list[metrics.ConfusionTable] = []

    if labels_path:
        labels = formats.load_qrels(labels_path)
        for name in collapses:
            tables.append(metrics.confusion_table(
                name, labels, official, _COLLAPSES[name], judgment_rel_min))

    if min_answers:
        bank = formats.load_question_bank(bank_path)
        tables += metrics.min_answers_sweep(
            _grade_index(grades_path, policy, bank, bank_path), official,
            min_answers, judgment_rel_min)

    render = _format_table_tsv if fmt == "tsv" else _format_table_text
    _emit("\n".join(map(render, tables)), out)
    for table in tables:
        if table.kappa_overall is not None:
            print(f"{table.name}: kappa={table.kappa_overall:.3f}",
                  file=sys.stderr)


@command(Option("--old", "old_path", "file", required=True),
         Option("--new", "new_path", "file", required=True), _GRADES, _POLICY,
         _OUT)
def diff(old_path, new_path, grades_path, policy, out):
    """Show bank edits and the passages whose labels they flip."""
    from . import bank as bank_mod
    from . import formats
    old = formats.load_question_bank(old_path)
    new = formats.load_question_bank(new_path)
    rows = formats.GradeStore(grades_path).read()
    report = bank_mod.diff_banks(
        _grade_index(grades_path, policy, old, old_path, rows),
        _grade_index(grades_path, policy, new, new_path, rows))
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
        _echo(text)


def _echo(text: str) -> None:
    """Writes to stdout, in UTF-8 where the locale's encoding cannot
    spell the text, as every output file is written."""
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _run(argv: list[str]) -> int:
    """Parse argv, then run its command; the config file fills the options
    that argv leaves out."""
    top = _parser(None)
    given, _ = _parse(top, GLOBAL_OPTIONS, argv)
    if given.help:
        top.print_help()
        return EXIT_OK
    top_values = {option.dest: option.resolve(getattr(given, option.dest),
                                              None)
                  for option in GLOBAL_OPTIONS}
    config_path = top_values["config_path"]
    if not given.args:
        if argv:
            raise UsageError("Missing command.")
        top.print_help(sys.stderr)
        return EXIT_VALIDATION
    name, *args = given.args
    if name not in COMMANDS:
        raise UsageError(_no_such("command", name, COMMANDS))
    run, options = COMMANDS[name]
    try:
        parser = _parser(name)
        given, extra = _parse(parser, options, args)
        if given.help:
            parser.print_help()
            return EXIT_OK
        config = read_config_file(config_path) if config_path else {}
        # Options are checked in the order argv names them, then the rest.
        first = {}
        for i, arg in enumerate(args):
            first.setdefault(arg.partition("=")[0], i)
        values = {option.dest: option.resolve(getattr(given, option.dest),
                                              config.get(option.name))
                  for option in sorted(options, key=lambda option: first.get(
                      option.flag, len(args)))}
        for option in options:
            if (option.needs and getattr(given, option.dest) is not None
                    and not values[option.needs.dest]):
                raise UsageError(
                    f"{option.flag} requires {option.needs.flag}.")
        if extra:
            plural = "s" if len(extra) > 1 else ""
            raise UsageError(f"Got unexpected extra argument{plural} "
                             f"({' '.join(extra)})")
        import logging
        logging.basicConfig(
            level=logging.DEBUG if top_values["verbose"] else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("exam_eval").debug("resolved defaults: %s", config)
        run(**values)
    except UsageError as exc:   # an option's, or the command's own
        exc.command = name
        raise
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        exc.show()
        return EXIT_VALIDATION
    except (EOFError, KeyboardInterrupt):     # aborted: end the line
        print(file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:   # ContractViolation, formats.ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, RuntimeError) as exc:
        # A BackendError is a RuntimeError; any other is a bug.
        if not isinstance(exc, OSError):
            from .model import BackendError
            if not isinstance(exc, BackendError):
                raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND_IO


if __name__ == "__main__":
    sys.exit(main())
