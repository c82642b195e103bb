"""Mutation check: each row puts one fault in `src/exam_eval/` and names
tests that must then fail. Run it, with the test dependencies, as

    python tests/mutants.py

Each mutant is applied to a copy of `src/`, `tests/`, `pyproject.toml` and
`README.md` (tests read the README) in a temporary directory, as many at
once as there are CPUs. The script exits 1 when a mutant survives, when a
selection does not run, or when a row's old text does not occur exactly
once in its file; `tests/test_suite.py` checks the last in tier-1.
"""
import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
# The `mutants` profile (conftest.py) skips shrinking: a caught mutant is
# reported at its first failing example, not minutes later.
PYTEST_ARGS = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "--hypothesis-profile=mutants")
TIMEOUT_S = 600     # a mutant that hangs its selection is an error


class Mutant(NamedTuple):
    name: str
    file: str           # under src/exam_eval/
    old: str            # occurs exactly once in the file
    new: str
    selection: str      # pytest node ids, space-separated; one must fail


A3 = "tests/test_acceptance.py::test_criterion_3_metric_oracles"
PIPELINE = "tests/test_cli.py::test_pipeline_outputs_match_oracles"
STORE_READ = ("tests/test_formats.py::"
              "test_store_read_matches_line_by_line_oracle")
VERIFY = "tests/test_grading.py::TestVerifyAnswer"
MODULES = "tests/test_cli.py::test_commands_load_only_the_modules_they_run"
USAGE = "tests/test_cli.py::test_usage_surface"

MUTANTS = (
    Mutant("pool depth + 1", "grading.py", "run.top_k(query_id, depth)",
           "run.top_k(query_id, depth + 1)", A3),
    Mutant("unsorted ranks", "formats.py", "rows.sort(key=rank_of)", "pass",
           A3),
    Mutant("no bank-question filter in GradeIndex", "model.py",
           "row_mode == mode and query_of.get(question_id) == query_id",
           "row_mode == mode", A3),
    Mutant("min_answers ignored", "model.py", ">= self.policy.min_answers)",
           ">= 1)", A3),
    Mutant("pooled P@k not capped at k", "metrics.py",
           "min(k, sum(1 for pid in pids", "max(0, sum(1 for pid in pids",
           PIPELINE),
    Mutant("first writer wins on the fast path of GradeStore.read",
           "formats.py", "rows[fields[:4]] = fields[4:]",
           "rows.setdefault(fields[:4], fields[4:])",
           "tests/test_formats.py::test_store_round_trip_matches_oracle"),
    Mutant("first writer wins on the slow path of GradeStore.read",
           "formats.py", "rows[key] = row", "rows.setdefault(key, row)",
           STORE_READ),
    Mutant("verdict and rating slots swapped", "model.py",
           "slot = 1 if mode == QA_VERIFIED else 2",
           "slot = 2 if mode == QA_VERIFIED else 1", A3),
    Mutant("> for >= in min_answers_sweep", "metrics.py", "int(count >= n)",
           "int(count > n)", "tests/test_metrics.py::"
           "TestAgreementTables::test_min_answers_sweep_shapes"),
    Mutant("> for >= in passes", "model.py",
           "return outcome >= policy.min_rating",
           "return outcome > policy.min_rating",
           "tests/test_acceptance.py::test_criterion_4_invariant_suite"),
    Mutant("strict collapse at 3", "cli.py", '"strict": 4}', '"strict": 3}',
           PIPELINE),
    Mutant("per-row kappa printed in reverse order", "cli.py",
           "table.kappa_per_row[i]", "table.kappa_per_row[-1 - i]", PIPELINE),
    Mutant("the first row's kappa printed as the overall kappa", "cli.py",
           "kappa={table.kappa_overall:.3f}",
           "kappa={table.kappa_per_row[0]:.3f}",
           "tests/test_cli.py::test_agreement_prints_each_overall_kappa"),
    Mutant("diff_banks comparing text only", "bank.py",
           "(old_by_id[qid].query_id, old_by_id[qid].text)",
           "(new_by_id[qid].query_id, old_by_id[qid].text)", A3),
    Mutant("no zlib.error catch", "formats.py",
           "(OSError, EOFError, zlib.error, UnicodeDecodeError)",
           "(OSError, EOFError, UnicodeDecodeError)",
           "tests/test_cli.py::test_corrupt_store_reported"),
    Mutant("the fast path's tail check done with str.strip()", "formats.py",
           "line[end:].strip(_JSON_SPACE)", "line[end:].strip()", STORE_READ),
    Mutant("no key-set check on the fast path", "formats.py",
           "type(record) is dict and record.keys() == _ALL_FIELDS",
           "type(record) is dict", STORE_READ),
    Mutant("truncation with the qa template in both modes", "grading.py",
           "truncate_context(question.text, text, budget, render)",
           "truncate_context(question.text, text, budget, "
           "gateway.render_qa_prompt)",
           "tests/test_grading.py::test_braces_passage_is_graded"),
    Mutant(">= for > in the bag-distance bound", "grading.py",
           "if bag_distance > k:", "if bag_distance >= k:", VERIFY),
    Mutant("an edit-distance band one cell narrower", "grading.py",
           "lo, hi = max(i - k, 1), min(i + k, m)",
           "lo, hi = max(i - k + 1, 1), min(i + k, m)", VERIFY),
    Mutant("Kendall tau-b ignoring ties", "metrics.py",
           "math.sqrt((pairs - tied_a) * (pairs - tied_b))", "pairs",
           "tests/test_metrics.py::test_correlations_match_scipy"),
    Mutant("standard error divided by n instead of n - 1", "metrics.py",
           "/ (n - 1)", "/ n", A3),
    Mutant("the question-bank reader in the locale's encoding", "formats.py",
           'parse_question_bank(Path(path).read_text(encoding="utf-8-sig"))',
           "parse_question_bank(Path(path).read_text())",
           "tests/test_cli.py::"
           "test_non_ascii_text_round_trips_in_any_locale"),
    Mutant("the run reader keeping a byte-order mark", "formats.py",
           'parse_run_file(Path(path).read_text(encoding="utf-8-sig"))',
           'parse_run_file(Path(path).read_text(encoding="utf-8"))',
           "tests/test_formats.py::test_byte_order_mark_is_skipped[run]"),
    Mutant("the HTTP client imported with the gateway", "gateway.py",
           "import functools\nimport json\n",
           "import functools\nimport http.client\nimport json\n", MODULES),
    Mutant("the metrics imported with the CLI", "cli.py",
           "from pathlib import Path\n",
           "from pathlib import Path\n\nfrom . import metrics\n", MODULES),
    Mutant("the model imported with the CLI", "cli.py",
           "from pathlib import Path\n",
           "from pathlib import Path\n\nfrom .model import OVERALL_SYSTEM\n",
           MODULES),
    Mutant("logging imported with the CLI", "cli.py", "import functools\n",
           "import functools\nimport logging\n", MODULES),
    Mutant("option prefixes accepted", "cli.py", "allow_abbrev=False",
           "allow_abbrev=True", f"{USAGE}[prefix]"),
    Mutant("a config value that skips its option's check", "cli.py",
           "given = config_text.split() if self.multiple else config_text",
           "return config_text.split() if self.multiple else config_text",
           f"{USAGE}[config-checked]"),
    Mutant("a directory accepted for a file option", "cli.py",
           'if kind in ("file", "out") and os.path.isdir(text):',
           'if kind == "out" and os.path.isdir(text):',
           "tests/test_cli.py::test_file_options_reject_a_directory"),
)


def table_errors() -> list[str]:
    """A line for each row whose old text does not occur exactly once."""
    errors = []
    for mutant in MUTANTS:
        source = ROOT / "src" / "exam_eval" / mutant.file
        count = source.read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            errors.append(f"{mutant.name}: old text occurs {count} times in "
                          f"{source.relative_to(ROOT)}")
    return errors


def run(mutant: Mutant) -> tuple[str, float, str]:
    """The outcome ("caught", "survived" or "error"), the seconds the
    selection took, and pytest's output."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        target = copy / "src" / "exam_eval" / mutant.file
        target.write_text(target.read_text(encoding="utf-8").replace(
            mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(copy / "src"), os.environ.get("PYTHONPATH")])))
        start = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", *PYTEST_ARGS,
                 *mutant.selection.split()], cwd=copy, env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", TIMEOUT_S, f"timed out after {TIMEOUT_S} s"
    # pytest exits 1 when a test fails and 0 when all pass; any other code
    # means the selection did not run.
    outcome = {0: "survived", 1: "caught"}.get(done.returncode, "error")
    return outcome, time.monotonic() - start, done.stdout + done.stderr


def main() -> int:
    errors = table_errors()
    for error in errors:
        print(error)
    if errors:
        return 1
    start = time.monotonic()
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count())
    missed = 0
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        for mutant, (outcome, seconds, output) in zip(
                MUTANTS, pool.map(run, MUTANTS)):
            print(f"{outcome:<9}{seconds:6.1f} s  {mutant.name}", flush=True)
            if outcome != "caught":
                missed += 1
                print(*output.splitlines()[-15:], sep="\n")
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught in "
          f"{time.monotonic() - start:.0f} s with {workers} workers")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
