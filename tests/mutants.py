"""Mutation check: each row puts one fault in `src/exam_eval/` and names
tests that must then fail. Run it, with the test dependencies, as

    python tests/mutants.py

Each mutant is applied to a copy of `src/`, `tests/`, `pyproject.toml` and
`README.md` (tests read the README) in a temporary directory, as many at
once as there are CPUs. The script exits 1 when a mutant survives, when a
selection does not run, when a row's old text does not occur exactly once
in its file, or when a row's selection names a test file, class or
function that does not exist; `tests/test_suite.py` checks the last two in
tier-1.
"""
import ast
import concurrent.futures
import functools
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
CANONICAL = ("tests/test_formats.py::"
             "test_canonical_line_decodes_as_the_json_decoder")
VERIFY = "tests/test_grading.py::TestVerifyAnswer"
MODULES = "tests/test_cli.py::test_commands_load_only_the_modules_they_run"
USAGE = "tests/test_cli.py::test_usage_surface"
BEFORE_INPUT = ("tests/test_cli.py::"
                "test_option_values_checked_before_input_is_read")
CORPUS = "tests/test_grading.py::TestGradeCorpus"
HTTP = "tests/test_gateway.py::TestHttpBackend"
PORTER = "tests/test_porter.py::test_matches_reference_with_suffixes"
RUNS = "tests/test_formats.py::TestRunParsing"
RUN_LOOP = "tests/test_formats.py::test_run_file_parse_matches_line_loop"
STORE_DECODE = "tests/test_formats.py::TestGradeStoreDecode"
SHARED_SPLIT = "tests/test_gateway.py::test_shared_split_matches_brute_force"
SHARED_CUT = ("tests/test_grading.py::"
              "test_prompts_cut_from_a_shared_split_are_each_questions_own_cut")
COSTLY_ONCE = "tests/test_golden.py::test_each_step_does_its_costly_work_once"
LIST_READER = ("tests/test_bank.py::TestParseQuestionList::"
               "test_matches_the_literal_eval_reader")
BANK_TEXT = ("tests/test_formats.py::TestQuestionBank::"
             "test_round_trip_byte_identical")
SHUFFLED_TAGS = (f"{RUNS}::"
                 "test_second_tag_in_a_shuffled_file_warns_once")
UNWALKED_TAGS = f"{RUNS}::test_second_tag_read_without_the_fault_walk"

MUTANTS = (
    Mutant("pool depth + 1", "grading.py", "run.top_k(query_id, depth)",
           "run.top_k(query_id, depth + 1)", A3),
    Mutant("a bad column-2 literal read by query column", "formats.py",
           ' or literal not in ("Q0", "0")', "", RUN_LOOP),
    Mutant("a second run tag read by query column", "formats.py",
           "tag != run_tag or ", "",
           f"{RUNS}::test_inconsistent_tag_keeps_first"),
    Mutant("a split query's second block replacing its first",
           "formats.py", "column = columns.get(qid)", "column = None",
           SHUFFLED_TAGS),
    Mutant("a query's column left in file order", "formats.py",
           "passages = [by_rank[rank] for rank in ascending]", "pass",
           f"{RUNS}::test_out_of_order_ranks_sorted"),
    Mutant("a repeated passage read by query column", "formats.py",
           "\n                    or len(set(passages)) != len(passages)", "",
           RUN_LOOP),
    Mutant("repeat tracking dropped from the walk", "formats.py",
           "seen.add((qid, value))", "pass",
           f"{RUNS}::test_duplicate_pair_rejected"),
    Mutant("a second run tag never counted", "formats.py",
           "other_tags += 1", "pass", UNWALKED_TAGS),
    Mutant("the second-tag warning without the file's name", "formats.py",
           '"another tag: %d", path,', '"another tag: %d", "<string>",',
           UNWALKED_TAGS),
    Mutant("a rank below 1 the walk does not find", "formats.py",
           "        if rank < 1:", "        if rank < 0:", RUN_LOOP),
    Mutant("a rank below 1 read by query column", "formats.py",
           "ascending[0] < 1 or ", "",
           f"{RUNS}::test_rank_zero_carries_line_number"),
    Mutant("scores left unconverted by query column", "formats.py",
           "list(map(float, score_texts))", "pass",
           f"{RUNS}::test_malformed_line_carries_number"),
    Mutant("no bank-question filter in GradeIndex", "model.py",
           "row_mode == mode and query_of.get(question_id) == query_id",
           "row_mode == mode", A3),
    Mutant("min_answers ignored", "model.py", ">= self.policy.min_answers)",
           ">= 1)", A3),
    Mutant("pooled P@k not capped at k", "metrics.py",
           "min(k, sum(1 for pid in pids", "max(0, sum(1 for pid in pids",
           PIPELINE),
    Mutant("first writer wins in GradeStore.read", "formats.py",
           "rows[key] = row", "rows.setdefault(key, row)", STORE_READ),
    Mutant("first writer wins on the matched-chunk path", "formats.py",
           "rows.update(zip(\n",
           "rows.update((key, rows.get(key, row)) for key, row in zip(\n",
           "tests/test_formats.py::test_store_round_trip_matches_oracle"),
    Mutant("a chunk with an unmatched line read by its matches", "formats.py",
           "if len(found) == lines:", "if found:", STORE_READ),
    Mutant("a line's start dropped at a chunk edge", "formats.py",
           'text = (carry + out[:end]).decode("utf-8")',
           'text = out[:end].decode("utf-8")', STORE_READ),
    Mutant("zero padding after a member read as corrupt", "formats.py",
           "while start < len(data) and not data[start]:", "while False:",
           STORE_READ),
    Mutant("a torn member's rows kept", "formats.py",
           "raise _TornTail(start)", "return end", "tests/test_formats.py::"
           "test_torn_last_member_is_dropped_with_one_warning"),
    Mutant("a member that runs into an intact one read as torn",
           "formats.py", "if later != -1:", "if False:",
           "tests/test_formats.py::"
           "test_member_that_runs_into_an_intact_one_is_corrupt"),
    Mutant("a bad line reported before the damage that explains it",
           "formats.py", "for _ in _inflate(data):\n                    pass\n",
           "", "tests/test_formats.py::"
           "test_bad_line_that_damage_explains_is_corrupt"),
    Mutant("a torn member left before the next append", "formats.py",
           "raw.truncate(torn_at)", "pass",
           f"{CORPUS}::test_torn_store_regrades_the_torn_batch"),
    Mutant("a torn member cut off after the file grew", "formats.py",
           "if os.fstat(raw.fileno()).st_size != size:", "if False:",
           "tests/test_formats.py::"
           "test_append_leaves_a_torn_member_the_file_outgrew"),
    Mutant("diff reads the store once per bank", "cli.py",
           "_grade_index(grades_path, policy, new, new_path, rows))",
           "_grade_index(grades_path, policy, new, new_path))", COSTLY_ONCE),
    Mutant("verdict and rating slots swapped", "model.py",
           "slot = 1 if mode == QA_VERIFIED else 2",
           "slot = 2 if mode == QA_VERIFIED else 1", A3),
    Mutant("> for >= in min_answers_sweep", "metrics.py", "int(count >= n)",
           "int(count > n)", "tests/test_metrics.py::"
           "TestAgreementTables::test_min_answers_sweep_shapes"),
    Mutant("> for >= in passes", "model.py",
           "return policy.min_rating.__le__",
           "return policy.min_rating.__lt__",
           "tests/test_acceptance.py::test_criterion_4_invariant_suite"),
    Mutant("strict collapse at 3", "cli.py", '"strict": 4}', '"strict": 3}',
           PIPELINE),
    Mutant("per-row kappa printed in reverse order", "cli.py",
           "table.kappa_per_row[i]", "table.kappa_per_row[-1 - i]", PIPELINE),
    Mutant("the first row's kappa printed as the overall kappa", "cli.py",
           "kappa={table.kappa_overall:.3f}",
           "kappa={table.kappa_per_row[0]:.3f}",
           "tests/test_cli.py::test_agreement_prints_each_overall_kappa"),
    Mutant("an unhashable literal ending generate", "bank.py",
           "SyntaxError, TypeError, ", "SyntaxError, ",
           "tests/test_bank.py::TestParseQuestionList"),
    Mutant("brackets too deep to parse ending generate", "bank.py",
           "TypeError, RecursionError,\n                MemoryError)",
           "TypeError)", "tests/test_cli.py::"
           "test_generate_reads_brackets_too_deep_to_parse_as_no_list"),
    Mutant("diff_banks comparing text only", "bank.py",
           "(old_by_id[qid].query_id, old_by_id[qid].text)",
           "(new_by_id[qid].query_id, old_by_id[qid].text)", A3),
    Mutant("grade-store lines split at a CR", "formats.py",
           "_LINES.findall(text)", "text.splitlines(True)",
           f"{STORE_READ} {STORE_DECODE}::"
           "test_raw_carriage_return_is_json_whitespace"),
    Mutant("no zlib.error catch", "formats.py",
           "except (zlib.error, UnicodeDecodeError) as exc:",
           "except UnicodeDecodeError as exc:",
           "tests/test_cli.py::test_corrupt_store_reported"),
    Mutant("control characters allowed in the id class", "formats.py",
           r"""_ID = r'"([^"\\\x00-\x1f]*)"'""", r"""_ID = r'"([^"\\]*)"'""",
           CANONICAL),
    Mutant("[0-5] widened to [0-9] for a canonical rating", "formats.py",
           "(?(rated)([0-5])|null)", "(?(rated)([0-9])|null)", CANONICAL),
    Mutant("an escaped answer stored as its raw text", "formats.py",
           """_DECODER.decode(f"[{','.join(answers)}]")""",
           """[None if answer == "null" else answer[1:-1]
            for answer in answers]""",
           CANONICAL),
    Mutant("an id written without encode_basestring", "formats.py",
           "_quote(passage_id)", """'"%s"' % passage_id""",
           "tests/test_formats.py::test_line_layout_is_the_json_encoders"),
    Mutant("truncation with the qa template in both modes", "grading.py",
           "truncate_context(question.text, text, budget, render,",
           "truncate_context(question.text, text, budget, "
           "gateway.render_qa_prompt,",
           "tests/test_grading.py::test_braces_passage_is_graded"),
    Mutant("the rest of a shared split cut one token short", "gateway.py",
           "extra = keep - low", "extra = keep - low - 1",
           f"{SHARED_SPLIT} {SHARED_CUT}"),
    Mutant("the shared split taken at the largest allowance", "gateway.py",
           "return min((budget - fixed", "return max((budget - fixed",
           f"{SHARED_SPLIT} {SHARED_CUT}"),
    Mutant("a question over the budget counted in the shared split",
           "gateway.py", "\n                if fixed <= budget), default=0)",
           "), default=0)", f"{SHARED_SPLIT} {SHARED_CUT}"),
    Mutant("a passage's split kept for the next query", "grading.py",
           "splits: dict[str, gateway.ContextSplit] = {}",
           'splits = locals().get("splits", {})', SHARED_CUT),
    Mutant("the passage split once per question", "grading.py",
           "if passage_id not in splits:", "if True:", COSTLY_ONCE),
    Mutant("the allowance taken over every question of the query",
           "grading.py", "question.text for question, _ in missing\n"
           "                 if sendable(question)",
           "question.text for question in bank.questions_for(query_id)",
           COSTLY_ONCE),
    Mutant(">= for > in the bag-distance bound", "grading.py",
           "if bag_distance > k:", "if bag_distance >= k:", VERIFY),
    Mutant("the first row's carry dropped from the distance", "grading.py",
           "ph = ph << 1 | 1", "ph = ph << 1", VERIFY),
    Mutant("the distance read one row above the last", "grading.py",
           "top = bit - 1, bit >> 1", "top = bit - 1, bit >> 2", VERIFY),
    Mutant(">= for > in the distance's early exit", "grading.py",
           "if score - remaining > k:", "if score - remaining >= k:", VERIFY),
    Mutant("equal answers rejected", "grading.py",
           "return True\n    return edit_distance_below(",
           "return False\n    return edit_distance_below(", VERIFY),
    Mutant("Kendall tau-b ignoring ties", "metrics.py",
           "math.sqrt((pairs - tied_a) * (pairs - tied_b))", "pairs",
           "tests/test_metrics.py::test_correlations_match_scipy"),
    Mutant("standard error divided by n instead of n - 1", "metrics.py",
           "/ (n - 1)", "/ n", A3),
    Mutant("input text read in the locale's encoding", "formats.py",
           'return Path(path).read_text(encoding="utf-8-sig")',
           "return Path(path).read_text()",
           "tests/test_cli.py::"
           "test_non_ascii_text_round_trips_in_any_locale"),
    Mutant("input text read keeping a byte-order mark", "formats.py",
           'encoding="utf-8-sig"', 'encoding="utf-8"',
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
    Mutant("a list item left unchecked", "cli.py",
           "return tuple(map(self.convert, given))",
           "return (self.convert(given[0]), *given[1:])",
           f"{BEFORE_INPUT}[argv-agreement-min-answers]"),
    Mutant("--policy passed through unconverted", "cli.py",
           "return parse_policy(text)", "return text",
           f"{BEFORE_INPUT}[argv-cover]"),
    Mutant("a config boolean accepted unchecked", "cli.py",
           "state = _BOOLEANS.get(text.strip().lower())",
           "state = _BOOLEANS.get(text.strip().lower(), True)",
           f"{USAGE}[flag-by-config-checked]"),
    Mutant("atomic_write leaving its temporary file", "cli.py",
           "os.unlink(tmp)", "pass", "tests/test_cli.py::"
           "test_atomic_write_removes_its_temporary_file_on_failure"),
    Mutant("a config file that is not UTF-8 reported without its name",
           "cli.py", 'raise ContractViolation(f"{path}: {exc}") from None',
           "raise", "tests/test_cli.py::test_bad_input_error_names_its_file"),
    Mutant("a null official rank rejected", "formats.py",
           "if rank is None:        # unranked",
           "if rank is None and False:",
           "tests/test_cli.py::test_official_ranks_print_in_one_form"),
    Mutant("an empty batch appended as an empty gzip member", "formats.py",
           "if data:", "if True:",
           f"{CORPUS}::test_resume_skips_complete_store"),
    Mutant("a word for an official rank reported without the file's name",
           "formats.py", "except (TypeError, ValueError, OverflowError):",
           "except (TypeError, OverflowError):", "tests/test_cli.py::"
           "test_malformed_json_input_exits_one[official-rank-word]"),
    Mutant("a missing input file left to the command to find", "cli.py",
           "if not os.path.exists(text):", "if False:",
           f"{USAGE}[missing-path]"),
    Mutant("a backend error aborting the corpus", "grading.py",
           "except (gateway.BackendError, gateway.BudgetExceeded) as exc:",
           "except gateway.BudgetExceeded as exc:",
           f"{CORPUS}::test_failures_go_to_skip_log"),
    Mutant("a question over budget aborting the corpus", "grading.py",
           "except (gateway.BackendError, gateway.BudgetExceeded) as exc:",
           "except gateway.BackendError as exc:",
           f"{CORPUS}::test_question_over_budget_is_skip_logged"),
    Mutant("a question without a gold answer sent to the backend",
           "grading.py",
           "if not sendable(question):", "if False:",
           f"{CORPUS}::test_question_without_gold_answer_sends_no_request"),
    Mutant("a pair already in the store graded again", "grading.py",
           "mode) in existing:", "mode) in ():",
           f"{CORPUS}::test_resume_skips_complete_store"),
    Mutant("a Retry-After header ignored", "gateway.py",
           'retry_after = _delay_seconds(resp.getheader("Retry-After"))',
           "pass", f"{HTTP}::test_retry_after_in_seconds_replaces_the_backoff"),
    Mutant("a Retry-After delay not capped", "gateway.py",
           "return min(float(value), TIMEOUT_S)", "return float(value)",
           f"{HTTP}::test_retry_after_in_seconds_replaces_the_backoff"),
    Mutant("a Retry-After delay kept for the next retry", "gateway.py",
           "                retry_after = None\n", "",
           f"{HTTP}::test_retry_after_in_seconds_replaces_the_backoff"),
    Mutant("a 5xx reply not retried", "gateway.py",
           "if resp.status in (429, 500, 502, 503, 504):",
           "if resp.status == 429:",
           f"{HTTP}::test_exhausted_retries_surface_error"),
    Mutant("a malformed 200 reply retried", "gateway.py",
           "except (ValueError, LookupError, TypeError) as exc:",
           "except (ValueError, LookupError, TypeError) as exc:\n"
           "                    last_error = exc\n"
           "                    continue",
           f"{HTTP}::test_malformed_reply_fails_fast"),
    Mutant("a step-2 suffix missing from its gate", "porter.py",
           "_STEP2_SUFFIXES = tuple(suffix for suffix, _ in _STEP2)",
           "_STEP2_SUFFIXES = tuple(suffix for suffix, _ in _STEP2[:-1])",
           PORTER),
    Mutant("a step-3 suffix missing from its gate", "porter.py",
           "_STEP3_SUFFIXES = tuple(suffix for suffix, _ in _STEP3)",
           "_STEP3_SUFFIXES = tuple(suffix for suffix, _ in _STEP3[1:])",
           PORTER),
    Mutant("_has_vowel ignoring y", "porter.py",
           ' or "y" in stem[1:]', "", PORTER),
    Mutant("_measure counting a leading y as a vowel", "porter.py",
           '(ch == "y" and i > 0 and not vowel)', '(ch == "y" and not vowel)',
           PORTER),
    Mutant("step 4 taking -ion after any letter but s", "porter.py",
           'stem_part.endswith(("s", "t"))', 'stem_part.endswith("s")',
           PORTER),
    Mutant("an e added after a consonant, vowel, y ending", "porter.py",
           'word[-1] not in "wxy"', 'word[-1] not in "wx"',
           "tests/test_porter.py::test_classic_examples"),
    Mutant("the empty-context token count cached for 1,024 questions",
           "gateway.py", "@functools.cache\ndef _fixed_tokens",
           "@functools.lru_cache(maxsize=1024)\ndef _fixed_tokens",
           f"{CORPUS}::test_each_question_text_is_rendered_once_in_any_bank"),
    Mutant("the cut made without a split one token late", "gateway.py",
           "split_context(context, keep) if split is None",
           "split_context(context, keep + 1) if split is None", SHARED_SPLIT),
    Mutant("a choice value left unchecked", "cli.py",
           'if kind == "choice" and text not in self.choices:', "if False:",
           f"{BEFORE_INPUT}[argv-agreement-collapse]"),
    Mutant("a plain-list item that may hold a backslash", "bank.py",
           r"""_ITEM = (r"'([^'\\\x00""", r"""_ITEM = (r"'([^'\x00""",
           LIST_READER),
    Mutant("a CR read as a plain list's space", "bank.py",
           r'_SPACE = r"[ \t\n]*"', r'_SPACE = r"[ \t\n\r]*"', LIST_READER),
    Mutant("a bank's empty list not written as []", "formats.py",
           'if items else "[]"', 'if True else "[]"', BANK_TEXT),
    Mutant("a facet id written unquoted", "formats.py",
           "else _quote(q.facet_id)", "else q.facet_id", BANK_TEXT),
    Mutant("a budget that only the template fits accepted", "cli.py",
           "if max_input_tokens <= template:",
           "if max_input_tokens < template:",
           f"{BEFORE_INPUT}[argv-grade-budget]"),
    Mutant("a self_rated line read with a null rating", "formats.py",
           "(?(rated)([0-5])|null)", "(?(rated)null|([0-5]))", CANONICAL),
    Mutant("a qa_verified line read with a null verdict", "formats.py",
           "(?(rated)null|(true|false))", "(?(rated)(true|false)|null)",
           CANONICAL),
    Mutant("the column-wise add keeping a chunk's first writer", "formats.py",
           "zip(*found)", "zip(*found[::-1])",
           "tests/test_formats.py::test_store_round_trip_matches_oracle"),
    Mutant("a leaderboard row without a tab skipped", "formats.py",
           "if (not line.strip() or fields[0] == OVERALL_SYSTEM",
           "if (len(fields) < 2 or fields[0] == OVERALL_SYSTEM",
           "tests/test_formats.py::TestLeaderboardScores::"
           "test_row_without_a_tab_names_file_and_line"),
    Mutant("a completion's compile warning let through", "bank.py",
           'warnings.simplefilter("ignore")', "pass",
           "tests/test_bank.py::TestParseQuestionList::"
           "test_invalid_escape_read_without_a_warning"),
)


@functools.cache
def _statements(path: str) -> list | None:
    """The top-level statements of a test file, or None where there is none."""
    file = ROOT / path
    return ast.parse(file.read_text(encoding="utf-8")).body \
        if file.is_file() else None


def _missing_test(node_id: str) -> str | None:
    """The first part of a pytest node id (its file, then classes and a
    function; a parameter id is not checked) that names nothing, or None."""
    path, *names = node_id.split("[")[0].split("::")
    scope = _statements(path)
    if scope is None:
        return path
    for name in names:
        found = [node for node in scope if isinstance(
            node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return name
        scope = found[0].body
    return None


def table_errors() -> list[str]:
    """A line for each row whose old text does not occur exactly once, and
    for each test a row selects that does not exist."""
    errors = []
    for mutant in MUTANTS:
        source = ROOT / "src" / "exam_eval" / mutant.file
        count = source.read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            errors.append(f"{mutant.name}: old text occurs {count} times in "
                          f"{source.relative_to(ROOT)}")
        for node_id in mutant.selection.split():
            missing = _missing_test(node_id)
            if missing:
                errors.append(f"{mutant.name}: {node_id} selects no test: "
                              f"{missing} does not exist")
    return errors


def run(mutant: Mutant, pytest_args) -> tuple[str, float, str]:
    """Pytest, with `pytest_args`, on a copy of the tree with the mutant
    applied: the outcome ("caught", "survived" or "error"), the seconds it
    took, and pytest's output."""
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
                [sys.executable, "-m", "pytest", *pytest_args], cwd=copy,
                env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", TIMEOUT_S, f"timed out after {TIMEOUT_S} s"
    # pytest exits 1 when a test fails and 0 when all pass; any other code
    # means the selection did not run.
    outcome = {0: "survived", 1: "caught"}.get(done.returncode, "error")
    return outcome, time.monotonic() - start, done.stdout + done.stderr


def workers() -> int:
    """How many mutants run at once: one per CPU this process may use."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())


def main() -> int:
    errors = table_errors()
    for error in errors:
        print(error)
    if errors:
        return 1
    start = time.monotonic()
    missed = 0
    with concurrent.futures.ThreadPoolExecutor(workers()) as pool:
        for mutant, (outcome, seconds, output) in zip(MUTANTS, pool.map(
                lambda m: run(m, (*PYTEST_ARGS, *m.selection.split())),
                MUTANTS)):
            print(f"{outcome:<9}{seconds:6.1f} s  {mutant.name}", flush=True)
            if outcome != "caught":
                missed += 1
                print(*output.splitlines()[-15:], sep="\n")
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught in "
          f"{time.monotonic() - start:.0f} s with {workers()} workers")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
