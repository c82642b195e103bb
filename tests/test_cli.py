import contextlib
import gzip
import http.client
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exam_eval.cli import cli, main, parse_policy, read_config_file
from exam_eval.formats import GradeStore, ParseError, save_question_bank
from exam_eval.gateway import MockBackend
from exam_eval.model import (
    ContractViolation,
    ExamQuestion,
    GradePolicy,
    QA_VERIFIED,
    QuestionBank,
    SELF_RATED,
)
from conftest import child_env, lock_holder, rated
from test_metrics import (
    PASSAGES as RUN_PASSAGES,
    QUERIES as RUN_QUERIES,
    bank_edits,
    brute_force_cover,
    brute_force_diff,
    brute_force_pool,
    brute_force_pooled_cover,
    brute_force_pooled_precision,
    brute_force_precision,
    brute_force_qrels,
    mean,
    numpy_kappa,
    run_files,
    run_rows,
)


class TestParsePolicy:
    def test_qa(self):
        assert parse_policy("qa") == GradePolicy(mode=QA_VERIFIED)

    def test_rate_with_threshold(self):
        assert parse_policy("rate:4") \
            == GradePolicy(mode=SELF_RATED, min_rating=4)

    def test_min_answers_modifier(self):
        assert parse_policy("rate:1+min-answers=2") \
            == GradePolicy(mode=SELF_RATED, min_rating=1, min_answers=2)

    def test_bad_grammar(self):
        for text in ("strict", "rate:", "rate:9", "qa+answers=2"):
            with pytest.raises((ContractViolation, ValueError)):
                parse_policy(text)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exam.conf"
    path.write_text("# defaults\ndepth = 10\npolicy = rate:4\n")
    assert read_config_file(path) == {"depth": "10", "policy": "rate:4"}


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "No such command" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    assert main(["cover"]) == 1
    err = capsys.readouterr().err
    assert "--bank" in err or "Missing option" in err


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("depth", ["0", "-1"])
@pytest.mark.parametrize("command", ["grade", "cover", "leaderboard"])
def test_depth_below_one_rejected(tmp_path, capsys, command, depth):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    store = tmp_path / "new.jsonl.gz"
    inputs = {
        "grade": ["--runs", str(tmp_path / "runs"),
                  "--passages", str(tmp_path / "passages.json"),
                  "--mode", "rate", "--store", str(store),
                  "--mock", str(tmp_path / "grade_mock.json")],
        "cover": ["--run", str(tmp_path / "runs" / "sysA.run"),
                  "--grades", str(out / "grades.jsonl.gz"),
                  "--policy", "rate:4"],
        "leaderboard": ["--runs", str(tmp_path / "runs"),
                        "--grades", str(out / "grades.jsonl.gz"),
                        "--policy", "rate:4"],
    }[command]
    capsys.readouterr()
    assert main([command, "--bank", str(out / "bank.json"), *inputs,
                 "--depth", depth]) == 1
    assert "--depth" in capsys.readouterr().err
    assert not store.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    conf = tmp_path / "exam.conf"
    conf.write_text("colapse = binary\n")
    capsys.readouterr()
    assert main(["--config", str(conf), "agreement",
                 "--labels", str(out / "exam.qrels"),
                 "--judgments", str(out / "exam.qrels")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {conf}: unknown config key 'colapse': "
                            f"it names no option of any command\n")


def test_readme_names_exactly_the_cli_options():
    # pip's flag is the only other long option the README shows.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme))
    params = [*cli.params, *(param for command in cli.commands.values()
                             for param in command.params)]
    options = {opt for param in params for opt in param.opts
               if opt.startswith("--")}
    assert documented - {"--no-build-isolation"} == options



@pytest.mark.parametrize("name, content, message", [
    ("bank", {"queries": [["q1"]]}, "'queries' must be a list of objects"),
    ("bank", {"queries": {"query_id": "q1"}},
     "'queries' must be a list of objects"),
    ("bank", {"queries": [{"query_id": "q1", "questions": ["What?"]}]},
     "questions of query 'q1' must be a list of objects"),
    ("queries", [{"title": "topic one"}], "with 'query_id' and 'title'"),
    ("queries", [{"query_id": "q1"}], "with 'query_id' and 'title'"),
    ("queries", {"query_id": "q1", "title": "t"},
     "with 'query_id' and 'title'"),
    ("queries", [{"query_id": "q1", "title": "t", "facets": [{"title": "f"}]}],
     "facets of query 'q1' must be a list of objects"),
    ("official", ["sysA", "sysB"],
     "expected a JSON object mapping system name to official rank"),
    ("official", {"sysA": 1, "sysB": [2]},
     "official rank of 'sysB' must be a number or null, got [2]"),
    ("official", {"sysA": 1, "sysB": {"rank": 2}},
     "official rank of 'sysB' must be a number or null"),
    ("official", {"sysA": 1, "sysB": "second"},
     "official rank of 'sysB' must be a number or null, got 'second'"),
    ("official", {"sysA": 1, "sysB": True},
     "official rank of 'sysB' must be a number or null, got True"),
    ("official", {"sysA": False, "sysB": 2},
     "official rank of 'sysA' must be a number or null, got False"),
    ("official", {"sysA": 1, "sysB": "NaN"},
     "official rank of 'sysB' must be a number or null, got 'NaN'"),
    ("official", {"sysA": 1, "sysB": math.nan},
     "official rank of 'sysB' must be a number or null, got nan"),
    ("official", {"sysA": "inf", "sysB": 2},
     "official rank of 'sysA' must be a number or null, got 'inf'"),
], ids=["queries-of-lists", "queries-object", "question-string",
        "query-without-id", "query-without-title", "queries-object-file",
        "facet-without-id", "official-list", "official-rank-list",
        "official-rank-object", "official-rank-word", "official-rank-true",
        "official-rank-false", "official-rank-nan-string",
        "official-rank-nan", "official-rank-inf-string"])
def test_malformed_json_input_exits_one(tmp_path, capsys, name, content,
                                        message):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    bad = tmp_path / f"bad_{name}.json"
    bad.write_text(json.dumps(content))
    argv = {
        "bank": ["cover", "--bank", str(bad),
                 "--run", str(tmp_path / "runs" / "sysA.run"),
                 "--grades", str(out / "grades.jsonl.gz"),
                 "--policy", "rate:4"],
        "queries": ["generate", "--queries", str(bad), "--template", "car",
                    "--mock", str(tmp_path / "gen_mock.json"),
                    "--out", str(out / "bank2.json")],
        "official": ["leaderboard", "--bank", str(out / "bank.json"),
                     "--runs", str(tmp_path / "runs"),
                     "--grades", str(out / "grades.jsonl.gz"),
                     "--policy", "rate:4", "--official", str(bad)],
    }[name]
    capsys.readouterr()
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line


def test_official_ranks_numeric_strings_and_null_accepted(tmp_path):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    official = tmp_path / "official_mixed.json"
    official.write_text(json.dumps({"sysA": "1", "sysB": None}))
    assert main(["leaderboard", "--bank", str(out / "bank.json"),
                 "--runs", str(tmp_path / "runs"),
                 "--grades", str(out / "grades.jsonl.gz"),
                 "--policy", "rate:4", "--official", str(official),
                 "--out", str(out / "mixed.tsv")]) == 0
    ranks = {fields[0]: fields[3] for fields in (
        line.split("\t") for line in
        (out / "mixed.tsv").read_text().splitlines()[1:])}
    assert ranks == {"sysA": "1", "sysB": "", "_overall_": ""}


@pytest.mark.parametrize("command, flag, value, bound", [
    ("generate", "--parallelism", "0", "x>=1"),
    ("grade", "--parallelism", "0", "x>=1"),
    ("grade", "--max-input-tokens", "32", "x>=64")])
def test_backend_flag_ranges_rejected(tmp_path, capsys, command, flag,
                                      value, bound):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    target = tmp_path / "new_output"
    argv = {
        "generate": ["generate", "--queries", str(tmp_path / "queries.json"),
                     "--template", "dl", "--mock",
                     str(tmp_path / "gen_mock.json"), "--out", str(target)],
        "grade": ["grade", "--bank", str(out / "bank.json"),
                  "--runs", str(tmp_path / "runs"),
                  "--passages", str(tmp_path / "passages.json"),
                  "--mode", "rate", "--mock", str(tmp_path / "grade_mock.json"),
                  "--store", str(target)],
    }[command]
    capsys.readouterr()
    assert main([*argv, flag, value]) == 1
    assert (f"Invalid value for '{flag}': {value} is not in the range "
            f"{bound}.") in capsys.readouterr().err
    assert not target.exists()


# Imports the CLI, runs each command given as JSON argv lists, and prints
# the heavy modules loaded after the import and after each command.
HEAVY_MODULES_PROBE = """
import json, sys
from exam_eval.cli import main
heavy = lambda: [m for m in ("numpy", "scipy") if m in sys.modules]
seen = [heavy()]
for argv in json.loads(sys.argv[1]):
    seen.append([main(argv)] + heavy())
print(json.dumps(seen))
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # Statistics are plain Python: numpy and scipy are test-only, and
    # importing either would cost most of the CLI's start-up time.
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    (tmp_path / "runs" / "sysC.run").write_text(
        "q1 Q0 pA2 1 9.0 sysC\nq2 Q0 pA2 1 9.0 sysC\n")
    (tmp_path / "official.json").write_text(
        json.dumps({"sysA": 1, "sysB": 3, "sysC": 2}))
    commands = [
        ["leaderboard", "--bank", str(out / "bank.json"),
         "--runs", str(tmp_path / "runs"),
         "--grades", str(out / "grades.jsonl.gz"), "--policy", "rate:4",
         "--official", str(tmp_path / "official.json"),
         "--out", str(out / "lb3.tsv")],
        ["correlate", "--a", str(out / "lb3.tsv"), "--b", str(out / "lb3.tsv")],
        ["agreement", "--labels", str(out / "exam.qrels"),
         "--judgments", str(out / "exam.qrels"),
         "--collapse", "graded,lenient,strict,binary"],
    ]
    probe = subprocess.run(
        [sys.executable, "-c", HEAVY_MODULES_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=child_env(), timeout=60,
        check=True)
    assert json.loads(probe.stdout.splitlines()[-1]) == [[], [0], [0], [0]]
    # sysB and sysC tie on score: tau-b and average ranks at work. The
    # strict table has one row (no label reaches 4), so it has no kappa.
    assert probe.stderr == ("spearman=0.8660 kendall=0.8165 n=3\n"
                            "graded: kappa=1.000\nlenient: kappa=1.000\n"
                            "binary: kappa=1.000\n")


@pytest.mark.parametrize("data", [
    # A gzip header, then a deflate block of the reserved type 3.
    b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x07",
    gzip.compress(b'{"query_id": "\xff"}\n'),
], ids=["bad-deflate-block", "invalid-utf8"])
def test_corrupt_store_reported(tmp_path, capsys, data):
    store_path = tmp_path / "grades.jsonl.gz"
    store_path.write_bytes(data)
    with pytest.raises(ParseError, match="corrupt grade store"):
        GradeStore(store_path).read()
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(save_question_bank(QuestionBank({})))
    assert main(["qrels", "--bank", str(bank_path), "--grades",
                 str(store_path), "--policy", "rate:4"]) == 1
    assert f"error: corrupt grade store {store_path}" \
        in capsys.readouterr().err


# ---------------------------------------------------------------------------
# End-to-end pipeline on a mock backend


QUERIES = [
    {"query_id": "q1", "title": "topic one"},
    {"query_id": "q2", "title": "topic two"},
]

PASSAGES = {
    "pA1": "alpha text that answers everything asked of it",
    "pA2": "filler text with nothing of substance inside it",
    "pB1": "unrelated text about completely different things",
}

RUN_A = ("q1 Q0 pA1 1 9.0 sysA\nq1 Q0 pA2 2 8.0 sysA\n"
         "q2 Q0 pA1 1 9.0 sysA\nq2 Q0 pA2 2 8.0 sysA\n")
RUN_B = ("q1 Q0 pB1 1 9.0 sysB\nq1 Q0 pA2 2 8.0 sysB\n"
         "q2 Q0 pB1 1 9.0 sysB\nq2 Q0 pA2 2 8.0 sysB\n")


def write_pipeline_inputs(root):
    (root / "queries.json").write_text(json.dumps(QUERIES))
    (root / "passages.json").write_text(json.dumps(PASSAGES))
    runs = root / "runs"
    runs.mkdir()
    (runs / "sysA.run").write_text(RUN_A)
    (runs / "sysB.run").write_text(RUN_B)
    (root / "gen_mock.json").write_text(json.dumps(
        {"default": '["First question?", "Second question?"]'}))
    grade_mock = {"default": "0"}
    for q in ("q1", "q2"):
        for i in range(2):
            grade_mock[f"{q}/q/{i}/pA1"] = "5: fully answers it"
    (root / "grade_mock.json").write_text(json.dumps(grade_mock))
    (root / "official.json").write_text(json.dumps({"sysA": 1, "sysB": 2}))


def run_pipeline(root, out):
    out.mkdir(exist_ok=True)
    steps = [
        ["generate", "--queries", str(root / "queries.json"),
         "--template", "dl", "--mock", str(root / "gen_mock.json"),
         "--out", str(out / "bank.json")],
        ["grade", "--bank", str(out / "bank.json"),
         "--runs", str(root / "runs"),
         "--passages", str(root / "passages.json"),
         "--mode", "rate", "--mock", str(root / "grade_mock.json"),
         "--store", str(out / "grades.jsonl.gz"), "--depth", "20"],
        ["qrels", "--bank", str(out / "bank.json"),
         "--grades", str(out / "grades.jsonl.gz"),
         "--policy", "rate:4", "--out", str(out / "exam.qrels")],
        ["leaderboard", "--bank", str(out / "bank.json"),
         "--runs", str(root / "runs"),
         "--grades", str(out / "grades.jsonl.gz"),
         "--policy", "rate:4", "--metric", "cover",
         "--official", str(root / "official.json"),
         "--out", str(out / "leaderboard.tsv")],
        ["agreement", "--labels", str(out / "exam.qrels"),
         "--judgments", str(out / "exam.qrels"),
         "--collapse", "binary", "--out", str(out / "agreement.tsv")],
    ]
    for step in steps:
        assert main(step) == 0, f"step failed: {step[0]}"


ARTIFACTS = ["bank.json", "grades.jsonl.gz", "exam.qrels",
             "leaderboard.tsv", "agreement.tsv"]


class TestPipeline:
    def test_bank_with_int_ids_writes_no_store(self, tmp_path, capsys):
        # Reading rejects non-string ids, so grading must not store them.
        write_pipeline_inputs(tmp_path)
        bank = tmp_path / "bank.json"
        bank.write_text(json.dumps({"queries": [{"query_id": "q1", "questions": [
            {"question_id": 7, "text": "First question?"}]}]}))
        store = tmp_path / "grades.jsonl.gz"
        assert main([
            "grade", "--bank", str(bank), "--runs", str(tmp_path / "runs"),
            "--passages", str(tmp_path / "passages.json"),
            "--mode", "rate", "--mock", str(tmp_path / "grade_mock.json"),
            "--store", str(store)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bank}: question_id in query 'q1' must be a non-empty "
            f"string, got 7\n")
        assert not store.exists()

    def test_end_to_end_and_determinism(self, tmp_path):
        write_pipeline_inputs(tmp_path)
        run_pipeline(tmp_path, tmp_path / "out1")
        run_pipeline(tmp_path, tmp_path / "out2")
        for name in ARTIFACTS:
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
        # No lock or temporary file is left behind.
        assert sorted(p.name for p in (tmp_path / "out1").iterdir()) \
            == sorted(ARTIFACTS)

    def test_dominant_system_ranked_first(self, tmp_path):
        write_pipeline_inputs(tmp_path)
        run_pipeline(tmp_path, tmp_path / "out")
        lines = (tmp_path / "out" / "leaderboard.tsv").read_text().splitlines()
        systems = [line.split("\t")[0] for line in lines[1:]]
        assert systems.index("sysA") < systems.index("sysB")

    def test_qrels_output_is_parseable_and_binary(self, tmp_path):
        write_pipeline_inputs(tmp_path)
        run_pipeline(tmp_path, tmp_path / "out")
        from exam_eval.formats import parse_qrels
        by_pid = parse_qrels((tmp_path / "out" / "exam.qrels").read_text())
        assert by_pid[("q1", "pA1")] == 1
        assert by_pid[("q1", "pB1")] == 0

    def test_grade_rerun_is_idempotent(self, tmp_path, capsys):
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        before = (out / "grades.jsonl.gz").read_bytes()
        assert main([
            "grade", "--bank", str(out / "bank.json"),
            "--runs", str(tmp_path / "runs"),
            "--passages", str(tmp_path / "passages.json"),
            "--mode", "rate", "--mock", str(tmp_path / "grade_mock.json"),
            "--store", str(out / "grades.jsonl.gz")]) == 0
        assert (out / "grades.jsonl.gz").read_bytes() == before
        assert "graded 0 pairs" in capsys.readouterr().out

    def test_cover_subcommand(self, tmp_path, capsys):
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        assert main([
            "cover", "--bank", str(out / "bank.json"),
            "--run", str(tmp_path / "runs" / "sysA.run"),
            "--grades", str(out / "grades.jsonl.gz"),
            "--policy", "rate:4"]) == 0
        text = capsys.readouterr().out
        assert "mean\t1.0000" in text

    def test_leaderboard_p_at_k(self, tmp_path):
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        assert main([
            "leaderboard", "--bank", str(out / "bank.json"),
            "--runs", str(tmp_path / "runs"),
            "--grades", str(out / "grades.jsonl.gz"),
            "--policy", "rate:4", "--metric", "p_at_k", "--depth", "2",
            "--out", str(out / "lb_p.tsv")]) == 0
        rows = {line.split("\t")[0]: line.split("\t")[1] for line in
                (out / "lb_p.tsv").read_text().splitlines()[1:]}
        # Only pA1 is relevant: sysA ranks it first for both queries.
        assert rows == {"sysA": "0.5000", "_overall_": "0.5000",
                        "sysB": "0.0000"}

    def test_correlate_subcommand(self, tmp_path, capsys):
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        lb = out / "leaderboard.tsv"
        # A leaderboard correlates perfectly with itself (2 systems is too
        # few, so extend with a third synthetic row).
        extended = out / "extended.tsv"
        extended.write_text(lb.read_text() + "sysC\t0.1000\t0.0\t\n")
        assert main(["correlate", "--a", str(extended),
                     "--b", str(extended)]) == 0
        assert "spearman\t1.0000" in capsys.readouterr().out

    def test_diff_subcommand(self, tmp_path, capsys):
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        bank_text = (out / "bank.json").read_text()
        edited = json.loads(bank_text)
        edited["queries"][0]["questions"].pop()
        (out / "bank2.json").write_text(json.dumps(edited))
        assert main([
            "diff", "--old", str(out / "bank.json"),
            "--new", str(out / "bank2.json"),
            "--grades", str(out / "grades.jsonl.gz"),
            "--policy", "rate:4"]) == 0
        assert "removed\tq1/q/1" in capsys.readouterr().out

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        conf = tmp_path / "exam.conf"
        conf.write_text(f"policy = rate:4\n"
                        f"bank = {out / 'bank.json'}\n"
                        f"grades = {out / 'grades.jsonl.gz'}\n")
        assert main([
            "--config", str(conf), "cover",
            "--run", str(tmp_path / "runs" / "sysA.run")]) == 0
        assert "mean\t1.0000" in capsys.readouterr().out

    def test_config_keys_reach_every_option(self, tmp_path, capsys):
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        runs = tmp_path / "runs"
        conf = tmp_path / "exam.conf"
        # Long option names, with - or _, or the parameter's own name.
        conf.write_text(f"judgments = {out / 'exam.qrels'}\n"
                        f"collapse = binary\nfmt = table\n"
                        f"judgment-rel-min = 1\n"
                        f"runs = {runs / 'sysA.run'} {runs / 'sysB.run'}\n"
                        f"bank = {out / 'bank.json'}\n"
                        f"grades = {out / 'grades.jsonl.gz'}\n"
                        f"policy = rate:4\n")
        capsys.readouterr()
        assert main(["--config", str(conf), "agreement",
                     "--labels", str(out / "exam.qrels")]) == 0
        text = capsys.readouterr().out
        assert text.startswith("BINARY\n")
        assert "LENIENT" not in text and "GRADED" not in text
        assert main(["--config", str(conf), "leaderboard"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert sorted(row.split("\t")[0] for row in rows) \
            == ["_overall_", "sysA", "sysB"]

    def test_agreement_min_answers_sweep(self, tmp_path):
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        assert main([
            "agreement", "--judgments", str(out / "exam.qrels"),
            "--min-answers", "1,2",
            "--grades", str(out / "grades.jsonl.gz"),
            "--bank", str(out / "bank.json"),
            "--policy", "rate:4",
            "--out", str(out / "sweep.tsv")]) == 0
        text = (out / "sweep.tsv").read_text()
        assert "binary-min-answers-1" in text
        assert "binary-min-answers-2" in text

    def test_missing_input_file_exits_one(self, tmp_path):
        assert main(["cover", "--bank", str(tmp_path / "nope.json"),
                     "--run", str(tmp_path / "nope.run"),
                     "--grades", str(tmp_path / "nope.gz"),
                     "--policy", "rate:4"]) == 1

    def test_question_without_gold_answer_is_skip_logged(self, tmp_path,
                                                         capsys):
        write_pipeline_inputs(tmp_path)
        bank = QuestionBank({"q1": (
            ExamQuestion("q1/q/0", "q1", "What is it?", gold_answer="alpha"),
            ExamQuestion("q1/q/1", "q1", "And this?"))})
        (tmp_path / "bank.json").write_text(save_question_bank(bank))
        store = tmp_path / "grades.jsonl.gz"
        assert main([
            "grade", "--bank", str(tmp_path / "bank.json"),
            "--runs", str(tmp_path / "runs"),
            "--passages", str(tmp_path / "passages.json"),
            "--mode", "qa", "--mock", str(tmp_path / "grade_mock.json"),
            "--store", str(store)]) == 0
        assert "graded 3 pairs (0 already in store, 3 failed)" \
            in capsys.readouterr().out
        pool = ["pA1", "pA2", "pB1"]
        skip_log = tmp_path / "grades.jsonl.skipped.jsonl"
        skipped = [json.loads(line)
                   for line in skip_log.read_text().splitlines()]
        assert skipped == [
            {"query_id": "q1", "passage_id": pid, "question_id": "q1/q/1",
             "reason": "no gold answer"} for pid in pool]
        assert set(GradeStore(store).read()) == {
            ("q1", pid, "q1/q/0", QA_VERIFIED) for pid in pool}

    def test_clean_rerun_removes_stale_skip_log(self, tmp_path, capsys):
        write_pipeline_inputs(tmp_path)
        bank_path, store = tmp_path / "bank.json", tmp_path / "grades.jsonl.gz"
        skip_log = tmp_path / "grades.jsonl.skipped.jsonl"
        grade = ["grade", "--bank", str(bank_path),
                 "--runs", str(tmp_path / "runs" / "sysA.run"),
                 "--passages", str(tmp_path / "passages.json"),
                 "--mode", "qa", "--mock", str(tmp_path / "grade_mock.json"),
                 "--store", str(store)]
        for gold_answer in (None, "alpha"):
            bank = QuestionBank({"q1": (ExamQuestion(
                "q1/q/0", "q1", "What is it?", gold_answer=gold_answer),)})
            bank_path.write_text(save_question_bank(bank))
            assert main(grade) == 0
            if gold_answer is None:
                assert "graded 0 pairs (0 already in store, 2 failed)" \
                    in capsys.readouterr().out
                assert len(skip_log.read_text().splitlines()) == 2
        assert "graded 2 pairs (0 already in store, 0 failed)" \
            in capsys.readouterr().out
        assert not skip_log.exists()

    def test_empty_passage_text_dropped(self, tmp_path, capsys, caplog):
        # An empty text cannot be graded; the other passages still are.
        write_pipeline_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        passages = tmp_path / "passages_empty.json"
        passages.write_text(json.dumps({**PASSAGES, "pB1": ""}))
        store = tmp_path / "grades.jsonl.gz"
        capsys.readouterr()
        assert main([
            "grade", "--bank", str(out / "bank.json"),
            "--runs", str(tmp_path / "runs"), "--passages", str(passages),
            "--mode", "rate", "--mock", str(tmp_path / "grade_mock.json"),
            "--store", str(store)]) == 0
        assert "graded 8 pairs (0 already in store, 0 failed)" \
            in capsys.readouterr().out
        assert "2 pooled passages have no text and were dropped" \
            in caplog.messages
        assert set(GradeStore(store).read()) == {
            (q, pid, f"{q}/q/{i}", SELF_RATED) for q in ("q1", "q2")
            for pid in ("pA1", "pA2") for i in range(2)}

    def test_question_over_budget_is_skip_logged(self, tmp_path, capsys):
        write_pipeline_inputs(tmp_path)
        long_text = " ".join(["why"] * 80) + " now?"
        bank = QuestionBank({q: (
            ExamQuestion(f"{q}/q/0", q, "What is it?", gold_answer="alpha"),
            ExamQuestion(f"{q}/q/1", q,
                         long_text if q == "q1" else "And this?",
                         gold_answer="beta"))
            for q in ("q1", "q2")})
        (tmp_path / "bank.json").write_text(save_question_bank(bank))
        store = tmp_path / "grades.jsonl.gz"
        assert main([
            "grade", "--bank", str(tmp_path / "bank.json"),
            "--runs", str(tmp_path / "runs"),
            "--passages", str(tmp_path / "passages.json"),
            "--mode", "qa", "--mock", str(tmp_path / "grade_mock.json"),
            "--max-input-tokens", "64", "--store", str(store)]) == 0
        assert "graded 9 pairs (0 already in store, 3 failed)" \
            in capsys.readouterr().out
        pool = ["pA1", "pA2", "pB1"]
        skipped = [json.loads(line) for line in (
            tmp_path / "grades.jsonl.skipped.jsonl").read_text().splitlines()]
        assert skipped == [
            {"query_id": "q1", "passage_id": pid, "question_id": "q1/q/1",
             "reason": "question and template alone need 96 tokens, "
                       "budget is 64"} for pid in pool]
        assert set(GradeStore(store).read()) == {
            (q, pid, qid, QA_VERIFIED) for q in ("q1", "q2") for pid in pool
            for qid in (f"{q}/q/0", f"{q}/q/1")} - {
            ("q1", pid, "q1/q/1", QA_VERIFIED) for pid in pool}


# ---------------------------------------------------------------------------
# Each input is checked where it is read: a bad file exits 1 with its name,
# before any completion is requested.


@pytest.fixture
def completions(monkeypatch):
    """Every request the mock backend answers, in order."""
    sent = []
    answer = MockBackend.complete

    def complete(self, request):
        sent.append(request)
        return answer(self, request)

    monkeypatch.setattr(MockBackend, "complete", complete)
    return sent


def grade_argv(root, bank, store, *extra):
    return ["grade", "--bank", str(bank), "--runs", str(root / "runs"),
            "--passages", str(root / "passages.json"), *extra,
            "--store", str(store)]


def test_null_passage_text_is_dropped(tmp_path, capsys, caplog):
    write_pipeline_inputs(tmp_path)
    bank = tmp_path / "bank.json"
    bank.write_text(save_question_bank(QuestionBank({"q1": (
        ExamQuestion("q1/q/0", "q1", "What is it?"),)})))
    (tmp_path / "passages.json").write_text(
        json.dumps({**PASSAGES, "pA1": None}))
    store = tmp_path / "grades.jsonl.gz"
    assert main(grade_argv(tmp_path, bank, store, "--mode", "rate", "--mock",
                           str(tmp_path / "grade_mock.json"))) == 0
    assert "graded 2 pairs (0 already in store, 0 failed)" \
        in capsys.readouterr().out
    assert "2 pooled passages have no text and were dropped" \
        in caplog.messages
    assert {key[1] for key in GradeStore(store).read()} == {"pA2", "pB1"}


@pytest.mark.parametrize("text, kind", [(7, "int"), (["alpha"], "list"),
                                        ({"t": "alpha"}, "dict")])
def test_non_string_passage_text_exits_one(tmp_path, capsys, completions,
                                           text, kind):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    passages = tmp_path / "passages.json"
    passages.write_text(json.dumps({**PASSAGES, "pB1": text}))
    store = tmp_path / "new.jsonl.gz"
    capsys.readouterr()
    completions.clear()
    assert main(grade_argv(tmp_path, out / "bank.json", store, "--mode",
                           "rate", "--mock",
                           str(tmp_path / "grade_mock.json"))) == 1
    assert capsys.readouterr().err == (
        f"error: {passages}: text of passage 'pB1' must be a string or "
        f"null, got {kind}\n")
    assert completions == [] and not store.exists()


def test_endpoint_without_scheme_exits_one(tmp_path, capsys, monkeypatch):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)

    def request(*args, **kwargs):
        raise AssertionError("no request may be sent")

    monkeypatch.setattr(http.client.HTTPConnection, "request", request)
    store = tmp_path / "new.jsonl.gz"
    capsys.readouterr()
    for endpoint, message in (
            ("localhost:1/v1/completions",
             "endpoint 'localhost:1/v1/completions' is not an http:// or "
             "https:// URL naming a host"),
            ("", "no backend: give --endpoint or --mock")):
        assert main(grade_argv(tmp_path, out / "bank.json", store, "--mode",
                               "rate", "--endpoint", endpoint)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not store.exists()


@pytest.mark.parametrize("gold_answer", ["", 42],
                         ids=["empty-gold", "numeric-gold"])
def test_bad_gold_answer_exits_one_before_grading(tmp_path, capsys,
                                                   completions, gold_answer):
    write_pipeline_inputs(tmp_path)
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"queries": [{"query_id": "q1", "questions": [
        {"question_id": "q1/q/0", "text": "What is it?",
         "gold_answer": "alpha"},
        {"question_id": "q1/q/1", "text": "And this?",
         "gold_answer": gold_answer}]}]}))
    store = tmp_path / "grades.jsonl.gz"
    assert main(grade_argv(tmp_path, bank, store, "--mode", "qa", "--mock",
                           str(tmp_path / "grade_mock.json"))) == 1
    assert capsys.readouterr().err == (
        f"error: {bank}: gold_answer of question 'q1/q/1' must be a "
        f"non-empty string, got {gold_answer!r}\n")
    assert completions == [] and not store.exists()


@pytest.mark.parametrize("queries, message", [
    ([{"query_id": "q1", "title": "topic one"},
      {"query_id": "q2", "title": ""}],
     "title of query 'q2' must be a non-empty string, got ''"),
    ([{"query_id": 1, "title": "topic one"}],
     "query_id must be a non-empty string, got 1"),
    ([{"query_id": "q1", "title": "first"},
      {"query_id": "q1", "title": "second"}],
     "duplicate query_id 'q1'"),
], ids=["empty-title", "int-query-id", "repeated-query-id"])
def test_generate_rejects_bad_queries_before_any_request(
        tmp_path, capsys, completions, queries, message):
    write_pipeline_inputs(tmp_path)
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(queries))
    bank = tmp_path / "bank.json"
    assert main(["generate", "--queries", str(path), "--template", "dl",
                 "--mock", str(tmp_path / "gen_mock.json"),
                 "--out", str(bank)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert completions == [] and not bank.exists()


@pytest.mark.parametrize("value, kind", [(None, "null"), (4, "int")],
                         ids=["null", "int"])
def test_non_string_mock_response_exits_one(tmp_path, capsys, completions,
                                            value, kind):
    write_pipeline_inputs(tmp_path)
    fixture = tmp_path / "fix.json"
    fixture.write_text(json.dumps({"q1": "['Q?']", "default": value}))
    bank = tmp_path / "bank.json"
    assert main(["generate", "--queries", str(tmp_path / "queries.json"),
                 "--template", "dl", "--mock", str(fixture),
                 "--out", str(bank)]) == 1
    assert capsys.readouterr().err == (
        f"error: {fixture}: mock response 'default' must be a string, "
        f"got {kind}\n")
    assert completions == [] and not bank.exists()


def test_bad_input_error_names_its_file(tmp_path, capsys):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    runs = tmp_path / "runs"
    (runs / "sysB.run").write_text("q1 Q0 pB1 1 9.0 sysB\nq1 Q0 pA2 two 8.0 "
                                   "sysB\n")
    bad_qrels = tmp_path / "bad.qrels"
    bad_qrels.write_text("q1 0 pA1 1\nq1 0 pA2\n")
    bad_bank = tmp_path / "bad_bank.json"
    bad_bank.write_text(json.dumps({"queries": [{"query_id": "q1",
                                                 "questions": [{}]}]}))
    grades = str(out / "grades.jsonl.gz")
    cases = [
        (["leaderboard", "--bank", str(out / "bank.json"),
          "--runs", str(runs), "--grades", grades, "--policy", "rate:4"],
         f"{runs / 'sysB.run'}: line 2: invalid literal for int() with "
         f"base 10: 'two'"),
        (["agreement", "--labels", str(out / "exam.qrels"),
          "--judgments", str(bad_qrels)],
         f"{bad_qrels}: line 2: expected 4 whitespace-separated fields, "
         f"got 3"),
        (["qrels", "--bank", str(bad_bank), "--grades", grades,
          "--policy", "rate:4"],
         f"{bad_bank}: question_id in query 'q1' must be a non-empty "
         f"string, got None"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["generate", "--template", "qa"], "'--template': 'qa' is not one of"),
    (["leaderboard", "--metric", "p20"], "'--metric': 'p20' is not one of"),
    (["agreement", "--min-answers", "1,0"], "min_answers must be >= 1, got 0"),
    (["qrels", "--graded", "--policy", "qa"],
     "--graded needs a rate:<min_rating> policy"),
    (["agreement", "--min-answers", "1,x"],
     "bad --min-answers '1,x'; expected comma-separated integers, such as "
     "1,2,5"),
    (["cover", "--policy", "rate:6"], "min_rating must be in [1, 5], got 6"),
    (["cover", "--policy", "rate:x"],
     "bad policy 'rate:x'; expected 'qa' or 'rate:<min_rating>', "
     "optionally followed by '+min-answers=<n>'"),
    (["cover", "--policy", "rate:4+min-answers=two"],
     "bad policy 'rate:4+min-answers=two'; expected 'qa' or "
     "'rate:<min_rating>'"),
    (["generate", "--template", "dl", "--max-input-tokens", "100"],
     "No such option"),
    (["agreement", "--labels", "{out}/exam.qrels",
      "--collapse", "lenient,bogus"], "unknown collapse name 'bogus'"),
    (["agreement", "--collapse", "bogus", "--min-answers", "1"],
     "unknown collapse name 'bogus'"),
], ids=["template", "metric", "min-answers-sweep", "graded-qa",
        "min-answers-sweep-not-int", "min-rating", "min-rating-not-int",
        "min-answers-not-int", "generate-max-input-tokens", "collapse",
        "collapse-without-labels"])
def test_bad_flag_value_exits_one(tmp_path, capsys, argv, message):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    argv = [arg.format(out=out) for arg in argv]
    inputs = {
        "generate": ["--queries", str(tmp_path / "queries.json"),
                     "--mock", str(tmp_path / "gen_mock.json"),
                     "--out", str(out / "bank2.json")],
        "leaderboard": ["--bank", str(out / "bank.json"),
                        "--runs", str(tmp_path / "runs"),
                        "--grades", str(out / "grades.jsonl.gz"),
                        "--policy", "rate:4"],
        "agreement": ["--judgments", str(out / "exam.qrels"),
                      "--grades", str(out / "grades.jsonl.gz"),
                      "--bank", str(out / "bank.json"),
                      "--policy", "rate:4"],
        "qrels": ["--bank", str(out / "bank.json"),
                  "--grades", str(out / "grades.jsonl.gz")],
        "cover": ["--bank", str(out / "bank.json"),
                  "--run", str(tmp_path / "runs" / "sysA.run"),
                  "--grades", str(out / "grades.jsonl.gz")],
    }[argv[0]]
    capsys.readouterr()
    assert main([*argv, *inputs]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not (out / "bank2.json").exists()


def test_grade_with_nothing_to_grade_leaves_an_empty_store(tmp_path, capsys):
    write_pipeline_inputs(tmp_path)
    bank = tmp_path / "bank.json"
    bank.write_text(save_question_bank(QuestionBank({"q1": ()})))
    store = tmp_path / "grades.jsonl.gz"
    assert main(["grade", "--bank", str(bank),
                 "--runs", str(tmp_path / "runs"),
                 "--passages", str(tmp_path / "passages.json"),
                 "--mode", "rate", "--mock", str(tmp_path / "grade_mock.json"),
                 "--store", str(store)]) == 0
    assert GradeStore(store).read() == {}
    capsys.readouterr()
    assert main(["cover", "--bank", str(bank),
                 "--run", str(tmp_path / "runs" / "sysA.run"),
                 "--grades", str(store), "--policy", "rate:4"]) == 0
    assert capsys.readouterr().out == "query\tcover\nmean\t0.0000\n"


def one_question_argv(root, store):
    """`grade` of one question of q1 against its three pooled passages."""
    bank = root / "bank.json"
    bank.write_text(save_question_bank(QuestionBank({"q1": (
        ExamQuestion("q1/q/0", "q1", "What is it?"),)})))
    return grade_argv(root, bank, store, "--mode", "rate", "--mock",
                      str(root / "grade_mock.json"))


@pytest.mark.parametrize("tag, message", [
    ("sysA", "run tag 'sysA' is already the tag of {runs}/sysA.run"),
    ("_overall_", "run tag '_overall_' is already the tag of the pooled "
                  "row"),
], ids=["repeated", "pooled-row"])
def test_run_tag_names_one_leaderboard_row(tmp_path, capsys, completions,
                                           tag, message):
    write_pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    run_pipeline(tmp_path, out)
    runs = tmp_path / "runs"
    (runs / "sysC.run").write_text(RUN_B.replace("sysB", tag))
    sent = len(completions)
    capsys.readouterr()
    for argv in (grade_argv(tmp_path, out / "bank.json", tmp_path / "g.gz",
                            "--mode", "rate",
                            "--mock", str(tmp_path / "grade_mock.json")),
                 ["leaderboard", "--bank", str(out / "bank.json"),
                  "--runs", str(runs),
                  "--grades", str(out / "grades.jsonl.gz"),
                  "--policy", "rate:4"]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"error: {runs}/sysC.run: {message.format(runs=runs)}\n")
    assert len(completions) == sent
    assert not (tmp_path / "g.gz").exists()


def test_locked_store_fails_before_any_request(tmp_path, capsys,
                                               completions):
    write_pipeline_inputs(tmp_path)
    store = GradeStore(tmp_path / "grades.jsonl.gz")
    store.append(dict([rated("q1", "pA1", "q1/q/9", 5)]))
    before = store.path.read_bytes()
    argv = one_question_argv(tmp_path, store.path)
    with lock_holder(store.path):
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: grade store {store.path} is being written by another "
        f"process\n")
    assert completions == []
    assert store.path.read_bytes() == before
    # The holder is gone, and its lock with it.
    assert main(argv) == 0
    assert len(completions) == 3


def test_store_in_missing_directory_fails_before_any_request(
        tmp_path, capsys, completions):
    write_pipeline_inputs(tmp_path)
    store = tmp_path / "nodir" / "grades.jsonl.gz"
    assert main(one_question_argv(tmp_path, store)) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert completions == [] and not store.parent.exists()


def test_leftover_lock_file_does_not_block_grade(tmp_path, completions):
    # Earlier versions guarded the store with a `<store>.lock` side file,
    # which a killed run left behind.
    write_pipeline_inputs(tmp_path)
    store = tmp_path / "grades.jsonl.gz"
    store.with_name(store.name + ".lock").write_text("12345")
    assert main(one_question_argv(tmp_path, store)) == 0
    assert len(completions) == 3 and len(GradeStore(store).read()) == 3


def test_grades_count_only_for_questions_of_their_own_query(tmp_path, capsys,
                                                           caplog):
    # p1's grade is of q2's question, p2's of a question outside the bank:
    # neither counts in any command, so p1 and p2 are ungraded.
    bank = QuestionBank({"q1": (ExamQuestion("q1/a", "q1", "A?"),),
                         "q2": (ExamQuestion("q2/b", "q2", "B?"),)})
    # The new bank files the outside question under q2, not under q1.
    new = QuestionBank({"q1": bank.questions_for("q1"),
                        "q2": (*bank.questions_for("q2"),
                               ExamQuestion("off-bank", "q2", "D?"))})
    paths = {name: tmp_path / name for name in (
        "bank.json", "new.json", "grades.jsonl.gz", "sys.run",
        "official.qrels")}
    paths["bank.json"].write_text(save_question_bank(bank))
    paths["new.json"].write_text(save_question_bank(new))
    GradeStore(paths["grades.jsonl.gz"]).append(dict([
        rated("q1", "p1", "q2/b", 5), rated("q1", "p2", "off-bank", 5),
        rated("q1", "p3", "q1/a", 0), rated("q1", "p4", "q1/a", 5)]))
    paths["sys.run"].write_text("".join(
        f"q1 Q0 p{i} {i} {1 / i:.2f} sys\n" for i in range(1, 5)))
    paths["official.qrels"].write_text(
        "q1 0 p1 1\nq1 0 p2 1\nq1 0 p3 0\nq1 0 p4 1\n")
    scoring = ["--bank", str(paths["bank.json"]),
               "--grades", str(paths["grades.jsonl.gz"]),
               "--policy", "rate:4"]
    commands = [
        (["cover", *scoring, "--run", str(paths["sys.run"])],
         "query\tcover\nq1\t1.0000\nq2\t0.0000\nmean\t0.5000\n"),
        (["qrels", *scoring], "q1 0 p3 0\nq1 0 p4 1\n"),
        (["qrels", *scoring, "--graded"], "q1 0 p3 0\nq1 0 p4 5\n"),
        (["agreement", *scoring, "--judgments", str(paths["official.qrels"]),
          "--min-answers", "1"],
         "# binary-min-answers-1\nlabel\t1\t0\ttotal\tkappa\n"
         "1\t1\t0\t1\t1.000\n0\t0\t1\t1\t1.000\n"),
        (["diff", "--old", str(paths["bank.json"]),
          "--new", str(paths["new.json"]),
          "--grades", str(paths["grades.jsonl.gz"]), "--policy", "rate:4"],
         "added\toff-bank\nneeds_grading\toff-bank\n"),
    ]
    for argv, expected in commands:
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, argv[0]
    assert "coverage gap: 2 pooled passages have no grades" in caplog.messages


def test_coverage_gaps_logged_per_scored_pool(tmp_path, capsys, caplog):
    # p2, p3 and p5 have no grades: sysA pools one of them, sysB two, and
    # the union of both runs all three.
    bank = QuestionBank({"q1": (ExamQuestion("q1/a", "q1", "A?"),
                                ExamQuestion("q1/b", "q1", "B?"))})
    (tmp_path / "bank.json").write_text(save_question_bank(bank))
    GradeStore(tmp_path / "grades.jsonl.gz").append(dict([
        rated("q1", "p1", "q1/a", 5), rated("q1", "p4", "q1/b", 5)]))
    runs = tmp_path / "runs"
    runs.mkdir()
    for tag, pids in (("sysA", ["p1", "p2"]), ("sysB", ["p3", "p4", "p5"])):
        (runs / f"{tag}.run").write_text("".join(
            f"q1 Q0 {pid} {rank} {1 / rank:.2f} {tag}\n"
            for rank, pid in enumerate(pids, 1)))
    scoring = ["--bank", str(tmp_path / "bank.json"),
               "--grades", str(tmp_path / "grades.jsonl.gz"),
               "--policy", "rate:4"]
    gap = "coverage gap: {} pooled passages have no grades".format
    commands = [
        (["cover", *scoring, "--run", str(runs / "sysA.run")],
         "query\tcover\nq1\t0.5000\nmean\t0.5000\n", [gap(1)]),
        (["leaderboard", *scoring, "--runs", str(runs)],
         "system\tscore\tstd_error\tofficial_rank\n"
         "_overall_\t1.0000\t0.0000\t\nsysA\t0.5000\t0.0000\t\n"
         "sysB\t0.5000\t0.0000\t\n", [gap(1), gap(2), gap(3)]),
        (["leaderboard", *scoring, "--runs", str(runs), "--metric", "p_at_k",
          "--depth", "2"],
         "system\tscore\tstd_error\tofficial_rank\n"
         "_overall_\t1.0000\t0.0000\t\nsysA\t0.5000\t0.0000\t\n"
         "sysB\t0.5000\t0.0000\t\n", []),
    ]
    for argv, expected, gaps in commands:
        capsys.readouterr()
        caplog.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, argv
        assert [m for m in caplog.messages
                if m.startswith("coverage gap")] == gaps, argv


# ---------------------------------------------------------------------------
# The pipeline through `main` on drawn inputs, every output checked against
# the brute-force oracles to the 4 decimals it prints.


@st.composite
def pipeline_inputs(draw):
    """Run files, a bank and an edit of it, passage texts, a rating
    fixture, a policy, a depth, and official judgments with the lowest
    grade that counts as relevant, over the queries and passages of the
    oracles' run files."""
    runs = {f"sys{i}": draw(run_files(f"sys{i}"))
            for i in range(draw(st.integers(1, 3)))}
    # The first query has questions; the others may have none.
    bank = QuestionBank({q: tuple(
        ExamQuestion(f"{q}/q/{i}", q, f"Question {i} of {q}?")
        for i in range(draw(st.integers(q == RUN_QUERIES[0], 3))))
        for q in RUN_QUERIES})
    untexted = draw(st.sets(st.sampled_from(RUN_PASSAGES), max_size=2))
    texts = {p: f"text of {p}" for p in RUN_PASSAGES if p not in untexted}
    ratings = draw(st.dictionaries(
        st.builds("{}/q/{}/{}".format, st.sampled_from(RUN_QUERIES),
                  st.integers(0, 2), st.sampled_from(RUN_PASSAGES)),
        st.sampled_from("012345")))
    policy_text = (f"rate:{draw(st.integers(1, 5))}"
                   + draw(st.sampled_from(["", "+min-answers=2"])))
    pairs = [(q, p) for q in RUN_QUERIES for p in RUN_PASSAGES]
    official = {pair: grade for pair, grade in zip(pairs, draw(st.lists(
        st.sampled_from([None, -2, 0, 1, 2, 3]), min_size=len(pairs),
        max_size=len(pairs)))) if grade is not None}
    return (runs, bank, draw(bank_edits(bank)), texts,
            {"default": "0", **ratings}, policy_text, draw(st.integers(1, 6)),
            official, draw(st.integers(1, 3)))


def std_error(scores):
    n = len(scores)
    if n < 2:
        return 0.0
    m = mean(scores)
    return math.sqrt(sum((v - m) ** 2 for v in scores.values())
                     / (n - 1) / n)


def cover_tsv(scores):
    return ("query\tcover\n"
            + "".join(f"{q}\t{scores[q]:.4f}\n" for q in sorted(scores))
            + f"mean\t{mean(scores):.4f}\n")


def agreement_tsv(name, labels, judgments, label_min, judgment_rel_min,
                  label_values=None):
    """One `agreement` table, labels (rows) against judgments (columns)
    over the pairs both hold, and its stderr line with the overall kappa
    ("" without one). A side keeps each of its values apart without a
    threshold, and splits them at the threshold with one. The label
    values are those the labels hold unless given."""
    def groups(values, threshold):
        ordered = sorted(set(values), reverse=True)
        if threshold is None:
            return [[v] for v in ordered]
        return [g for g in ([v for v in ordered if v >= threshold],
                            [v for v in ordered if v < threshold]) if g]

    rows = groups(labels.values() if label_values is None else label_values,
                  label_min)
    cols = groups(judgments.values(),
                  None if label_min is None else judgment_rel_min)
    common = labels.keys() & judgments.keys()
    counts = [[sum(labels[k] in row and judgments[k] in col for k in common)
               for col in cols] for row in rows]
    kappas, kappa_line = [""] * len(rows), ""
    if len(rows) == len(cols):
        overall, per_row = numpy_kappa(counts)
        if overall is not None and None not in per_row:
            kappas = [f"{k:.3f}" for k in per_row]
            kappa_line = f"{name}: kappa={overall:.3f}\n"
    name_of = "+".join
    lines = [["label", *(name_of(map(str, col)) for col in cols), "total",
              "kappa"]]
    lines += [[name_of(map(str, row)), *map(str, counts[i]),
               str(sum(counts[i])), kappas[i]] for i, row in enumerate(rows)]
    table = "".join("\t".join(line) + "\n" for line in lines)
    return f"# {name}\n{table}", kappa_line


def test_agreement_prints_each_overall_kappa(tmp_path, capsys):
    # A 3x3 graded table: its overall kappa differs from every row's.
    counts = [[5, 1, 0], [1, 4, 2], [0, 1, 6]]
    pairs = [(label, judgment) for i, label in enumerate((2, 1, 0))
             for j, judgment in enumerate((2, 1, 0))
             for _ in range(counts[i][j])]
    for name, side in (("labels", 0), ("judgments", 1)):
        (tmp_path / f"{name}.qrels").write_text("".join(
            f"q1 0 p{k} {pair[side]}\n" for k, pair in enumerate(pairs)))
    assert main(["agreement", "--labels", str(tmp_path / "labels.qrels"),
                 "--judgments", str(tmp_path / "judgments.qrels"),
                 "--collapse", "graded,strict,lenient"]) == 0
    graded, _ = numpy_kappa(counts)
    lenient, _ = numpy_kappa([[11, 2], [1, 6]])
    # No label reaches 4, so the strict table has one row and no kappa.
    assert capsys.readouterr().err == (f"graded: kappa={graded:.3f}\n"
                                       f"lenient: kappa={lenient:.3f}\n")


@given(pipeline_inputs())
@settings(max_examples=25, deadline=None)
def test_pipeline_outputs_match_oracles(inputs):
    (runs, bank, new_bank, texts, fixture, policy_text, depth, official,
     rel_min) = inputs
    policy = parse_policy(policy_text)
    rows = {tag: run_rows(text) for tag, text in runs.items()}
    # Every pooled passage with text, against each question of its query.
    grades = [rated(q, p, question.question_id, int(answer), answer)
              for q, pids in brute_force_pool(rows.values(), depth).items()
              for p in pids if p in texts
              for question in bank.questions_for(q)
              for answer in [fixture.get(f"{question.question_id}/{p}",
                                         fixture["default"])]]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "runs").mkdir()
        for tag, text in runs.items():
            (root / "runs" / f"{tag}.run").write_text(text)
        bank_path, passages, mock = (root / "bank.json",
                                     root / "passages.json", root / "mock.json")
        bank_path.write_text(save_question_bank(bank))
        (root / "new_bank.json").write_text(save_question_bank(new_bank))
        passages.write_text(json.dumps(texts))
        mock.write_text(json.dumps(fixture))
        stores = [root / f"grades_{n}.jsonl.gz" for n in (1, 4)]
        for parallelism, store in zip((1, 4), stores):
            assert main([
                "grade", "--bank", str(bank_path),
                "--runs", str(root / "runs"), "--passages", str(passages),
                "--mode", "rate", "--mock", str(mock), "--store", str(store),
                "--depth", str(depth),
                "--parallelism", str(parallelism)]) == 0
        assert stores[0].read_bytes() == stores[1].read_bytes()
        assert sorted(GradeStore(stores[0]).read().items()) == sorted(grades)
        scoring = ["--bank", str(bank_path), "--grades", str(stores[0]),
                   "--policy", policy_text]
        depth_flag = ["--depth", str(depth)]
        out = root / "out.tsv"

        covers = {tag: brute_force_cover(ranked, bank, grades, policy, depth)
                  for tag, ranked in rows.items()}
        for tag, scores in covers.items():
            assert main(["cover", *scoring, *depth_flag, "--run",
                         str(root / "runs" / f"{tag}.run"),
                         "--out", str(out)]) == 0
            assert out.read_text() == cover_tsv(scores)

        for graded in (False, True):
            assert main(["qrels", *scoring, *["--graded"] * graded,
                         "--out", str(root / "exam.qrels")]) == 0
            assert (root / "exam.qrels").read_text() == "".join(
                f"{q} 0 {p} {label}\n" for (q, p), label in sorted(
                    brute_force_qrels(grades, bank, policy, graded).items()))
        labels = brute_force_qrels(grades, bank, policy)

        # exam.qrels holds the graded labels now.
        (root / "official.qrels").write_text("".join(
            f"{q} 0 {p} {g}\n" for (q, p), g in official.items()))
        judgments = {pair: max(g, 0) for pair, g in official.items()}
        with contextlib.redirect_stderr(io.StringIO()) as err:
            exit_code = main([
                "agreement", *scoring, "--labels", str(root / "exam.qrels"),
                "--judgments", str(root / "official.qrels"),
                "--collapse", "graded,lenient,strict",
                "--judgment-rel-min", str(rel_min), "--min-answers", "1,2",
                "--out", str(out)])
        if not labels.keys() & judgments.keys():
            assert exit_code == 1
        else:
            assert exit_code == 0
            graded_labels = brute_force_qrels(grades, bank, policy, True)
            tables = [agreement_tsv(name, graded_labels, judgments,
                                    label_min, rel_min)
                      for name, label_min in (("graded", None),
                                              ("lenient", 1), ("strict", 4))]
            tables += [agreement_tsv(
                f"binary-min-answers-{n}", brute_force_qrels(
                    grades, bank, replace(policy, min_answers=n)),
                judgments, 1, rel_min, label_values={0, 1}) for n in (1, 2)]
            assert out.read_text() == "\n".join(t for t, _ in tables)
            assert err.getvalue() == "".join(k for _, k in tables)

        assert main(["diff", "--old", str(bank_path),
                     "--new", str(root / "new_bank.json"),
                     "--grades", str(stores[0]), "--policy", policy_text,
                     "--out", str(out)]) == 0
        assert out.read_text() == "".join(
            brute_force_diff(bank, new_bank, grades, policy)
            or ["no differences\n"])

        expected = {
            "cover": {**covers, "_overall_": brute_force_pooled_cover(
                rows.values(), bank, grades, policy, depth)},
            "p_at_k": {
                **{tag: brute_force_precision(ranked, labels, depth)
                   for tag, ranked in rows.items()},
                "_overall_": brute_force_pooled_precision(
                    rows.values(), labels, depth, depth)},
        }
        for metric, per_system in expected.items():
            assert main(["leaderboard", *scoring, *depth_flag,
                         "--runs", str(root / "runs"), "--metric", metric,
                         "--out", str(out)]) == 0
            header, *body = out.read_text().splitlines(keepends=True)
            assert header == "system\tscore\tstd_error\tofficial_rank\n"
            # Two systems that tie in exact arithmetic may differ in the
            # last bit of a float, so only the printed order is checked.
            assert sorted(body) == sorted(
                f"{system}\t{mean(s):.4f}\t{std_error(s):.4f}\t\n"
                for system, s in per_system.items())
            printed = [float(line.split("\t")[1]) for line in body]
            assert printed == sorted(printed, reverse=True)
