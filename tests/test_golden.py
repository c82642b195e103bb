"""Golden fixture pipeline: every command's files, stdout and stderr, byte
for byte.

The pipeline runs the `test_cli.py` inputs, plus a third run and an
official qrels file with negative grades, through every command on the
mock backend. Each output is compared with its file under `golden/`; grade
stores are compared decompressed. After an intended change of output,
rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""
import gzip
import io
import json
import logging
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from exam_eval import formats, gateway, grading, model
from exam_eval.cli import main
from test_cli import write_pipeline_inputs

GOLDEN = Path(__file__).parent / "golden"

RUN_C = ("q1 Q0 pA2 1 9.0 sysC\n"
         "q2 Q0 pB1 1 9.0 sysC\nq2 Q0 pA1 2 8.0 sysC\n")

# Official judgments: negative grades, and a judged passage without text.
JUDGMENTS = ("q1 0 pA1 2\nq1 0 pA2 0\nq1 0 pB1 -1\nq1 0 pX9 1\n"
             "q2 0 pA1 1\nq2 0 pA2 -2\nq2 0 pB1 3\n")

OFFICIAL_RANKS = {"sysA": 1, "sysB": 3, "sysC": 2}


def _write_inputs(root: Path) -> None:
    write_pipeline_inputs(root)
    (root / "runs" / "sysC.run").write_text(RUN_C)
    (root / "official.json").write_text(json.dumps(OFFICIAL_RANKS))
    (root / "judgments.qrels").write_text(JUDGMENTS)


def _derived_banks(out: Path) -> None:
    """A qa bank (gold answers on every first question) and an edited bank
    (one question removed, one reworded, one added), from the generated
    bank."""
    doc = json.loads((out / "bank.json").read_text())
    for entry in doc["queries"]:
        for q in entry["questions"]:
            if q["question_id"].endswith("/0"):
                q["gold_answer"] = "fully answers it"
    (out / "bank_qa.json").write_text(json.dumps(doc))
    doc = json.loads((out / "bank.json").read_text())
    q1, q2 = doc["queries"]
    q1["questions"].pop()
    q2["questions"][0]["text"] = "A reworded first question?"
    q2["questions"].append({"question_id": "q2/q/2", "text": "New one?",
                            "facet_id": None, "gold_answer": None})
    (out / "bank_edited.json").write_text(json.dumps(doc))


def _steps(root: Path, out: Path) -> list[tuple[str, list[str]]]:
    runs, bank = str(root / "runs"), str(out / "bank.json")
    rate = str(out / "grades_rate.jsonl.gz")
    qa = str(out / "grades_qa.jsonl.gz")
    judgments = str(root / "judgments.qrels")
    official = str(root / "official.json")
    grade = ["grade", "--runs", runs,
             "--passages", str(root / "passages.json"),
             "--mock", str(root / "grade_mock.json")]
    steps = [
        ("generate", ["generate", "--queries", str(root / "queries.json"),
                      "--template", "dl", "--mock",
                      str(root / "gen_mock.json"), "--out", bank]),
        ("grade-rate", grade + ["--bank", bank, "--mode", "rate",
                                "--store", rate]),
        ("grade-rate-rerun", grade + ["--bank", bank, "--mode", "rate",
                                      "--store", rate]),
        ("grade-qa", grade + ["--bank", str(out / "bank_qa.json"),
                              "--mode", "qa", "--qrels", judgments,
                              "--store", qa, "--depth", "1"]),
        ("qrels-binary", ["qrels", "--bank", bank, "--grades", rate,
                          "--policy", "rate:4",
                          "--out", str(out / "exam.qrels")]),
        ("qrels-graded", ["qrels", "--bank", bank, "--grades", rate,
                          "--policy", "rate:4", "--graded",
                          "--out", str(out / "exam_graded.qrels")]),
        ("qrels-min-answers", ["qrels", "--bank", bank, "--grades", rate,
                               "--policy", "rate:1+min-answers=2"]),
        ("qrels-qa", ["qrels", "--bank", str(out / "bank_qa.json"),
                      "--grades", qa, "--policy", "qa"]),
    ]
    for system in ("sysA", "sysB", "sysC"):
        steps.append((f"cover-{system}", [
            "cover", "--bank", bank,
            "--run", str(root / "runs" / f"{system}.run"),
            "--grades", rate, "--policy", "rate:4"]))
    steps.append(("cover-qa-depth-1", [
        "cover", "--bank", str(out / "bank_qa.json"),
        "--run", str(root / "runs" / "sysB.run"), "--grades", qa,
        "--policy", "qa", "--depth", "1"]))
    for metric, depth in (("cover", "20"), ("p_at_k", "2")):
        steps.append((f"leaderboard-{metric}", [
            "leaderboard", "--bank", bank, "--runs", runs, "--grades", rate,
            "--policy", "rate:4", "--metric", metric, "--depth", depth,
            "--official", official]))
    for fmt in ("tsv", "table"):
        steps.append((f"agreement-{fmt}", [
            "agreement", "--labels", str(out / "exam_graded.qrels"),
            "--judgments", judgments,
            "--collapse", "graded,lenient,strict,binary", "--format", fmt]))
    steps += [
        ("agreement-min-answers", [
            "agreement", "--judgments", judgments, "--min-answers", "1,2,5",
            "--grades", rate, "--bank", bank, "--policy", "rate:4",
            "--judgment-rel-min", "2"]),
        ("diff", ["diff", "--old", bank,
                  "--new", str(out / "bank_edited.json"),
                  "--grades", rate, "--policy", "rate:4+min-answers=2"]),
    ]
    return steps


def run_golden_pipeline(root: Path) -> dict[str, bytes]:
    """Every output of the pipeline run in `root`, by golden file name."""
    _write_inputs(root)
    out = root / "out"
    out.mkdir()
    # Log records go to the step's stderr in one format, whatever the
    # logging set-up of the calling process.
    logger = logging.getLogger("exam_eval")
    saved = logger.level, logger.propagate
    logger.setLevel(logging.INFO)
    logger.propagate = False
    streams = []
    try:
        for name, argv in _steps(root, out):
            stdout, stderr = io.StringIO(), io.StringIO()
            handler = logging.StreamHandler(stderr)
            handler.setFormatter(
                logging.Formatter("%(levelname)s %(name)s: %(message)s"))
            logger.addHandler(handler)
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = main(argv)
            finally:
                logger.removeHandler(handler)
            streams.append(f"== {name} (exit {code})\n"
                           f"-- stdout\n{stdout.getvalue()}"
                           f"-- stderr\n{stderr.getvalue()}")
            if name == "generate":
                _derived_banks(out)
    finally:
        logger.setLevel(saved[0])
        logger.propagate = saved[1]
    text = "".join(streams).replace(str(root), "<root>")
    outputs = {"streams.txt": re.sub(r" in \d+\.\ds", " in <t>s", text)}
    for path in sorted(out.iterdir()):
        if path.name.startswith("bank_"):
            continue            # inputs derived in the test
        data = path.read_bytes()
        if path.suffix == ".gz":
            outputs[path.stem] = gzip.decompress(data)
        else:
            outputs[path.name] = data
    return {name: data.encode() if isinstance(data, str) else data
            for name, data in outputs.items()}


def _stored_keys(path: str | None) -> set[tuple]:
    """The keys of a grade store, read without `GradeStore.read`."""
    if path is None or not Path(path).exists():
        return set()
    return {tuple(json.loads(line)[field] for field in (
                "query_id", "passage_id", "question_id", "mode"))
            for line in gzip.decompress(Path(path).read_bytes()).splitlines()}


def _skip_logged(path: str | None) -> set[tuple]:
    """The (query, passage) pairs of a grade store's skip-log."""
    log_path = path and Path(path).with_suffix(".skipped.jsonl")
    if not log_path or not log_path.exists():
        return set()
    return {(entry["query_id"], entry["passage_id"]) for entry in
            map(json.loads, log_path.read_text().splitlines())}


# The functions whose calls a step's cost depends on, by their count's name;
# `Run.top_k` is counted by run tag and query.
COUNTED = {"read": (formats.GradeStore, "read"),
           "append": (formats.GradeStore, "append"),
           "parse_run_file": (formats, "parse_run_file"),
           "complete": (gateway.MockBackend, "complete"),
           "build_passage_pool": (grading, "build_passage_pool"),
           "split_context": (gateway, "split_context"),
           "top_k": (model.Run, "top_k")}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The pipeline's outputs, and for each step its argv, how many times
    it called each `COUNTED` function and missed `gateway._fixed_tokens`'s
    cache, the keys it added to its grade store, and the (query, passage)
    pairs it skip-logged."""
    steps, cli_main = [], main

    def count(name, call):
        def counted(*args, **kwargs):
            key = ((name, args[0].run_tag, args[1]) if name == "top_k"
                   else name)
            steps[-1][1][key] += 1
            return call(*args, **kwargs)
        return counted

    def step(argv):
        store = argv[argv.index("--store") + 1] if "--store" in argv else None
        before = _stored_keys(store)
        steps.append((argv, Counter()))
        # Each command runs in a process of its own.
        gateway._fixed_tokens.cache_clear()
        code = cli_main(argv)
        steps[-1][1]["_fixed_tokens"] = \
            gateway._fixed_tokens.cache_info().misses
        steps[-1] += (_stored_keys(store) - before, _skip_logged(store))
        return code

    with pytest.MonkeyPatch.context() as patch:
        for name, (owner, attr) in COUNTED.items():
            patch.setattr(owner, attr, count(name, getattr(owner, attr)))
        patch.setattr(sys.modules[__name__], "main", step)
        outputs = run_golden_pipeline(tmp_path_factory.mktemp("golden"))
    return outputs, steps


@pytest.fixture(scope="module")
def outputs(pipeline):
    return pipeline[0]


def _runs_and_queries(argv: list[str]) -> tuple[int, Counter]:
    """How many run files a command reads, and a `top_k` count of one for
    each of their (run tag, query) pairs, read without `parse_run_file`."""
    if "--runs" in argv:
        paths = list(Path(argv[argv.index("--runs") + 1]).iterdir())
    else:
        paths = [Path(argv[argv.index("--run") + 1])] if "--run" in argv \
            else []
    pairs = {(columns[5], columns[0]) for path in paths
             for columns in map(str.split, path.read_text().splitlines())}
    return len(paths), Counter({("top_k", *pair): 1 for pair in pairs})


def test_each_step_does_its_costly_work_once(pipeline):
    # Promises that need no clock: a command reads its grade store once
    # and each run file once, builds each pool once, and takes each run's
    # top passages once per query and pool. `grade` appends once, requests
    # each pair it grades once, renders each question's prompt without
    # context once, and splits each passage with a pair to grade once.
    for argv, calls, added, skipped in pipeline[1]:
        runs, top_k = _runs_and_queries(argv)
        expected = Counter(read=int("--grades" in argv or "--store" in argv),
                           parse_run_file=runs)
        if argv[0] == "grade":
            bank = json.loads(Path(argv[argv.index("--bank") + 1]).read_text())
            text_of = {q["question_id"]: q["text"] for entry in bank["queries"]
                       for q in entry["questions"]}
            expected.update(
                append=1, complete=len(added), build_passage_pool=1,
                _fixed_tokens=len({text_of[key[2]] for key in added}),
                split_context=len({key[:2] for key in added} | skipped))
            expected.update(top_k)
        elif argv[0] == "cover":
            expected.update(build_passage_pool=1)
            expected.update(top_k)
        elif argv[0] == "leaderboard":
            # A pool per run's row and one for the `_overall_` row, which
            # takes every run's top passages again.
            expected.update(build_passage_pool=runs + 1)
            expected.update(top_k + top_k)
        elif argv[0] == "generate":
            del calls["complete"]       # one request per query, not a pair
        assert +calls == expected, argv


def test_every_output_has_a_golden_file(outputs):
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.glob("*"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*")))
def test_output_matches_golden(outputs, name):
    expected = (GOLDEN / name).read_bytes()
    if outputs.get(name) != expected:
        # Compare as text first for a readable diff.
        assert outputs.get(name, b"").decode() == expected.decode()
    assert outputs[name] == expected


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_golden_pipeline(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for name, data in fresh.items():
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(fresh)} files to {GOLDEN}", file=sys.stderr)
