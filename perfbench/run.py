"""The exam-eval benchmark: one command, three workloads.

    python3 perfbench/run.py --workload scoring-large --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --size smoke --seed 1

Run from the root of a checkout. The benchmark writes seeded synthetic
inputs under `.perfbench_work/`, measures interpreter start-up, then runs
the workload's commands through `exam_eval.cli.main` in rounds inside one
child process for `--seconds`, and checks every output against values
computed from the inputs alone. The last stdout line is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The exit code is 0
only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import oracle
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = {"full": 3, "smoke": 1}
LIMIT_S = 170


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def program_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
    env.pop("EXAM_EVAL_API_KEY", None)
    return env


# ---------------------------------------------------------------------------
# Start-up


HELP = "import sys; from exam_eval.cli import main; sys.exit(main(['--help']))"


def measure_setup(env: dict, samples: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter returning from --help,
    as measured and at the reference speed (`speed.py`)."""
    measured, scaled = [], []
    for _ in range(samples):
        before = speed.probe(measured[-1] if measured else 0.0)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", HELP], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        measured.append(time.perf_counter() - start)
        scaled.append(speed.scaled(measured[-1], speed.around(
            before, speed.probe(measured[-1]))))
    return statistics.median(measured), statistics.median(scaled)


def import_times(env: dict, samples: int) -> dict[str, float]:
    """Cumulative import seconds of scipy and of exam_eval, medians of
    `python -X importtime` runs. A package's time is the sum over its
    modules that no module of the same package imported."""
    totals: dict[str, list[float]] = {"scipy": [], "exam_eval": []}
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import exam_eval.cli"], env=env, check=True,
            capture_output=True, text=True)
        # importtime prints a module after its imports, one level deeper.
        entries: list[tuple[int, str, float]] = []
        parent: dict[int, int] = {}
        stack: list[int] = []
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            depth, index = len(m[2]), len(entries)
            while stack and entries[stack[-1]][0] > depth:
                parent[stack.pop()] = index
            entries.append((depth, m[3].split(".")[0], int(m[1]) / 1e6))
            stack.append(index)
        for package, values in totals.items():
            total = 0.0
            for i, (_, name, seconds) in enumerate(entries):
                j = parent.get(i)
                while j is not None and entries[j][1] != name:
                    j = parent.get(j)
                if name == package and j is None:
                    total += seconds
            values.append(total)
    return {f"setup.import_{p}_s": statistics.median(v)
            for p, v in totals.items()}


# ---------------------------------------------------------------------------
# The plan: one round of operations


def plan_ops(case: workloads.Case, endpoint: str | None) -> list[dict]:
    shape = case.shape
    http = shape.backend == "http"
    if http:
        backend = ["--endpoint", endpoint, "--model", "stub",
                   "--parallelism", str(nproc())]
        gen_backend = grade_backend = backend
    else:
        gen_backend = ["--mock", "gen_fixture.json"]
        grade_backend = ["--mock", "grade_fixture.json"]
    bank = "bank_gen.json" if http else "bank.json"
    store = "store.jsonl.gz" if shape.prebuilt_store else "fresh.jsonl.gz"
    mode = shape.mode
    depth = str(shape.depth)
    grade_args = ["--bank", bank, "--passages", "passages.json",
                  "--mode", mode, "--depth", depth,
                  "--max-input-tokens", str(shape.max_input_tokens),
                  *grade_backend]
    scoring = ["--bank", bank, "--grades", store, "--policy", shape.policy]
    ops = [
        {"name": "generate", "outputs": ["bank_gen.json"],
         "argv": ["generate", "--queries", "queries.json", "--template",
                  "car", "--out", "bank_gen.json", *gen_backend]},
        {"name": "grade", "clear": ["fresh.jsonl.gz"],
         "outputs": ["fresh.jsonl.gz"],
         "argv": ["grade", *grade_args, "--store", "fresh.jsonl.gz",
                  "--runs", "new_run" if shape.prebuilt_store else "runs"]},
        {"name": "resume", "unchanged": store,
         "argv": ["grade", *grade_args, "--store", store, "--runs", "runs"]},
        {"name": "cover", "outputs": ["cover.tsv"],
         "argv": ["cover", *scoring, "--run", "runs/sys00.run",
                  "--depth", depth, "--out", "cover.tsv"]},
        {"name": "qrels", "outputs": ["qrels.txt"],
         "argv": ["qrels", *scoring, "--out", "qrels.txt"]},
    ]
    if mode == "rate":
        ops.append({"name": "qrels_graded", "outputs": ["qrels_graded.txt"],
                     "argv": ["qrels", *scoring, "--graded",
                              "--out", "qrels_graded.txt"]})
    leaderboard = ["leaderboard", *scoring, "--runs", "runs", "--depth", depth,
                   "--official", "official_ranks.json"]
    ops += [
        {"name": "leaderboard_cover", "outputs": ["lb_cover.tsv"],
         "argv": [*leaderboard, "--metric", "cover", "--out", "lb_cover.tsv"]},
        # The README documents `--metric p_at_k`; the CLI accepts only p20.
        {"name": "leaderboard_p_at_k", "outputs": ["lb_p.tsv"],
         "known_fault": r"Invalid value for '--metric': 'p_at_k'",
         "argv": [*leaderboard, "--metric", "p_at_k", "--out", "lb_p.tsv"],
         "fallback": [*leaderboard, "--metric", "p20", "--out", "lb_p.tsv"]},
        {"name": "agreement", "outputs": ["agreement.tsv"],
         "argv": ["agreement", "--labels", "labels.qrels",
                  "--judgments", "official.qrels",
                  "--collapse", "graded,lenient,strict",
                  "--min-answers", "1,2,5", *scoring,
                  "--out", "agreement.tsv"]},
        {"name": "diff", "outputs": ["diff.tsv"],
         "argv": ["diff", "--old", bank, "--new", "bank_rev.json",
                  "--grades", store, "--policy", shape.policy,
                  "--out", "diff.tsv"]},
    ]
    if case.braces:
        # A passage containing `{braces}` aborts the whole grade command.
        ops.append({"name": "grade_braces",
                    "known_fault": r"error: template 'qa' left unbound "
                                   r"placeholders",
                    "clear": ["braces/store.jsonl.gz"],
                    "outputs": ["braces/store.jsonl.gz"],
                    "argv": ["grade", "--bank", "braces/bank.json",
                             "--runs", "braces/runs",
                             "--passages", "braces/passages.json",
                             "--mode", "qa", "--depth", "1",
                             "--max-input-tokens",
                             str(shape.max_input_tokens),
                             "--store", "braces/store.jsonl.gz",
                             "--mock", "braces/fixture.json"]})
    return ops


def plan_blocks(case: workloads.Case, ops: list[dict]) -> list[dict]:
    """Consecutive operations grouped by whether they repeat in a round."""
    blocks: list[dict] = []
    repeats = dict(case.shape.repeats)
    for op in ops:
        repeat = repeats.get(op["name"], 1)
        if blocks and blocks[-1]["repeat"] == repeat:
            blocks[-1]["ops"].append(op)
        else:
            blocks.append({"repeat": repeat, "ops": [op]})
    return blocks


# ---------------------------------------------------------------------------
# Checks


def check(case: workloads.Case, work: Path, ops: list[dict], result: dict,
          stub_stats: dict | None) -> list[str]:
    expected = oracle.Expected(case)
    last = result["last"]
    rounds = result["rounds"]
    errors = list(result["mismatches"])
    for op in ops:
        for i, rec in ((i, rec) for i, rnd in enumerate(rounds)
                       for rec in rnd["ops"][op["name"]]):
            # A known fault must fail for its own cause and no other.
            cause = op.get("known_fault")
            if rec["rc"] != 0 and not (cause and re.search(cause,
                                                           rec["failure"])):
                errors.append(f"round {i}: {op['name']} exited {rec['rc']}: "
                              f"{rec['failure'][-300:]}")
            if rec.get("fallback_rc", 0) != 0:
                errors.append(f"round {i}: {op['name']} fallback exited "
                              f"{rec['fallback_rc']}")
            if rec.get("unchanged") is False:
                errors.append(f"round {i}: {op['name']} changed its store")
    if errors:
        return errors

    text = lambda name: (work / name).read_text()
    errors += oracle.check_generated_bank(work / "bank_gen.json", case)
    errors += oracle.check_grade_summary(
        last["grade"]["out"], len(case.fresh_grades), 0, "grade")
    errors += oracle.check_store(work / "fresh.jsonl.gz", case.fresh_grades,
                                 case.shape.mode, "grade")
    errors += oracle.check_grade_summary(
        last["resume"]["out"], 0, len(case.grades), "resume")
    errors += oracle.check_cover(text("cover.tsv"), expected.run_cover("sys00"))
    if text("qrels.txt") != expected.qrels_text(expected.binary_labels()):
        errors.append("qrels: binary labels differ")
    if case.shape.mode == "rate" and text("qrels_graded.txt") != \
            expected.qrels_text(expected.graded_labels()):
        errors.append("qrels --graded: labels differ")
    errors += oracle.check_leaderboard(
        text("lb_cover.tsv"), last["leaderboard_cover"]["err"], expected,
        "cover")
    errors += oracle.check_leaderboard(
        text("lb_p.tsv"), last["leaderboard_p_at_k"]["err"], expected, "p_at_k")
    errors += oracle.check_agreement(text("agreement.tsv"),
                                     oracle.expected_agreement(expected))
    if text("diff.tsv") != oracle.expected_diff(case):
        errors.append("diff: report differs from the generated revision")
    if case.braces and rounds[-1]["ops"]["grade_braces"][-1]["rc"] == 0:
        errors += oracle.check_store(work / "braces/store.jsonl.gz",
                                     case.braces["grades"], "qa", "braces")
    if stub_stats is not None:
        runs = lambda name: sum(len(r["ops"][name]) for r in rounds)
        if stub_stats["max_open_connections"] > nproc():
            errors.append(f"stub: {stub_stats['max_open_connections']} "
                          f"connections open at once, more than {nproc()}")
        # Each HTTP command's client keeps at most one connection per
        # worker; one more is this check's own GET /stats.
        most = nproc() * (runs("generate") + runs("grade")) + 1
        if stub_stats["connections"] > most:
            errors.append(f"stub: {stub_stats['connections']} connections "
                          f"opened, more than {most}")
        want = {"gen": runs("generate") * case.generation_prompts,
                "grade": runs("grade") * len(case.fresh_grades), "other": 0}
        if stub_stats["counts"] != want:
            errors.append(f"stub: received {stub_stats['counts']}, "
                          f"expected {want}")
    return errors


# ---------------------------------------------------------------------------
# Metrics


def op_seconds(rec: dict) -> float:
    return rec["fallback_s"] if "fallback_s" in rec else rec["s"]


def samples(rounds: list[dict], traced: bool, *names: str,
            scale: bool = False) -> list[float]:
    """Seconds of each run of the named operations, summed across names
    run by the same repetition, from the measured untraced or traced
    rounds; with `scale`, each run at the reference speed (`speed.py`)."""
    seconds = lambda r: (speed.scaled(op_seconds(r), r["speed"]) if scale
                         else op_seconds(r))
    out = []
    for rnd in rounds:
        if rnd["traced"] == traced and not rnd["warmup"]:
            runs = [rnd["ops"][n] for n in names if n in rnd["ops"]]
            out += [sum(seconds(r) for r in recs) for recs in zip(*runs)]
    return out


def op_medians(rounds: list[dict], traced: bool) -> dict[str, float]:
    return {name: statistics.median(samples(rounds, traced, name))
            for name in rounds[0]["ops"]}


def end_to_end(case: workloads.Case, result: dict,
               setup: tuple[float, float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same as measured.

    Each time is the median over a command's measured runs, each run at
    the reference speed. On grading-http `grade` and `generate` mostly
    wait for the stub, so their throughput is reported as measured."""
    waits = case.shape.backend == "http"

    def values(scale: bool) -> dict[str, float]:
        def med(*names: str, scale: bool = scale) -> float:
            return statistics.median(
                samples(result["rounds"], False, *names, scale=scale))
        rate_scale = scale and not waits
        return {
            "setup_s": setup[scale],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "grade_pairs_per_s":
                len(case.fresh_grades) / med("grade", scale=rate_scale),
            "generate_prompts_per_s":
                case.generation_prompts / med("generate", scale=rate_scale),
            "resume_s": med("resume"),
            "cover_s": med("cover"),
            "qrels_s": med("qrels", "qrels_graded"),
            "leaderboard_cover_s": med("leaderboard_cover"),
            "leaderboard_p_at_k_s": med("leaderboard_p_at_k"),
            "agreement_s": med("agreement"),
            "diff_s": med("diff"),
        }
    metrics = {name: {"value": v, "unit": E2E_UNITS[name]}
               for name, v in values(True).items()}
    return metrics, values(False)


E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
             "grade_pairs_per_s": "pairs/s",
             "generate_prompts_per_s": "prompts/s",
             **{name: "s" for name in (
                 "resume_s", "cover_s", "qrels_s", "leaderboard_cover_s",
                 "leaderboard_p_at_k_s", "agreement_s", "diff_s")}}


def per_layer(case: workloads.Case, result: dict, spans: list,
              stub_stats: dict | None, parallelism: int,
              imports: dict[str, float]) -> dict:
    service = None
    if stub_stats is not None:
        by_prompt: dict[str, list[float]] = {}
        for prompt, seconds in stub_stats["served"]:
            by_prompt.setdefault(prompt, []).append(seconds)
        service = {k: statistics.fmean(v) for k, v in by_prompt.items()}
    values = tracing.summarize(spans, parallelism, service)
    fresh_runs = sum(len(r["ops"]["grade"]) for r in result["rounds"])
    pairs = len(case.fresh_grades)
    if stub_stats is not None:
        values["gateway.backend.requests_per_pair"] = (
            stub_stats["counts"]["grade"] / (fresh_runs * pairs))
    else:
        grade_calls = sum(1 for s in spans if s[0] == "gateway.backend.complete"
                          and s[4] in ("grade", "resume"))
        traced_runs = sum(len(r["ops"]["grade"]) for r in result["rounds"]
                          if r["traced"])
        values["gateway.backend.requests_per_pair"] = (
            grade_calls / (traced_runs * pairs))
    values.update(imports)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "requests_per_pair")):
        return "ratio"
    if name == "formats.store_bytes_per_grade":
        return "bytes"
    return "count"


PER_LAYER = [
    "formats.parse_run_file.s", "formats.GradeStore.read.s",
    "formats.GradeStore.read.grades", "formats.store_bytes_per_grade",
    "formats.GradeStore.append.s", "formats.parse_qrels.s",
    "formats.write_qrels.s", "model.Run.top_k.calls", "model.Run.top_k.s",
    "grading.build_passage_pool.s", "grading.grade_corpus.pairs_graded",
    "grading.grade_corpus.pairs_skipped", "grading.grade_pair.self_s",
    "grading.verify_answer.calls", "grading.verify_answer.s",
    "grading.parse_self_rating.s", "gateway.truncate_context.s",
    "gateway.truncate_context.calls",
    "gateway.truncate_context.truncated_share", "gateway.render.s",
    "gateway.backend.latency_p50_ms", "gateway.backend.latency_p99_ms",
    "gateway.backend.overhead_ms", "gateway.backend.requests_per_pair",
    "gateway.worker_busy_share", "bank.generate_bank.s", "bank.diff_banks.s",
    "metrics.exam_cover.calls", "metrics.exam_cover.s",
    "metrics.leaderboard.self_s", "metrics.correlation_stats.s",
    "metrics.build_qrels.s", "metrics.precision_at_k.s",
    "metrics.min_answers_sweep.self_s", "metrics.confusion_table.s",
    *(f"cli.{c}.self_s" for c in tracing.CLI_COMMANDS),
    "setup.import_scipy_s", "setup.import_exam_eval_s",
]
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


# ---------------------------------------------------------------------------
# One run


class StubProcess:
    """The loopback stub process, stopped and waited for on exit."""

    def __init__(self, case: workloads.Case, workers: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(case.seed),
             "--latency-ms", str(case.shape.latency_ms),
             "--workers", str(workers),
             "--questions-per-facet", str(case.shape.questions_per_facet)],
            stdout=subprocess.PIPE, text=True)
        self.port = int(self.proc.stdout.readline())
        self.url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{self.url}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_workload(name: str, size: str, seed: int, seconds: float,
                 trace: bool, root: Path, keep: bool
                 ) -> tuple[dict, list[str], int, int]:
    work = root / ".perfbench_work" / f"{name}-{size}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run_workload(name, size, seed, seconds, trace, root, work)
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:     # other runs' directories are still there
                pass


def _run_workload(name, size, seed, seconds, trace, root, work):
    started = time.perf_counter()
    env = program_env(root / "src")
    case = workloads.build(name, size, seed)
    case.write(work)
    expected = oracle.Expected(case)
    (work / "labels.qrels").write_text(
        expected.qrels_text(expected.agreement_labels()))

    stub = StubProcess(case, nproc()) if case.shape.backend == "http" else None
    stub_stats = None
    try:
        ops = plan_ops(case, stub and f"{stub.url}/v1/completions")
        plan = {"blocks": plan_blocks(case, ops), "seconds": seconds,
                "trace": trace, "spans": str(work / "spans.json")}
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        budget = LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(plan_path)],
            cwd=work, env=env, timeout=budget,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return {}, [f"child exited {proc.returncode}: "
                        f"{proc.stderr[-2000:]}"], 0, 0
        result = json.loads(plan_path.with_suffix(".result.json").read_text())
        if stub:
            stub_stats = stub.stats()
    finally:
        if stub:
            stub.close()

    # Start-up is measured after the child, whose imports have written
    # the bytecode cache that every later invocation reads.
    if trace:
        imports = import_times(env, SETUP_SAMPLES[size])
    else:
        setup = measure_setup(env, SETUP_SAMPLES[size])

    errors = check(case, work, ops, result, stub_stats)
    attempted = failed = 0
    for rnd in result["rounds"]:
        for rec in (r for recs in rnd["ops"].values() for r in recs):
            attempted += 1 + ("fallback_rc" in rec)
            failed += (rec["rc"] != 0) + (rec.get("fallback_rc", 0) != 0)
    if trace:
        spans = json.loads((work / "spans.json").read_text())
        parallelism = nproc() if case.shape.backend == "http" else 1
        metrics = per_layer(case, result, spans, stub_stats, parallelism,
                            imports)
        untraced = op_medians(result["rounds"], False)
        traced = op_medians(result["rounds"], True)
        for op in untraced:
            print(f"{name} trace overhead {op}: untraced {untraced[op]:.4f} s, "
                  f"traced {traced[op]:.4f} s")
    else:
        metrics, measured = end_to_end(case, result, setup)
        print(f"{name} as measured: " + ", ".join(
            f"{k} {v:.6g}" for k, v in measured.items()))
    print(f"{name}: {len(result['rounds'])} rounds, {attempted} commands, "
          f"{failed} failed, {time.perf_counter() - started:.1f} s")
    return metrics, errors, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time after a warm-up round; 25 by "
                             "default, 0 (one measured round) for --size smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SHAPES),
                        default="full")
    parser.add_argument("--keep", action="store_true",
                        help="keep the generated inputs and outputs")
    args = parser.parse_args()
    # A terminated run still stops the stub and the child and removes its
    # work directory, through the `finally` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "exam_eval" / "cli.py").is_file():
        print(f"error: {root} holds no src/exam_eval; run from the root of "
              "an exam-eval checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.size == "smoke" else 25
    all_ok = True
    for name in names:
        metrics, errors, attempted, failed = run_workload(
            name, args.size, args.seed, seconds, bool(args.trace),
            root, args.keep)
        for error in errors:
            print(f"{name}: CHECK FAILED: {error}", file=sys.stderr)
        for metric, v in metrics.items():
            print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
        all_ok = all_ok and not errors
        print(json.dumps({"correct": not errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
