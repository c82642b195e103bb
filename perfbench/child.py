"""Runs a plan of CLI commands in rounds inside one interpreter.

    PYTHONPATH=<checkout>/src python3 perfbench/child.py plan.json

A round runs each block of the plan `repeat` times, and each block runs
its operations in order through `exam_eval.cli.main`, timing each call.
After one unmeasured warm-up round, rounds repeat until the plan's seconds
have passed, always ending with a whole round. Right before and after
each command a reference loop measures the machine's speed (`speed.py`),
and garbage is collected before it. Every run of an
operation must leave the same output files and print the same text as its
first run. With tracing on,
untraced and traced rounds alternate and the traced rounds record spans.
The result is written as JSON next to the plan.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import logging
import re
import resource
import sys
import time
from pathlib import Path

import speed

DURATION = re.compile(r" in [0-9.]+s\b")


def digest(path: Path) -> str | None:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def clear(path: Path) -> None:
    for p in (path, path.with_name(path.name + ".lock"),
              path.with_suffix(".skipped.jsonl")):
        p.unlink(missing_ok=True)


def call(main, argv: list[str]) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def run_op(main, op: dict, tracer, last_s: dict[str, float]) -> dict:
    """One operation: its command, and the fallback command if it failed.
    `last_s` holds each operation's previous time, which sizes the speed
    probe before it."""
    for path in op.get("clear", []):
        clear(Path(path))
    before = digest(Path(op["unchanged"])) if op.get("unchanged") else None
    gc.collect()
    probe_before = speed.probe(last_s.get(op["name"], 0.0))

    def traced(argv):
        if tracer is None:
            return call(main, argv)
        with tracer.command(argv[0], op["name"]):
            return call(main, argv)

    rc, elapsed, out, err = traced(op["argv"])
    record = {"rc": rc, "s": elapsed, "out": out, "err": err}
    if rc != 0:
        # Kept apart, so that a fallback's output does not hide the cause.
        record["failure"] = err[-2000:]
    if rc != 0 and op.get("fallback"):
        rc, elapsed, out, err = traced(op["fallback"])
        record.update(fallback_rc=rc, fallback_s=elapsed, out=out, err=err)
    if op.get("unchanged"):
        record["unchanged"] = digest(Path(op["unchanged"])) == before
    last_s[op["name"]] = record["s"] + record.get("fallback_s", 0)
    record["speed"] = speed.around(probe_before,
                                   speed.probe(last_s[op["name"]]))
    return record


def main() -> int:
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text())
    # A handler on the real stderr before the program's own basicConfig
    # runs, so that capturing a command's stderr never captures logging.
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    # Python prints a warning once per process; through logging it stays
    # out of the captured stderr, which must read the same on every run.
    logging.captureWarnings(True)
    from exam_eval import cli
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
    rounds: list[dict] = []
    first: dict[str, tuple] = {}
    mismatches: list[str] = []
    last: dict[str, dict] = {}
    last_s: dict[str, float] = {}
    # Round 0 warms up (lazy imports, allocator arenas) and is not
    # measured; with tracing, measured rounds alternate untraced and traced.
    deadline = None
    while (deadline is None or time.perf_counter() < deadline
           or len(rounds) < (3 if tracer else 2)):
        traced = bool(tracer) and len(rounds) > 0 and len(rounds) % 2 == 0
        if traced:
            tracer.install(len(rounds))
        samples: dict[str, list[dict]] = {}
        for block in plan["blocks"]:
            for _ in range(block["repeat"]):
                for op in block["ops"]:
                    rec = run_op(cli.main, op, tracer if traced else None,
                                 last_s)
                    seen = (tuple(digest(Path(p)) for p in op.get("outputs", [])),
                            DURATION.sub("", rec.pop("out")),
                            DURATION.sub("", rec.pop("err")))
                    first.setdefault(op["name"], seen)
                    if seen != first[op["name"]]:
                        mismatches.append(
                            f"round {len(rounds)}: {op['name']} output "
                            "differs from its first run")
                    last[op["name"]] = {"out": seen[1], "err": seen[2]}
                    samples.setdefault(op["name"], []).append(rec)
        if traced:
            tracer.uninstall()
        rounds.append({"warmup": not rounds, "traced": traced, "ops": samples})
        if deadline is None:
            deadline = time.perf_counter() + plan["seconds"]
    result = {
        "rounds": rounds,
        "last": last,
        "mismatches": mismatches,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.write(Path(plan["spans"]))
    plan_path.with_suffix(".result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
