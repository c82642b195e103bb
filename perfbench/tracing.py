"""Span tracing around the program's public functions, from outside `src/`.

`Tracer.install` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, operation, round) and
`uninstall` puts the originals back, so untraced rounds run the program
unchanged. Spans stay in memory until `write`. `summarize` turns the spans
of the traced rounds into the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name). Calls between modules go through
# module globals or class attributes, so replacing the attribute reaches
# callers inside the program too.
TARGETS = [
    ("formats", "parse_run_file", "formats.parse_run_file"),
    ("formats", "parse_qrels", "formats.parse_qrels"),
    ("formats", "write_qrels", "formats.write_qrels"),
    ("formats", "GradeStore.read", "formats.GradeStore.read"),
    ("formats", "GradeStore.append", "formats.GradeStore.append"),
    ("model", "Run.top_k", "model.Run.top_k"),
    ("grading", "build_passage_pool", "grading.build_passage_pool"),
    ("grading", "grade_corpus", "grading.grade_corpus"),
    ("grading", "grade_pair", "grading.grade_pair"),
    ("grading", "verify_answer", "grading.verify_answer"),
    ("grading", "parse_self_rating", "grading.parse_self_rating"),
    ("gateway", "truncate_context", "gateway.truncate_context"),
    ("gateway", "render_question_gen_prompt", "gateway.render"),
    ("gateway", "render_qa_prompt", "gateway.render"),
    ("gateway", "render_self_rating_prompt", "gateway.render"),
    ("gateway", "HttpBackend.complete", "gateway.backend.complete"),
    ("gateway", "MockBackend.complete", "gateway.backend.complete"),
    ("bank", "generate_bank", "bank.generate_bank"),
    ("bank", "diff_banks", "bank.diff_banks"),
    ("metrics", "exam_cover", "metrics.exam_cover"),
    ("metrics", "leaderboard", "metrics.leaderboard"),
    ("metrics", "correlation_stats", "metrics.correlation_stats"),
    ("metrics", "build_qrels", "metrics.build_qrels"),
    ("metrics", "precision_at_k", "metrics.precision_at_k"),
    ("metrics", "min_answers_sweep", "metrics.min_answers_sweep"),
    ("metrics", "confusion_table", "metrics.confusion_table"),
]

CLI_COMMANDS = ("generate", "grade", "cover", "qrels", "leaderboard",
                "agreement", "diff")


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Counts recorded at the span, where the work happens."""
    if name == "formats.GradeStore.read":
        store = args[0]
        size = store.path.stat().st_size if store.path.exists() else 0
        return {"grades": len(result), "bytes": size}
    if name == "gateway.truncate_context":
        return {"truncated": result != args[1]}
    if name == "grading.grade_corpus":
        return {"graded": result.graded, "skipped": result.skipped_existing}
    if name == "gateway.backend.complete":
        return {"prompt": hashlib.sha1(args[1].prompt.encode()).hexdigest()}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, round, attrs]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = ""
        self._round = 0

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to whatever the main thread
        # is inside, e.g. the grade_corpus that started the pool.
        return self._main_stack[-1] if self._main_stack else -1

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, self._parent(stack),
                  self._op, self._round, None]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    @contextlib.contextmanager
    def command(self, command: str, op: str):
        self._op = op
        with self.span(f"cli.{command}"):
            yield

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                record[6] = _attrs(name, args, result)
            return result
        return traced

    def install(self, round_index: int) -> None:
        self._round = round_index
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(f"exam_eval.{module_name}")
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


# ---------------------------------------------------------------------------
# Summary


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans: list[list], parallelism: int,
              service_by_prompt: dict[str, float] | None) -> dict:
    """Per-layer metrics: per-round sums, medians over the traced rounds;
    backend latency percentiles pool every traced request.

    `service_by_prompt` maps a prompt's sha1 to the stub's mean service
    time for it; without a stub the backend's own time is all overhead.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    per_round: dict[int, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    latencies, overheads = [], []
    for i, (name, start, end, parent, op, rnd, attrs) in enumerate(spans):
        acc = per_round[rnd]
        dur = end - start
        self_s = dur - _covered([(max(a, start), min(b, end))
                                 for a, b in children.get(i, [])
                                 if b > start and a < end])
        acc[f"{name}.s"] += dur
        acc[f"{name}.calls"] += 1
        acc[f"{name}.self_s"] += self_s
        if name == "grading.grade_pair":
            acc["busy"] += dur
        if attrs is None:       # no counts: not recorded, or the call raised
            continue
        if name == "formats.GradeStore.read":
            acc["read.grades"] += attrs["grades"]
            acc["read.bytes"] += attrs["bytes"]
        elif name == "gateway.truncate_context":
            acc["truncated"] += attrs["truncated"]
        elif name == "grading.grade_corpus":
            acc["pairs_graded"] += attrs["graded"]
            acc["pairs_skipped"] += attrs["skipped"]
            if attrs["graded"]:
                acc["busy_wall"] += dur
        elif name == "gateway.backend.complete":
            latencies.append(dur)
            if service_by_prompt is None:
                overheads.append(dur)
            elif attrs["prompt"] in service_by_prompt:
                overheads.append(dur - service_by_prompt[attrs["prompt"]])

    def med(key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in per_round.values())

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return statistics.median(
            r.get(num, 0.0) / (scale * r[den]) if r.get(den) else 0.0
            for r in per_round.values())

    out = {
        "formats.parse_run_file.s": med("formats.parse_run_file.s"),
        "formats.GradeStore.read.s": med("formats.GradeStore.read.s"),
        "formats.GradeStore.read.grades": med("read.grades"),
        "formats.store_bytes_per_grade": ratio("read.bytes", "read.grades"),
        "formats.GradeStore.append.s": med("formats.GradeStore.append.s"),
        "formats.parse_qrels.s": med("formats.parse_qrels.s"),
        "formats.write_qrels.s": med("formats.write_qrels.s"),
        "model.Run.top_k.calls": med("model.Run.top_k.calls"),
        "model.Run.top_k.s": med("model.Run.top_k.s"),
        "grading.build_passage_pool.s": med("grading.build_passage_pool.s"),
        "grading.grade_corpus.pairs_graded": med("pairs_graded"),
        "grading.grade_corpus.pairs_skipped": med("pairs_skipped"),
        "grading.grade_pair.self_s": med("grading.grade_pair.self_s"),
        "grading.verify_answer.calls": med("grading.verify_answer.calls"),
        "grading.verify_answer.s": med("grading.verify_answer.s"),
        "grading.parse_self_rating.s": med("grading.parse_self_rating.s"),
        "gateway.truncate_context.s": med("gateway.truncate_context.s"),
        "gateway.truncate_context.calls": med("gateway.truncate_context.calls"),
        "gateway.truncate_context.truncated_share": ratio(
            "truncated", "gateway.truncate_context.calls"),
        "gateway.render.s": med("gateway.render.s"),
        "gateway.backend.latency_p50_ms": 1000 * percentile(latencies, 0.50),
        "gateway.backend.latency_p99_ms": 1000 * percentile(latencies, 0.99),
        "gateway.backend.overhead_ms": 1000 * (
            statistics.median(overheads) if overheads else 0.0),
        "gateway.worker_busy_share": ratio("busy", "busy_wall", parallelism),
        "bank.generate_bank.s": med("bank.generate_bank.s"),
        "bank.diff_banks.s": med("bank.diff_banks.s"),
        "metrics.exam_cover.calls": med("metrics.exam_cover.calls"),
        "metrics.exam_cover.s": med("metrics.exam_cover.s"),
        "metrics.leaderboard.self_s": med("metrics.leaderboard.self_s"),
        "metrics.correlation_stats.s": med("metrics.correlation_stats.s"),
        "metrics.build_qrels.s": med("metrics.build_qrels.s"),
        "metrics.precision_at_k.s": med("metrics.precision_at_k.s"),
        "metrics.min_answers_sweep.self_s": med(
            "metrics.min_answers_sweep.self_s"),
        "metrics.confusion_table.s": med("metrics.confusion_table.s"),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = med(f"cli.{command}.self_s")
    return out

