"""The machine's speed, measured beside the commands it times.

The reference machine, a 2-vCPU VM on a shared host, switches between a
fast and a slow state several times a second, and the share of time it spends
slow changes from minute to minute: a run's commands took up to 40 % longer
than another run's of the same size a few minutes later. So right before
and right after each timed command the benchmark runs a fixed pure-Python
loop, each time for an eighth of the command's time. The loop's time per
unit around a command measures the machine's speed while it ran, and the
command's time is reported at the speed of a machine on which one unit
takes `REFERENCE_UNIT_S`. The loop never calls the program, so a change to
the program moves the reported times as it moves the measured ones.
"""
from __future__ import annotations

import gc
import time

REFERENCE_UNIT_S = 0.002
# Reference-loop time before, and again after, a command, per second of it.
SHARE = 0.125


def reference_unit() -> None:
    """Dict updates, string formatting and a sort, as in the program's
    own loops; about 2 ms on the reference machine (README.md)."""
    counts: dict[str, int] = {}
    for i in range(3000):
        key = f"q{i % 97}/p{i}"
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())


def probe(timed_s: float) -> list[float]:
    """Whole reference units for `SHARE` of `timed_s`, at least one:
    [units, seconds]."""
    units, spent = 0, 0.0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        while units == 0 or spent < SHARE * timed_s:
            start = time.perf_counter()
            reference_unit()
            spent += time.perf_counter() - start
            units += 1
    finally:
        if was_enabled:
            gc.enable()
    return [units, spent]


def around(before: list[float], after: list[float]) -> list[float]:
    return [before[0] + after[0], before[1] + after[1]]


def scaled(seconds: float, probed: list[float]) -> float:
    """`seconds` at the reference speed, from the probes around them."""
    units, spent = probed
    return seconds * REFERENCE_UNIT_S * units / spent
