"""Host-speed normalisation for host-clock timings.

The benchmark host runs at two speeds: a fixed pure-Python loop takes either
~1x or ~1.6x its fast time, in phases lasting 1-15 s.  CPU time tracks wall
time, so this is core speed, not scheduling.  Summing one long run folds
whatever phases it met into the result; instead every host-clock metric is
built from many short operations, and each operation's host time is divided
by a speed factor measured by a fixed reference loop run right next to it.

The reference loop lives here, in benchmark code, so a change to the
program can never change the yardstick.  It mimics the simulator's
instruction mix (small objects, a binary heap, dict updates, float
arithmetic).  Measured on the development host, a simulation's host time
moves less than the loop's across speed phases: per operation the log-log
slope was 0.41-0.56 (four loop variants, two operations), and over five
govern-mix runs the per-run medians were steadiest at 0.75 (IQR/median
0.044, against 0.090 at 0.5, 0.048 at 1 and 0.108 raw).  So the factor is
``(ref / NOMINAL_S) ** SENSITIVITY`` rather than the plain ratio.
"""

from __future__ import annotations

import heapq
import math
import statistics
import subprocess
import sys
import time
from typing import Callable, Optional, Sequence

#: Exponent applied to the reference-time ratio (see module docstring).
SENSITIVITY = 0.75
#: Reference-loop time at nominal host speed (s): the fast-phase median on
#: the development host.  It fixes the unit of normalised times only.
NOMINAL_S = 0.0025
#: A reference measured less than this long before an operation starts is
#: reused as that operation's "before" sample (back-to-back operations then
#: pay one loop each, not two).
REUSE_S = 0.05


class _Event:
    __slots__ = ("t", "a", "b")

    def __init__(self, t: float, a: int, b: Optional[object]) -> None:
        self.t = t
        self.a = a
        self.b = b


def reference_loop(n: int = 3000) -> float:
    """A fixed amount of simulator-like Python work; returns a checksum."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(n):
        ev = _Event((i * 37) % 101 * 0.1, i, None)
        heapq.heappush(heap, (ev.t, i, ev))
        k = i & 63
        table[k] = table.get(k, 0.0) + ev.t * 0.5
        if len(heap) > 40:
            t, _, old = heapq.heappop(heap)
            acc = acc * 0.999 + t + old.a * 1e-6
    return acc + len(table)


def time_reference() -> float:
    """CPU seconds one :func:`reference_loop` takes right now.

    Thread CPU time, not wall time: the speed phases show in CPU time, while
    preemption by the benchmark's other processes (such as the server) on a
    small host does not, and must not read as a slow core.
    """
    t0 = time.thread_time()
    reference_loop()
    return time.thread_time() - t0


def speed_factor(ref_s: float) -> float:
    """How much slower than nominal the host runs, given a reference time."""
    return (ref_s / NOMINAL_S) ** SENSITIVITY


# ---------------------------------------------------------------- launches
#
# A launch (spawn, imports, server start) does not slow down with the
# reference loop: between runs it drifted by up to 30% while the loop did
# not see it.  So a launch is normalised by a reference *launch* timed right
# before it: a fresh interpreter importing a fixed set of standard-library
# modules.  Over 8 runs of 11 ``ready.py cli`` launches the per-run medians
# spread (IQR/median) 0.010 this way at exponent 0.75, against 0.067 with
# the loop (at its best exponent, 0.4) and 0.042 raw; over 6 runs of
# ``serve`` launches that crossed a speed phase, 0.045 against 0.085 and
# 0.34.  The exponent is the operations' SENSITIVITY: 0.7-0.8 fitted best.

#: What the reference launch imports.
REFERENCE_IMPORTS = ("json, asyncio, http.client, email.parser, decimal, "
                     "fractions, statistics, argparse, logging, urllib.request, "
                     "concurrent.futures, dataclasses, typing, hashlib, random")
#: Reference-launch time at nominal host speed (s); fixes the unit only.
NOMINAL_LAUNCH_S = 0.09


def time_reference_launch() -> float:
    """Seconds from spawning an interpreter to it having done its imports."""
    code = f"import time; import {REFERENCE_IMPORTS}; print(time.perf_counter())"
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, timeout=60).stdout
    return float(out) - t0


def launch_factor(ref_launch_s: float) -> float:
    """Speed factor of a launch, given a reference-launch time."""
    return (ref_launch_s / NOMINAL_LAUNCH_S) ** SENSITIVITY


class OpClock:
    """Times operations, each bracketed by reference loops in this process.

    ``timed(fn)`` returns ``fn()``'s result and appends one sample
    ``(raw_s, factor)`` to :attr:`samples`; the normalised time is
    ``raw_s / factor``.  Not thread-safe: one clock per timing thread.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.ref_s = 0.0  # host time spent in reference loops
        self._last: Optional[tuple[float, float]] = None  # (ended at, ref_s)

    def _reference(self) -> float:
        ref = time_reference()
        self.ref_s += ref
        self._last = (time.perf_counter(), ref)
        return ref

    def timed(self, fn: Callable, *args, **kwargs):
        last = self._last
        if last is not None and time.perf_counter() - last[0] < REUSE_S:
            before = last[1]
        else:
            before = self._reference()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            after = self._reference()
            self.samples.append((raw, speed_factor((before + after) / 2.0)))

    def normalised(self) -> list[float]:
        return [raw / factor for raw, factor in self.samples]

    def factors(self) -> list[float]:
        return [factor for _, factor in self.samples]


# ------------------------------------------------------------------ stats

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: Sequence[float], q: float) -> tuple[float, int]:
    """``(p<q> value, samples beyond it)``: the tail and the count it rests on."""
    return percentile(values, q), len(values) - math.ceil(q / 100.0 * len(values))


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median (``statistics.quantiles`` quartiles)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def factor_summary(factors: Sequence[float]) -> dict:
    """Speed-factor distribution kept in every run record."""
    if not factors:
        return {"n": 0}
    return {
        "n": len(factors),
        "min": min(factors),
        "median": statistics.median(factors),
        "max": max(factors),
        "iqr_over_median": spread(factors),
    }

