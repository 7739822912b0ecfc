"""Helpers shared by the workloads: paths, launches, checks, latency stats."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of one run (caches, spools, server logs); gitignored.
WORK = BENCH_DIR / "_work"
DIGESTS = BENCH_DIR / "digests.json"

#: Launches per run whose median is ``setup_s``: SETUP_LAUNCHES[0] before
#: the workload and SETUP_LAUNCHES[1] after it, so the median spans the
#: run's host-speed phases rather than one moment.
SETUP_LAUNCHES = (6, 5)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def launches(kind: str, work: Path, n: int) -> list[tuple[float, float]]:
    """``n`` launch-to-ready samples ``(raw seconds, factor)`` of ``ready.py kind``.

    Each launch is timed from just before the child is spawned to the
    moment the child reports ready.  Its factor comes from a reference
    launch (``hostspeed.time_reference_launch``) right before it.
    """
    cmd = [sys.executable, str(BENCH_DIR / "ready.py"), kind, str(work)]
    samples = []
    for _ in range(n):
        factor = hostspeed.launch_factor(hostspeed.time_reference_launch())
        t0 = time.perf_counter()
        out = subprocess.run(cmd, env=child_env(), check=True, text=True,
                             capture_output=True, timeout=60).stdout
        samples.append((json.loads(out.strip().splitlines()[-1])["ready"] - t0, factor))
    return samples


def setup_record(samples: list[tuple[float, float]]) -> tuple[float, dict]:
    """(``setup_s``: median normalised launch, its run-record entry)."""
    return statistics.median(raw / f for raw, f in samples), {
        "raw_s": [raw for raw, _ in samples],
        "factors": hostspeed.factor_summary([f for _, f in samples]),
    }


def steal_s() -> float:
    """CPU time the host has taken from this machine so far (``/proc/stat``).

    Kept in run records: the reference loop, timed in thread CPU time,
    does not see it, so a run with much of it is one to distrust.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(normalised_s: Sequence[float], q: float) -> tuple[dict, dict]:
    """(``p50_ms``/``tail_ms`` metrics, record of the tail they state).

    ``q`` is fixed per workload, so ``tail_ms`` compares the same
    percentile across commits; the record keeps how many samples lie
    beyond it.
    """
    value, beyond = hostspeed.tail(normalised_s, q)
    metrics = {
        "p50_ms": statistics.median(normalised_s) * 1e3,
        "tail_ms": value * 1e3,
    }
    record = {"tail_percentile": q, "tail_samples_beyond": beyond,
              "samples": len(normalised_s)}
    return metrics, record


class Checks:
    """Correctness checks that each carry an evidence count.

    A check that examined nothing fails: ``ok`` is false unless every
    check passed *and* saw at least one item.
    """

    def __init__(self) -> None:
        self.results: dict[str, dict] = {}

    def add(self, name: str, passed: bool, evidence: int, detail: str = "") -> None:
        self.results[name] = {"passed": bool(passed), "evidence": int(evidence),
                              "detail": detail}

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(
            r["passed"] and r["evidence"] > 0 for r in self.results.values()
        )
