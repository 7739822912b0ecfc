"""Self-test of the host-speed normalisation and the latency statistics.

The host's speed phases cannot be switched on at will, so the test drives
:class:`hostspeed.OpClock` with a scripted host: in a phase of slowdown
``s`` the reference loop takes ``NOMINAL_S * s`` and a fixed-cost
operation ``COST * s ** SENSITIVITY`` (the relation measured on the real
host, see hostspeed's docstring).  A fixed-cost operation must come out at
the same normalised time in the fast and the slow phase, while its raw
time differs.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostspeed  # noqa: E402

COST = 0.08


class ScriptedHost:
    """A fake ``time`` module whose clock advances by scripted amounts."""

    def __init__(self) -> None:
        self.now = 100.0
        self.slowdown = 1.0

    def perf_counter(self) -> float:
        return self.now

    def reference(self) -> float:
        ref = hostspeed.NOMINAL_S * self.slowdown
        self.now += ref
        return ref

    def operation(self) -> str:
        self.now += COST * self.slowdown ** hostspeed.SENSITIVITY
        return "done"


@pytest.fixture
def host(monkeypatch):
    fake = ScriptedHost()
    monkeypatch.setattr(hostspeed, "time", fake)
    monkeypatch.setattr(hostspeed, "time_reference", fake.reference)
    return fake


def test_fixed_cost_operation_normalises_equal_in_fast_and_slow_phases(host):
    clock = hostspeed.OpClock()
    for slowdown in (1.0, 1.6, 1.0, 1.6):
        host.slowdown = slowdown
        for _ in range(5):
            assert clock.timed(host.operation) == "done"
    raw = [r for r, _ in clock.samples]
    norm = clock.normalised()
    fast, slow = norm[1:5] + norm[11:15], norm[6:10] + norm[16:20]
    assert max(raw) / min(raw) == pytest.approx(1.6 ** hostspeed.SENSITIVITY)
    assert statistics.median(fast) == pytest.approx(statistics.median(slow))
    assert statistics.median(fast) == pytest.approx(COST)


def test_back_to_back_operations_share_one_reference(host):
    clock = hostspeed.OpClock()
    for _ in range(4):
        clock.timed(host.operation)
    # One "before" loop for the first operation, one "after" loop each.
    assert clock.ref_s == pytest.approx(5 * hostspeed.NOMINAL_S)


def test_tail_reports_samples_beyond_fixed_percentile():
    values = list(range(1, 2001))
    assert hostspeed.tail(values, 99.0) == (1980, 20)
    assert hostspeed.tail(values[:199], 95.0) == (190, 9)
    assert hostspeed.tail(values[:192], 90.0) == (173, 19)


def test_spread_matches_statistics_quartiles():
    values = [10.0, 11.0, 12.0, 13.0, 30.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert hostspeed.spread(values) == pytest.approx((q3 - q1) / q2)
