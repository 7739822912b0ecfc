"""The operation timer times simulations, never cache hits.

``run_operation`` with a cache re-enters itself without one on a miss.
figures-cold's operation is the call without a cache, outermost per
thread: a miss yields exactly one sample (the inner, simulating call) and
a hit none.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import figures_cold  # noqa: E402
import probes  # noqa: E402
from repro.cache import ExperimentCache  # noqa: E402
from repro.core import tradeoff  # noqa: E402
from repro.core.capconfig import CapConfig  # noqa: E402
from repro.experiments.platforms import cap_states, operation_spec  # noqa: E402


def test_miss_is_one_operation_and_hit_is_none(tmp_path):
    timer = probes.OpTimer("repro.core.tradeoff:run_operation", tmp_path,
                           keep_args_every=1, when=figures_cold._simulates)
    platform = "24-Intel-2-V100"
    spec = operation_spec(platform, "gemm", "double", "tiny")
    states = cap_states(platform, "gemm", "double", "tiny")
    cache = ExperimentCache(str(tmp_path / "cache"))

    cold = tradeoff.run_operation(platform, spec, CapConfig("HH"), states,
                                  cache=cache)
    assert len(timer.samples()) == 1
    _, fn, args, kwargs = timer.kept[0]
    assert figures_cold._simulates(args, kwargs)

    warm = tradeoff.run_operation(platform, spec, CapConfig("HH"), states,
                                  cache=cache)
    assert warm == cold
    assert len(timer.samples()) == 1

    timer.active = False
    tradeoff.run_operation(platform, spec, CapConfig("BB"), states)
    assert len(timer.samples()) == 1
