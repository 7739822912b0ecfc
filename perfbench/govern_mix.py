"""govern-mix: many short ``run_govern`` scenarios.

The only path through govern, faults, recovery and the obs telemetry bus.
Scenarios cover {24-Intel-2-V100, 32-AMD-4-A100} x {gemm, potrf} x
{steady, shift, shift + kill-throttle} x SEEDS_PER_RUN scenario seeds at
tiny scale, faults still injected.  An operation is one ``run_govern``.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from pathlib import Path

import common
import hostspeed
import probes

PLATFORMS = ("24-Intel-2-V100", "32-AMD-4-A100")
OPS = ("gemm", "potrf")
#: (fault preset, phase mix) of the three scenario kinds.
MODES = (("none", "steady"), ("none", "shift"), ("kill-throttle", "shift"))
SEEDS_PER_RUN = 24
OVERHEAD_STRIDE = 6
#: ``tail_ms`` percentile: 28 of the 288 scenarios lie beyond p90.
TAIL_Q = 90.0


def scenarios(seed: int) -> list[tuple]:
    """``(platform, op, preset, mix, scenario_seed)`` of one run."""
    return [
        (platform, op, preset, mix, seed * SEEDS_PER_RUN + k)
        for k in range(SEEDS_PER_RUN)
        for platform in PLATFORMS
        for op in OPS
        for preset, mix in MODES
    ]


def _plan(preset: str, scenario_seed: int):
    from repro.faults.plan import FaultPlan, preset_plan

    if preset == "none":
        return FaultPlan(name="none")
    return preset_plan(preset, seed=scenario_seed)


def paper_err_pp() -> tuple[float, int]:
    """Mean |B state - paper best cap| (pp of the H cap) over the instances."""
    from repro.experiments.platforms import TABLE2_PAPER, cap_states

    errs = []
    for platform in PLATFORMS:
        for op in OPS:
            states = cap_states(platform, op, "double", "tiny")
            paper_pct = TABLE2_PAPER[(platform, op, "double")][2]
            errs.append(abs(states.b_w / states.h_w * 100.0 - paper_pct))
    return statistics.fmean(errs), len(errs)


def run(seed: int, seconds: int, trace: bool, work: Path) -> dict:
    setup_samples = common.launches("cli", work, common.SETUP_LAUNCHES[0])

    import repro.govern.run  # noqa: F401  (load before rebinding)
    from repro.govern import run as govern_run

    spool = work / "spool"
    spool.mkdir()
    layers = probes.LayerProbes(spool) if trace else None
    timer = probes.OpTimer("repro.govern.run:run_govern", spool,
                           keep_args_every=OVERHEAD_STRIDE if trace else 0,
                           layers=layers)

    checks = common.Checks()
    energy, makespan = [], []
    audited = budget_ok = 0
    failed = 0
    todo = scenarios(seed)
    steal0 = common.steal_s()
    t0 = time.perf_counter()
    for platform, op, preset, mix, scenario_seed in todo:
        try:
            gov = govern_run.run_govern(platform, op, "double",
                                        _plan(preset, scenario_seed),
                                        mix=mix, seed=scenario_seed)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        audit = gov.summary["audit"]
        audited += int(gov.passed)
        budget_ok += int(audit["budget_respected"] is True)
        comparison = gov.summary["comparison"]
        energy.append(100.0 + comparison["energy_pct"])
        makespan.append(100.0 + comparison["makespan_pct"])
    wall_raw = time.perf_counter() - t0
    steal = common.steal_s() - steal0
    samples = timer.samples()
    snap = layers.snapshot() if layers is not None else None

    n = len(todo)
    checks.add("audits_pass", audited == n, audited, f"{audited}/{n} passed")
    checks.add("budget_respected", budget_ok == n, budget_ok,
               f"{budget_ok}/{n} within budget")
    err_pp, instances = paper_err_pp()
    checks.add("quality_guards_computed", True, instances + len(energy))
    setup_samples += common.launches("cli", work, common.SETUP_LAUNCHES[1])
    setup, setup_rec = common.setup_record(setup_samples)

    raw = [r for r, _ in samples]
    factors = [f for _, f in samples]
    norm = [r / f for r, f in samples]
    median_factor = statistics.median(factors)
    outside_ops = wall_raw - sum(raw) - timer.clock.ref_s
    latency, tail_record = common.latency_metrics(norm, TAIL_Q)
    metrics = {
        "setup_s": setup,
        "wall_s": sum(norm) + max(outside_ops, 0.0) / median_factor,
        **latency,
        "peak_rss_mb": common.peak_rss_mb(),
        "paper_err_pp": err_pp,
        "energy_vs_static_pct": statistics.fmean(energy),
        "makespan_vs_static_pct": statistics.fmean(makespan),
    }
    record = {
        "scenarios": n,
        "operations": len(samples),
        "raw": {"wall_s": wall_raw, "p50_ms": statistics.median(raw) * 1e3},
        "speed_factors": hostspeed.factor_summary(factors),
        "setup": setup_rec,
        "outside_operations_raw_s": outside_ops,
        "host_steal_s": steal,
        **tail_record,
        "checks": checks.results,
    }
    if layers is not None:
        layer = probes.layer_metrics(snap, wall_raw - timer.clock.ref_s,
                                     median_factor)
        layer["host.speed_factor"] = median_factor
        layer["trace_overhead"] = probes.trace_overhead(layers, timer.kept, samples)
        record["layers"] = layer
    return {"correct": checks.ok and failed == 0, "attempted": n,
            "failed": failed, "metrics": metrics, "record": record}
