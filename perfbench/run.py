"""Repository benchmark: one workload, one seed, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 20 --trace 0

Workloads:

- ``figures-cold``: cold ``repro all --scale small`` into an empty cache;
- ``advise-open``: advisor requests answered by an in-process server;
- ``govern-mix``: many short fault-injected ``run_govern`` scenarios.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a probed run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are the run record (raw values, host-speed factors, check evidence).
See README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import common

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
    "paper_err_pp": "pp",
    "energy_vs_static_pct": "%",
    "makespan_vs_static_pct": "%",
}

_CALLS_SELF = (
    "linalg.build_graph",
    "runtime.data.acquire", "runtime.data.release", "runtime.data.prefetch",
    "runtime.data.transfer_estimates",
    "runtime.schedulers.push_ready", "runtime.schedulers.pop",
    "runtime.perfmodel.estimate", "runtime.perfmodel.record",
    "runtime.run",
)
PER_LAYER: dict[str, str] = {}
for _name in _CALLS_SELF:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "runtime.placement_evals_per_task": "count",
    "runtime.calibrate.self_s": "s",
    "runtime.tasks": "count",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "core.run_operation.calls": "count",
    "core.planner.sweep.self_s": "s",
    "core.planner.plan.self_s": "s",
    "hardware.build_platform.self_s": "s",
    "cache.load.calls": "count",
    "cache.load_many.calls": "count",
    "cache.save.calls": "count",
    "cache.read.self_s": "s",
    "cache.write.self_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "experiments.parallel.calls": "count",
    "experiments.parallel.submitted": "count",
    "experiments.parallel.self_s": "s",
    "service.requests": "count",
    "service.computations": "count",
    "service.coalesced": "count",
    "service.warm_hits": "count",
    "service.rejected_429": "count",
    "service.timeouts": "count",
    "service.probe.self_s": "s",
    "service.compute.self_s": "s",
    "service.server_cpu_ms_per_req": "ms",
    "govern.ticks": "count",
    "govern.moves": "count",
    "govern.safe_mode": "count",
    "govern.on_tick.self_s": "s",
    "faults.injected": "count",
    "obs.bus.published": "count",
    "obs.bus.publish.self_s": "s",
    "host.speed_factor": "ratio",
    "unaccounted_share": "ratio",
    "trace_overhead": "ratio",
})
SHARE_GROUPS = (
    "linalg", "runtime.data", "runtime.schedulers", "runtime.perfmodel",
    "runtime.engine", "core", "hardware", "cache", "experiments.parallel",
    "service", "govern", "obs.bus",
)
for _group in SHARE_GROUPS:
    PER_LAYER[f"share.{_group}"] = "ratio"


def _workload(name: str):
    if name == "figures-cold":
        import figures_cold as module
    elif name == "advise-open":
        import advise_open as module
    elif name == "govern-mix":
        import govern_mix as module
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures-cold", "advise-open", "govern-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))

    work = common.WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = _workload(args.workload).run(
            args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = out["record"]
    if args.trace:
        values = record.pop("layers")
        units = PER_LAYER
    else:
        values = out["metrics"]
        units = END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    if not args.trace:
        record["metrics"] = values
    print(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
