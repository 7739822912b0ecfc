"""figures-cold: cold ``repro all --scale small`` into an empty cache.

The simulator layers (linalg, runtime, schedulers, data, perfmodel, sim,
core.planner) do most of the work here while the cache only takes writes.
An operation is one simulation: an outermost ``run_operation`` call
without a cache (a cached call that misses re-enters itself without one;
a cache hit is not an operation).  The grid runs in-process through
``repro.cli.main`` at CLI defaults (``--jobs 1``); the operation timer also
sees simulations run in pool workers, so a later ``--jobs`` default keeps
the sample.  A warm replay from the cache follows, as a correctness check;
its normalised wall is kept in the run record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import statistics
import time
from pathlib import Path

import common
import hostspeed
import probes

#: Program seeds with committed table digests; ``--seed n`` runs
#: ``PROGRAM_SEEDS[n % len(PROGRAM_SEEDS)]``.
PROGRAM_SEEDS = (0, 1, 2, 3)
#: Every OVERHEAD_STRIDE-th operation of a traced run is re-run untraced.
OVERHEAD_STRIDE = 10
#: ``tail_ms`` percentile: 17 of the grid's 174 simulations lie beyond p90.
TAIL_Q = 90.0

_WALL_LINE = re.compile(r"^  \(.*s wall.*\)$", re.MULTILINE)


def masked(text: str) -> str:
    """CLI output without its wall-time/cache-count lines."""
    return _WALL_LINE.sub("  (wall)", text)


def digest(text: str) -> str:
    return hashlib.sha256(masked(text).encode("utf-8")).hexdigest()


def grid_args(program_seed: int, cache_dir: str) -> list[str]:
    return ["all", "--scale", "small", "--seed", str(program_seed),
            "--cache-dir", cache_dir]


def run_grid(program_seed: int, cache_dir: str) -> tuple[str, float]:
    """One ``repro all`` in this process: (stdout, raw wall seconds)."""
    from repro import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(grid_args(program_seed, cache_dir))
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"repro all exited {code}")
    return out.getvalue(), wall


# ------------------------------------------------------- output parsing

def tables(text: str) -> dict[str, list[dict]]:
    """``{experiment: [row dict, ...]}`` from the CLI's rendered tables."""
    out: dict[str, list[dict]] = {}
    for block in masked(text).split("\n\n"):
        lines = [ln for ln in block.splitlines() if ln.strip()]
        if len(lines) < 3 or not lines[0].startswith("["):
            continue
        name = lines[0][1:lines[0].index("]")]
        headers = [h.strip() for h in lines[1].split("|")]
        rows = []
        for line in lines[3:]:
            if line.startswith("  "):
                continue  # notes and the wall line
            cells = [c.strip() for c in line.split("|")]
            rows.append(dict(zip(headers, cells)))
        out[name] = rows
    return out


def _num(cell: str) -> float:
    return float(cell.replace(",", ""))


def quality(text: str) -> dict[str, float]:
    """Sim-clock guards from the grid's own tables (deterministic per seed).

    - ``paper_err_pp``: mean |derived - paper| in percentage points over
      Table II's best-cap column and Table I's cap/saving columns;
    - ``energy_vs_static_pct`` / ``makespan_vs_static_pct``: for each
      Fig 3/4 instance, the most efficient config's energy and makespan as
      a percentage of the all-H default, averaged over instances.
    """
    t = tables(text)
    errs = [abs(_num(r["P_best_pct"]) - _num(r["paper_best_pct"]))
            for r in t["table2"]]
    for r in t["table1"]:
        errs.append(abs(_num(r["cap_pct_tdp"]) - _num(r["paper_cap_pct"])))
        errs.append(abs(_num(r["eff_saving_pct"]) - _num(r["paper_saving_pct"])))
    energy, makespan = [], []
    for fig in ("fig3", "fig4"):
        best: dict[tuple, dict] = {}
        for r in t[fig]:
            key = (r["platform"], r["operation"])
            if key not in best or _num(r["eff_gflops_per_W"]) > _num(
                    best[key]["eff_gflops_per_W"]):
                best[key] = r
        for r in best.values():
            energy.append(100.0 - _num(r["energy_saving_pct"]))
            makespan.append(100.0 / (1.0 + _num(r["perf_delta_pct"]) / 100.0))
    return {
        "paper_err_pp": statistics.fmean(errs),
        "energy_vs_static_pct": statistics.fmean(energy),
        "makespan_vs_static_pct": statistics.fmean(makespan),
    }, len(errs) + len(energy)


# ------------------------------------------------------------- workload

def _simulates(args: tuple, kwargs: dict) -> bool:
    """A ``run_operation`` call without a cache (positional 9th) simulates."""
    return (args[8] if len(args) > 8 else kwargs.get("cache")) is None


def run(seed: int, seconds: int, trace: bool, work: Path) -> dict:
    program_seed = PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]
    setup_samples = common.launches("cli", work, common.SETUP_LAUNCHES[0])

    import repro.cli  # noqa: F401  (load every experiment module before rebinding)

    spool = work / "spool"
    spool.mkdir()
    layers = probes.LayerProbes(spool) if trace else None
    timer = probes.OpTimer("repro.core.tradeoff:run_operation", spool,
                           keep_args_every=OVERHEAD_STRIDE if trace else 0,
                           layers=layers, when=_simulates)
    cache_dir = str(work / "cache")
    steal0 = common.steal_s()
    cold, wall_raw = run_grid(program_seed, cache_dir)
    steal = common.steal_s() - steal0
    ref_s = timer.clock.ref_s
    samples = timer.samples()
    snap = layers.snapshot() if layers is not None else None

    checks = common.Checks()
    expected = common.load_digests()["figures-cold"].get(str(program_seed))
    rows = sum(len(r) for r in tables(cold).values())
    checks.add("table_digest", digest(cold) == expected, rows,
               f"seed {program_seed}: {digest(cold)[:16]} vs "
               f"{(expected or 'none')[:16]}")
    hits0 = _cache_files(cache_dir)
    timer.active = False
    if layers is not None:
        layers.active = False
    before = hostspeed.time_reference()
    warm, warm_raw = run_grid(program_seed, cache_dir)
    warm_factor = hostspeed.speed_factor(
        (before + hostspeed.time_reference()) / 2.0)
    checks.add("warm_replay_identical", masked(warm) == masked(cold),
               len(masked(cold).splitlines()) if hits0 else 0,
               f"{hits0} cache entries replayed")
    guards, n_compared = quality(cold)
    checks.add("quality_guards_computed", True, n_compared)
    setup_samples += common.launches("cli", work, common.SETUP_LAUNCHES[1])
    setup, setup_rec = common.setup_record(setup_samples)

    raw = [r for r, _ in samples]
    factors = [f for _, f in samples]
    norm = [r / f for r, f in samples]
    median_factor = statistics.median(factors)
    outside_ops = wall_raw - sum(raw) - ref_s
    wall_s = sum(norm) + max(outside_ops, 0.0) / median_factor
    latency, tail_record = common.latency_metrics(norm, TAIL_Q)

    metrics = {
        "setup_s": setup,
        "wall_s": wall_s,
        **latency,
        "peak_rss_mb": common.peak_rss_mb(),
        **guards,
    }
    record = {
        "program_seed": program_seed,
        "operations": len(samples),
        "raw": {"wall_s": wall_raw, "p50_ms": statistics.median(raw) * 1e3},
        "speed_factors": hostspeed.factor_summary(factors),
        "setup": setup_rec,
        "outside_operations_raw_s": outside_ops,
        "host_steal_s": steal,
        "warm_replay": {"raw_s": warm_raw, "factor": warm_factor,
                        "normalised_s": warm_raw / warm_factor},
        **tail_record,
        "checks": checks.results,
    }
    if layers is not None:
        layer = probes.layer_metrics(snap, wall_raw - ref_s, median_factor)
        layer["host.speed_factor"] = median_factor
        layers.active = True
        layer["trace_overhead"] = probes.trace_overhead(layers, timer.kept, samples)
        record["layers"] = layer
    return {"correct": checks.ok, "attempted": len(samples), "failed": 0,
            "metrics": metrics, "record": record}


def _cache_files(cache_dir: str) -> int:
    return sum(1 for _ in Path(cache_dir).rglob("*.json"))
