"""Steadiness check: run one workload N times and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload govern-mix --runs 10 [--seconds 20]

Run i uses seed ``--first-seed + i``, so consecutive runs alternate inputs.
For every end-to-end metric it prints the median, the interquartile range
over the median (``statistics.quantiles(values, n=4)``) and the metric's
bound from BENCHMARK.json; ``ok`` means the spread is below a third of the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common
import hostspeed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=common.ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect or failed: {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"run {i + 1}/{args.runs} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each")
    print(f"{'metric':<24}{'median':>12}{'iqr/median':>12}{'bound':>8}  verdict")
    worst = True
    for name, vals in values.items():
        s = hostspeed.spread(vals)
        bound = bounds[name]
        ok = s < bound / 3.0
        worst &= ok
        print(f"{name:<24}{statistics.median(vals):>12.5g}{s:>12.4f}"
              f"{bound:>8.3f}  {'ok' if ok else 'TOO NOISY'}")
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
