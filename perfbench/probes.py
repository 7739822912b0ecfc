"""Timing probes installed from outside the program.

Two kinds, both installed by rebinding public functions and methods (the
program's sources are never edited):

- :class:`OpTimer` times the workload's *operation* (a simulating
  ``run_operation``, or ``run_govern``) with an adjacent-reference
  :class:`hostspeed.OpClock`.  It is the only probe of an untraced run.
- :class:`LayerProbes` wraps one public entry point per layer and records
  per-thread call counts, inclusive time and self time (inclusive minus the
  time of probed callees), plus a few counters read off arguments or
  results.

A module-level function is rebound in every loaded ``repro`` module that
holds it (``from x import f`` copies the binding), so the probe sees calls
wherever they come from.  Both kinds survive ``fork``: pool workers inherit
the wrappers, start from empty state, and append their records to files in
``spool`` that the parent merges, so samples are kept whether simulations
run in-process or in ``parallel_starmap`` workers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import hostspeed


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, current value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def rebind(target: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``target`` by ``make(original)`` everywhere it is bound.

    A method is replaced on its class and on every subclass that overrides
    it.  A module function is also replaced in every loaded ``repro``
    module that holds it.
    """
    owner, name, original = _resolve(target)
    if isinstance(owner, type):
        todo = [owner]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if name in vars(cls):
                method = vars(cls)[name]
                setattr(cls, name, functools.update_wrapper(make(method), method))
        return
    wrapper = functools.update_wrapper(make(original), original)
    for module in [owner, *sys.modules.values()]:
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# ------------------------------------------------------------ operations

class OpTimer:
    """Per-operation host timing of the outermost call of ``target``.

    Only calls for which ``when(args, kwargs)`` holds are operations, and
    of those only the outermost of each thread is timed.  ``run_operation``
    passes ``when`` = "no cache": a cached call that misses re-enters
    itself without one, and that inner call is the simulation, while a
    cache hit never reaches one and is not an operation.  With
    ``keep_args_every`` = k > 0 every k-th operation's
    ``(index, fn, args, kwargs)`` is kept in :attr:`kept` so a traced run
    can re-time the same operations untraced.  With ``layers`` set,
    reference-loop time is kept out of the enclosing probe's self time.
    Clearing :attr:`active` passes calls through untimed.
    """

    def __init__(self, target: str, spool: Path, keep_args_every: int = 0,
                 layers: "LayerProbes | None" = None,
                 when: Callable[[tuple, dict], bool] = lambda a, k: True) -> None:
        self.spool = spool
        self.layers = layers
        self.keep_args_every = keep_args_every
        self.when = when
        self.active = True
        self.kept: list[tuple] = []
        self.clock = hostspeed.OpClock()
        self._owner = os.getpid()
        self._local = threading.local()
        rebind(target, self._wrap)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.clock = hostspeed.OpClock()
        self._local = threading.local()

    def _wrap(self, fn: Callable) -> Callable:
        local_ref = self

        def timed_operation(*args, **kwargs):
            local = local_ref._local
            if (getattr(local, "depth", 0) or not local_ref.active
                    or not local_ref.when(args, kwargs)):
                return fn(*args, **kwargs)
            local.depth = 1
            clock = local_ref.clock
            every = local_ref.keep_args_every
            if every and len(clock.samples) % every == 0:
                local_ref.kept.append((len(clock.samples), fn, args, kwargs))
            ref0 = clock.ref_s
            try:
                return clock.timed(fn, *args, **kwargs)
            finally:
                local.depth = 0
                if local_ref.layers is not None:
                    local_ref.layers.exclude(clock.ref_s - ref0)
                if os.getpid() != local_ref._owner:
                    local_ref._spill(clock.samples[-1])
        return timed_operation

    def _spill(self, sample: tuple[float, float]) -> None:
        path = self.spool / f"ops-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps(sample) + "\n")

    def samples(self) -> list[tuple[float, float]]:
        """This process's samples plus every pool worker's."""
        out = list(self.clock.samples)
        for path in sorted(self.spool.glob("ops-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                out.extend(tuple(json.loads(line)) for line in fh)
        return out


# ---------------------------------------------------------------- layers

#: Layer probe points: metric prefix -> public function or method (or a
#: tuple of them, recorded under the one prefix).
LAYER_TARGETS = {
    "linalg.build_graph": "repro.core.tradeoff:OperationSpec.build_graph",
    "runtime.data.acquire": "repro.runtime.data:DataManager.acquire",
    "runtime.data.release": "repro.runtime.data:DataManager.release",
    "runtime.data.prefetch": "repro.runtime.data:DataManager.prefetch",
    "runtime.data.transfer_estimates":
        "repro.runtime.data:DataManager.transfer_estimates",
    "runtime.schedulers.push_ready":
        "repro.runtime.schedulers.base:Scheduler.push_ready",
    "runtime.schedulers.pop": "repro.runtime.schedulers.base:Scheduler.pop",
    "runtime.perfmodel.estimate":
        "repro.runtime.perfmodel:PerfModelSet.estimate",
    "runtime.perfmodel.record": "repro.runtime.perfmodel:PerfModelSet.record",
    "runtime.calibrate": "repro.runtime.engine:RuntimeSystem.calibrate",
    "runtime.run": "repro.runtime.engine:RuntimeSystem.run",
    "core.run_operation": "repro.core.tradeoff:run_operation",
    "core.planner.sweep": "repro.core.planner:analytic_sweep_points",
    # The planner's configuration scans: bound-and-prune (``best_config``;
    # no ``repro all`` experiment calls it) and the governor's budgeted
    # static-best ladder scan.
    "core.planner.plan": ("repro.core.planner:plan_configs",
                          "repro.core.planner:best_ladder_under_budget"),
    "hardware.build_platform": "repro.hardware.catalog:build_platform",
    "cache.load": "repro.cache.experiment:ExperimentCache.load",
    "cache.load_many": "repro.cache.experiment:ExperimentCache.load_many",
    "cache.save": "repro.cache.experiment:ExperimentCache.save",
    "cache.read": "repro.cache.store:CacheStore.read",
    "cache.write": "repro.cache.store:CacheStore.write",
    "experiments.parallel": "repro.experiments.parallel:parallel_starmap",
    "service.probe": "repro.service.advisor:probe_advice",
    "service.compute": "repro.service.advisor:compute_advice",
    "govern.run": "repro.govern.run:run_govern",
    "govern.on_tick":
        "repro.govern.controller:PowerBudgetGovernor.on_tick",
    "obs.bus.publish": "repro.obs.stream:TelemetryBus.publish",
    "obs.bus.publish_interval":
        "repro.obs.stream:TelemetryBus.publish_interval",
}

#: Layer groups whose summed self time is reported as a share of the wall.
LAYER_GROUPS = {
    "linalg": ("linalg.",),
    "runtime.data": ("runtime.data.",),
    "runtime.schedulers": ("runtime.schedulers.",),
    "runtime.perfmodel": ("runtime.perfmodel.", "runtime.calibrate"),
    "runtime.engine": ("runtime.run",),
    "core": ("core.",),
    "hardware": ("hardware.",),
    "cache": ("cache.",),
    "experiments.parallel": ("experiments.parallel",),
    "service": ("service.",),
    "govern": ("govern.",),
    "obs.bus": ("obs.bus.",),
}


def trace_overhead(layers: "LayerProbes", kept: list, samples: list) -> float:
    """Traced / untraced normalised time of the ``kept`` operations.

    ``kept`` holds ``(index into samples, fn, args, kwargs)``; each is run
    again with the layer probes switched off.
    """
    layers.active = False
    clock = hostspeed.OpClock()
    traced = 0.0
    try:
        for index, fn, args, kwargs in kept:
            clock.timed(fn, *args, **kwargs)
            raw, factor = samples[index]
            traced += raw / factor
    finally:
        layers.active = True
    untraced = sum(raw / factor for raw, factor in clock.samples)
    return traced / untraced if untraced else 0.0


#: Read from the advisor's ``/v1/metrics`` by the advise-open workload;
#: 0 on the workloads that run no server.
SERVICE_COUNTERS = (
    "service.requests", "service.computations", "service.coalesced",
    "service.warm_hits", "service.rejected_429", "service.timeouts",
    "service.server_cpu_ms_per_req",
)


def _engine_events() -> int:
    from repro.sim.engine import ENGINE_TOTALS

    return ENGINE_TOTALS.events


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


class LayerProbes:
    """Count/inclusive/self time per probe point, across threads and forks."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self._owner = os.getpid()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._counters: list[dict] = []
        self._local = threading.local()
        self._events0 = _engine_events()
        #: Cleared to time calls through the wrappers without recording.
        self.active = True
        for name, targets in LAYER_TARGETS.items():
            for target in (targets,) if isinstance(targets, str) else targets:
                rebind(target, functools.partial(self._wrap, name))
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._tables = []
        self._counters = []
        self._local = threading.local()
        self._events0 = _engine_events()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table, local.counters
        except AttributeError:
            local.stack, local.table, local.counters = [], {}, {}
            with self._lock:
                self._tables.append(local.table)
                self._counters.append(local.counters)
            return local.stack, local.table, local.counters

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of benchmark work out of the current frame's self time."""
        stack = self._state()[0]
        if stack:
            stack[-1][1] += seconds

    def _wrap(self, name: str, fn: Callable) -> Callable:
        after = _AFTER.get(name)
        before = _BEFORE.get(name)
        probes = self
        perf = time.perf_counter

        def probed(*args, **kwargs):
            if not probes.active:
                return fn(*args, **kwargs)
            stack, table, counters = probes._state()
            if before is not None:
                args = before(args, counters)
            frame = [name, 0.0]
            outer = all(f[0] != name for f in stack)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = table.get(name)
                if rec is None:
                    rec = table[name] = [0, 0.0, 0.0]
                if outer:
                    rec[0] += 1
                    rec[1] += dt
                rec[2] += dt - frame[1]
                if not stack and os.getpid() != probes._owner:
                    probes._spill()
            if after is not None and outer:
                after(args, result, counters)
            return result
        return probed

    def _spill(self) -> None:
        """Pool worker: overwrite this process's snapshot file."""
        path = self.spool / f"layers-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._merge_local()))
        os.replace(tmp, path)

    def _merge_local(self) -> dict:
        calls: dict = {}
        counters: dict = {}
        for table in self._tables:
            for name, (n, incl, self_s) in list(table.items()):
                rec = calls.setdefault(name, [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += incl
                rec[2] += self_s
        for table in self._counters:
            for name, value in list(table.items()):
                counters[name] = counters.get(name, 0) + value
        counters["sim.events"] = _engine_events() - self._events0
        return {"calls": calls, "counters": counters}

    def snapshot(self) -> dict:
        """Merged probe data of this process and every spooled worker."""
        merged = self._merge_local()
        for path in sorted(self.spool.glob("layers-*.json")):
            other = json.loads(path.read_text())
            for name, (n, incl, self_s) in other["calls"].items():
                rec = merged["calls"].setdefault(name, [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += incl
                rec[2] += self_s
            for name, value in other["counters"].items():
                merged["counters"][name] = merged["counters"].get(name, 0) + value
        return merged


def _count(counters: dict, name: str, value: float) -> None:
    counters[name] = counters.get(name, 0) + value


def _after_run(args, result, counters) -> None:
    _count(counters, "runtime.tasks", result.n_tasks)
    _count(counters, "runtime.placement_evals", result.n_placement_evals)


def _after_load(args, result, counters) -> None:
    _count(counters, "cache.hits" if result[0] else "cache.misses", 1)


def _after_load_many(args, result, counters) -> None:
    hits = sum(1 for hit, _ in result.values() if hit)
    _count(counters, "cache.hits", hits)
    _count(counters, "cache.misses", len(result) - hits)


def _after_read(args, result, counters) -> None:
    if result is not None:
        store, key = args[0], args[1]
        _count(counters, "cache.bytes_read", _file_size(store.path_for(key)))


def _after_write(args, result, counters) -> None:
    _count(counters, "cache.bytes_written", _file_size(result))


def _after_govern(args, result, counters) -> None:
    governor = result.summary["governor"]
    _count(counters, "govern.ticks", governor["ticks"])
    _count(counters, "govern.moves", governor["moves"])
    _count(counters, "govern.safe_mode", int(bool(governor["safe_mode"])))
    _count(counters, "faults.injected", result.summary["faults_injected"])


def _before_starmap(args, counters):
    fn, argtuples, *rest = args
    argtuples = list(argtuples)
    _count(counters, "experiments.parallel.submitted", len(argtuples))
    return (fn, argtuples, *rest)


_AFTER: dict[str, Callable] = {
    "runtime.run": _after_run,
    "cache.load": _after_load,
    "cache.load_many": _after_load_many,
    "cache.read": _after_read,
    "cache.write": _after_write,
    "govern.run": _after_govern,
}
_BEFORE: dict[str, Callable] = {"experiments.parallel": _before_starmap}


def layer_metrics(snap: dict, wall_s: float, factor: float) -> dict[str, float]:
    """The per-layer metric table from a probe snapshot.

    ``wall_s`` is the raw traced wall the shares are taken of; ``factor``
    the run's median host-speed factor that normalises every ``self_s``.
    """
    calls, counters = snap["calls"], snap["counters"]

    def rec(name: str) -> list:
        return calls.get(name, [0, 0.0, 0.0])

    out: dict[str, float] = {}
    for name in LAYER_TARGETS:
        if name in ("obs.bus.publish_interval", "govern.run"):
            continue
        n, _, self_s = rec(name)
        out[f"{name}.calls"] = n
        out[f"{name}.self_s"] = self_s / factor
    pub = rec("obs.bus.publish")
    pub_iv = rec("obs.bus.publish_interval")
    out["obs.bus.published"] = pub[0] + pub_iv[0]
    out["obs.bus.publish.self_s"] = (pub[2] + pub_iv[2]) / factor
    tasks = counters.get("runtime.tasks", 0)
    events = counters.get("sim.events", 0)
    out["runtime.tasks"] = tasks
    out["runtime.placement_evals_per_task"] = (
        counters.get("runtime.placement_evals", 0) / tasks if tasks else 0.0
    )
    out["sim.events"] = events
    run_incl = rec("runtime.run")[1]
    out["sim.host_us_per_event"] = run_incl / factor / events * 1e6 if events else 0.0
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    out["cache.hits"] = hits
    out["cache.misses"] = misses
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.bytes_read"] = counters.get("cache.bytes_read", 0)
    out["cache.bytes_written"] = counters.get("cache.bytes_written", 0)
    out["experiments.parallel.submitted"] = counters.get(
        "experiments.parallel.submitted", 0)
    for name in ("govern.ticks", "govern.moves", "govern.safe_mode",
                 "faults.injected"):
        out[name] = counters.get(name, 0)
    for name in SERVICE_COUNTERS:
        out[name] = 0
    accounted = 0.0
    for group, prefixes in LAYER_GROUPS.items():
        self_s = sum(r[2] for name, r in calls.items()
                     if name.startswith(prefixes))
        accounted += self_s
        out[f"share.{group}"] = self_s / wall_s if wall_s else 0.0
    out["unaccounted_share"] = 1.0 - accounted / wall_s if wall_s else 0.0
    return out
