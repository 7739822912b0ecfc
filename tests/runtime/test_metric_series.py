"""Per-task metric series resolved once per registry.

The engine looks the four per-task series (queue wait, stage wait, task
duration, tasks completed) up once per arch, kind or worker and reuses
them.  The exposition must equal per-call registry lookups byte for byte,
and a registry assigned to ``runtime.metrics`` later must get every later
observation, the earlier one none of them.
"""

from repro.experiments.platforms import operation_spec
from repro.hardware.catalog import build_platform
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RuntimeSystem
from repro.sim import Simulator

PLATFORM = "24-Intel-2-V100"


class PerCallLookups(RuntimeSystem):
    """Never keeps a bound registry, so every observation resolves its
    series through the registry again: the per-call lookup path."""

    @property
    def _series_registry(self):
        return None

    @_series_registry.setter
    def _series_registry(self, value):
        pass


def _runtime(cls=RuntimeSystem):
    sim = Simulator()
    node = build_platform(PLATFORM, sim)
    registry = MetricsRegistry(clock=sim)
    return cls(node, scheduler="dmdas", seed=2, metrics=registry), registry


def _graph(op="potrf"):
    return operation_spec(PLATFORM, op, "double", "tiny").build_graph()


def _tasks_done(registry) -> float:
    return sum(m.value for m in registry if m.name == "repro_tasks_total")


def _durations_seen(registry) -> int:
    return sum(
        m.count for m in registry if m.name == "repro_task_duration_seconds"
    )


def test_exposition_equals_per_call_lookups():
    texts = []
    for cls in (RuntimeSystem, PerCallLookups):
        runtime, registry = _runtime(cls)
        runtime.run(_graph("potrf"))
        runtime.run(_graph("gemm"))
        texts.append(registry.to_prometheus())
    assert texts[0] == texts[1]
    assert "repro_queue_wait_seconds_bucket" in texts[0]
    assert "repro_stage_wait_seconds_bucket" in texts[0]
    assert 'repro_task_duration_seconds_count{arch="cuda0",kind="gemm"}' in texts[0]


def test_reassigned_registry_gets_later_observations_only():
    runtime, first = _runtime()
    one = runtime.run(_graph())
    before = first.to_prometheus()
    assert _tasks_done(first) == one.n_tasks
    second = MetricsRegistry(clock=runtime.sim)
    runtime.metrics = second
    two = runtime.run(_graph("gemm"))
    assert first.to_prometheus() == before
    assert _tasks_done(second) == two.n_tasks
    assert _durations_seen(second) == two.n_tasks
    waits = [m for m in second if m.name == "repro_queue_wait_seconds"]
    assert sum(m.count for m in waits) == two.n_tasks
