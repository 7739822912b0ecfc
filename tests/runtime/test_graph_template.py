"""DAG templates and per-op constants: identical to building from scratch.

``OperationSpec.build_graph`` instantiates graphs from a single-entry
template; these tests pin that an instance is indistinguishable from a
from-scratch build, that instances share no mutable state, that
concurrent instantiation is safe, and that ``TileOp``'s precomputed
``flops`` and memoised ``activity`` equal the uncached formulas.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.core.capconfig import CapConfig
from repro.core.tradeoff import _TEMPLATES, OperationSpec
from repro.experiments.platforms import TABLE2_PAPER, _SCALE_NT, cap_states, operation_spec
from repro.hardware.catalog import build_platform, gpu_models, gpu_spec
from repro.kernels.gemm import GemmKernel
from repro.kernels.tile_kernels import _ACTIVITY, TILE_KINDS, TileOp
from repro.runtime import RuntimeSystem
from repro.runtime.data import AccessMode, DataHandle
from repro.runtime.graph import GraphTemplate, TaskState
from repro.sim import Simulator

SCALES = ("tiny", "small")

#: The extended 4xH100 node has no Table II row; pose both operations at
#: the planner benchmark's H100 tile size and the repo's scaled tile counts.
H100_NB = 1440


def _specs() -> list[tuple[str, OperationSpec]]:
    out = [
        (f"{platform}/{op}-{precision}/{scale}",
         operation_spec(platform, op, precision, scale))
        for platform, op, precision in TABLE2_PAPER
        for scale in SCALES
    ]
    out += [
        (f"32-AMD-4-H100/{op}-{precision}/{scale}",
         OperationSpec(op=op, n=H100_NB * _SCALE_NT[scale][op], nb=H100_NB,
                       precision=precision))
        for op in ("gemm", "potrf")
        for precision in ("double", "single")
        for scale in SCALES
    ]
    return out


SPECS = _specs()


def structure(graph) -> tuple:
    """Everything a run can observe of a pristine graph, handle-free."""
    index = {h: i for i, h in enumerate(graph.handles)}
    handles = [(h.nbytes, h.label, h.home_node) for h in graph.handles]
    tasks = [
        (
            t.tid, t.op, t.label, t.priority, t.deps_remaining, t.state,
            tuple((index[h], h.nbytes, h.label, mode) for h, mode in t.accesses),
            tuple(s.tid for s in t.successors),
        )
        for t in graph.tasks
    ]
    return handles, tasks, graph.n_edges


@pytest.mark.parametrize("name,spec", SPECS, ids=[n for n, _ in SPECS])
def test_instance_matches_fresh_build(name, spec):
    fresh = spec.build_fresh_graph()
    expected = structure(fresh)
    instance = GraphTemplate(fresh).instantiate()
    assert structure(instance) == expected
    instance.validate()
    # The public entry point, on a template miss and then on a hit.
    _TEMPLATES.clear()
    assert structure(spec.build_graph()) == expected
    assert structure(spec.build_graph()) == expected


def test_instances_share_no_mutable_state():
    spec = operation_spec("32-AMD-4-A100", "potrf", "double", "tiny")
    a, b = spec.build_graph(), spec.build_graph()
    assert not {id(h) for h in a.handles} & {id(h) for h in b.handles}
    assert not {id(t) for t in a.tasks} & {id(t) for t in b.tasks}
    for ta, tb in zip(a.tasks, b.tasks):
        assert ta.successors is not tb.successors
        assert ta.op is tb.op and ta.label is tb.label  # immutable, shared
        assert not ta.payload  # payloads are not templated
        with pytest.raises(TypeError):
            ta.payload["kind"] = "mutated"


def test_running_one_instance_leaves_another_pristine():
    spec = OperationSpec(op="potrf", n=H100_NB * 8, nb=H100_NB, precision="double")
    first, second = spec.build_graph(), spec.build_graph()
    before = structure(second)
    node = build_platform("32-AMD-4-H100", Simulator())
    result = RuntimeSystem(node, scheduler="dmdas", seed=0).run(first)
    assert result.n_tasks == len(first.tasks)
    assert all(t.state is TaskState.DONE for t in first.tasks)
    assert all(t.state is TaskState.CREATED for t in second.tasks)
    for h in second.handles:
        assert h.valid_nodes == {h.home_node} and h.owner is None
    assert structure(second) == before


def test_add_task_on_instance_infers_hazards_like_fresh_graph():
    spec = operation_spec("24-Intel-2-V100", "potrf", "single", "tiny")
    fresh, instance = spec.build_fresh_graph(), spec.build_graph()
    op = TileOp("gemm", spec.nb, spec.precision)
    for graph in (fresh, instance):
        last = graph.handles[-1]
        graph.add_task(op, [(last, AccessMode.R), (DataHandle(8), AccessMode.W)])
        graph.add_task(op, [(graph.handles[0], AccessMode.RW)])
        graph.validate()
    shape_f, shape_i = structure(fresh), structure(instance)
    assert shape_f[1] == shape_i[1] and shape_f[2] == shape_i[2]


def _threaded_run(platform: str, spec: OperationSpec, config: CapConfig, states):
    node = build_platform(platform, Simulator())
    node.set_gpu_caps(config.watts(states))
    return RuntimeSystem(node, scheduler="dmdas", seed=0).run(spec.build_graph())


@pytest.mark.parametrize("alternate", [False, True], ids=["same-spec", "two-specs"])
def test_eight_threads_match_serial_runs(alternate):
    """Concurrent template misses, swaps and instantiation are safe.

    Each thread simulates on its own node and compares the full run result
    (makespan, per-device Joules, per-worker task counts, transfers).  The
    NVML facade binds one node per process, so the threads compare runtime
    results rather than metered ``run_operation`` metrics.
    """
    platform = "24-Intel-2-V100"
    states = cap_states(platform, "gemm", "double", "tiny")
    config = CapConfig("HB")
    specs = [operation_spec(platform, "gemm", "double", "tiny")]
    if alternate:
        specs.append(operation_spec(platform, "potrf", "double", "tiny"))
    expected = [_threaded_run(platform, s, config, states) for s in specs]
    _TEMPLATES.clear()
    barrier = threading.Barrier(8, timeout=60)
    results: dict[int, object] = {}

    def worker(i: int) -> None:
        barrier.wait()
        results[i] = _threaded_run(platform, specs[i % len(specs)], config, states)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-instantiation
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for i, result in results.items():
        assert result == expected[i % len(specs)]


# ------------------------------------------------------------- per-op constants

def _reference_flops(kind: str, nb: int) -> float:
    n = float(nb)
    if kind == "syrk":
        return n**2 * (n + 1.0)
    if kind == "stencil":
        return 5.0 * n**2
    return {
        "gemm": 2.0, "trsm": 1.0, "potrf": 1.0 / 3.0, "getrf": 2.0 / 3.0,
        "geqrt": 4.0 / 3.0, "ormqr": 2.0, "tsqrt": 10.0 / 3.0, "tsmqr": 4.0,
    }[kind] * n**3


def _reference_activity(kind: str, nb: int, precision: str, spec) -> float:
    base = GemmKernel.square(nb, precision).activity(spec)
    return max(0.05, base * _ACTIVITY[kind])


@pytest.mark.parametrize("model", gpu_models())
@pytest.mark.parametrize("kind", TILE_KINDS)
def test_memoised_constants_equal_uncached_formulas(kind, model):
    spec = gpu_spec(model)
    for nb, precision in ((1920, "double"), (2880, "single"), (5760, "double")):
        op = TileOp(kind, nb, precision)
        assert op.flops == _reference_flops(kind, nb)
        expected = _reference_activity(kind, nb, precision, spec)
        assert op.activity(spec) == expected
        assert op.activity(spec) == expected  # memo hit


def test_activity_memo_tells_ad_hoc_specs_apart():
    base = gpu_spec("A100-SXM4-40GB")
    op = TileOp("trsm", 384, "double")
    assert op.activity(base) == _reference_activity("trsm", 384, "double", base)
    # Ad-hoc specs: equal-valued copies and a genuinely different device,
    # more of them than the memo holds.
    other = gpu_spec("V100-PCIE-32GB")
    for i in range(20):
        spec = dataclasses.replace(other if i % 2 else base, model=f"adhoc-{i}")
        assert op.activity(spec) == _reference_activity("trsm", 384, "double", spec)
    assert op.activity(base) == _reference_activity("trsm", 384, "double", base)
