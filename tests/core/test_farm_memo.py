"""The shared per-(model, kernel) farm curve memo.

Every FarmGPU of one GPU model running one kernel reads and fills one
per-cap curve.  The memo must never change a value: each point equals a
fresh device evaluated at that cap, whichever FarmGPU, order or thread
computed it first.
"""

import sys
import threading

import pytest

from repro.cluster import farm
from repro.cluster.budget import device_best_cap
from repro.cluster.farm import FarmGPU
from repro.hardware.catalog import gpu_models, gpu_spec
from repro.hardware.gpu import GPUDevice
from repro.kernels.gemm import GemmKernel
from repro.sim import Simulator

#: Tile sizes of the tiny-scale operation specs.
TILES = (1920, 2880)


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(farm, "_CURVES", {})


def _fresh(model: str, kernel: GemmKernel, cap_w: float) -> tuple:
    device = GPUDevice(gpu_spec(model), 0, Simulator())
    device.set_power_limit(cap_w)
    return kernel.gflops_on_gpu(device), kernel.power_on_gpu(device)


def _grid(gpu, step_w: float) -> list[float]:
    """The caps device_best_cap evaluates (same arithmetic)."""
    lo, hi = gpu.cap_range
    steps = max(1, int((hi - lo) / step_w))
    return [lo + (hi - lo) * k / steps for k in range(steps + 1)]


@pytest.mark.parametrize("model", gpu_models())
@pytest.mark.parametrize("precision", ["double", "single"])
def test_shared_curve_equals_fresh_device(empty_memo, model, precision):
    for nb in TILES:
        kernel = GemmKernel.square(nb, precision)
        # A first FarmGPU fills the curve in reverse grid order; a second
        # one reads it.  Both must see exactly the fresh-device values.
        filler, reader = FarmGPU(model, kernel), FarmGPU(model, kernel)
        for step_w in (2.5, 4.0):
            grid = _grid(reader, step_w)
            for cap in reversed(grid):
                filler.efficiency(cap)
            best_c, best_e = None, -1.0
            for cap in grid:
                gflops, watts = _fresh(model, kernel, cap)
                assert reader.throughput(cap) == gflops
                assert reader.power(cap) == watts
                assert reader.efficiency(cap) == gflops / watts
                if gflops / watts > best_e:
                    best_c, best_e = cap, gflops / watts
            assert device_best_cap(reader, step_w=step_w) == best_c


def test_identical_gpus_compute_one_curve(empty_memo, monkeypatch):
    calls = []
    original = GemmKernel.gflops_on_gpu

    def counted(self, gpu):
        calls.append(gpu)
        return original(self, gpu)

    monkeypatch.setattr(GemmKernel, "gflops_on_gpu", counted)
    kernel = GemmKernel.square(2880, "double")
    gpus = [FarmGPU("A100-SXM4-40GB", kernel) for _ in range(4)]
    caps = [device_best_cap(g, step_w=2.5) for g in gpus]
    assert len(set(caps)) == 1
    assert len(calls) == len(set(_grid(gpus[0], 2.5)))
    # Only the first GPU ever evaluated a point.
    assert {id(device) for device in calls} == {id(gpus[0].device)}


def test_later_phase_reuses_the_curve(empty_memo):
    kernel = GemmKernel.square(1920, "single")
    first = FarmGPU("V100-PCIE-32GB", kernel)
    device_best_cap(first)
    again = FarmGPU("V100-PCIE-32GB", GemmKernel.square(1920, "single"))
    assert again._curve is first._curve
    device_best_cap(again)
    assert again.device.power_limit_w == again.device.spec.cap_max_w  # unused


def test_curve_registry_respects_its_bound(empty_memo, monkeypatch):
    monkeypatch.setattr(farm, "CURVE_MEMO_SIZE", 2)
    for nb in (960, 1920, 2880, 5760):
        FarmGPU("A100-SXM4-40GB", GemmKernel.square(nb, "double")).throughput(200.0)
        assert len(farm._CURVES) <= 2


def test_curve_points_respect_their_bound(empty_memo, monkeypatch):
    monkeypatch.setattr(farm, "CURVE_MEMO_POINTS", 8)
    kernel = GemmKernel.square(2880, "double")
    gpu = FarmGPU("A100-SXM4-40GB", kernel)
    for cap in _grid(gpu, 10.0):
        assert gpu.throughput(cap) == _fresh("A100-SXM4-40GB", kernel, cap)[0]
        assert len(gpu._curve) <= 8


def test_concurrent_fillers_agree(empty_memo, monkeypatch):
    kernel = GemmKernel.square(2880, "double")
    serial = [
        FarmGPU(model, kernel).efficiency(cap)
        for model in ("A100-SXM4-40GB", "V100-PCIE-32GB")
        for cap in _grid(FarmGPU(model, kernel), 2.5)
    ]
    monkeypatch.setattr(farm, "_CURVES", {})
    results: dict[int, list] = {}

    def worker(k: int) -> None:
        results[k] = [
            FarmGPU(model, kernel).efficiency(cap)
            for model in ("A100-SXM4-40GB", "V100-PCIE-32GB")
            for cap in _grid(FarmGPU(model, kernel), 2.5)
        ]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    assert all(results[k] == serial for k in range(8))
    assert len(farm._CURVES) == 2
