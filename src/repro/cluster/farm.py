"""A farm of (possibly heterogeneous) GPUs running a steady kernel stream.

Each farm GPU continuously executes one kernel type (a training step, a
GEMM-heavy solver iteration, ...).  Throughput and power at a given cap come
from the calibrated kernel/power models, so allocation quality can be
evaluated analytically — the same abstraction cluster-level power managers
([26], [27] in the paper) operate on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.hardware.catalog import gpu_spec
from repro.hardware.gpu import GPUDevice
from repro.hardware.specs import GPUSpec
from repro.kernels.gemm import GemmKernel
from repro.sim import Simulator

#: ``(model, kernel)`` curves the shared memo holds before starting over.
CURVE_MEMO_SIZE = 64
#: Cap points one curve holds before starting over (quantized allocators
#: and ladder scans touch a few hundred per curve).
CURVE_MEMO_POINTS = 4096

# (model, kernel) -> (spec, {cap_w: (gflops, watts)}).  The curve points are
# pure functions of (spec, kernel, cap), so every FarmGPU of one model
# running one kernel shares one curve: identical devices, later workload
# phases, later scenarios and the planner's ladder scans reuse it.  A stored
# point never changes, so nothing needs invalidating; the entry holds its
# spec so a replaced catalog spec can never alias a stale curve.
_CURVES: dict[tuple[str, GemmKernel], tuple[GPUSpec, dict]] = {}
_CURVES_LOCK = threading.Lock()


def _shared_curve(spec: GPUSpec, kernel: GemmKernel) -> dict:
    """The shared per-cap memo of one (GPU spec, kernel) curve.

    Thread-safe: the registry is only modified under a lock, and a curve's
    points are pure values, so concurrent writers store identical entries.
    """
    key = (spec.model, kernel)
    entry = _CURVES.get(key)
    if entry is None or entry[0] is not spec:
        with _CURVES_LOCK:
            entry = _CURVES.get(key)
            if entry is None or entry[0] is not spec:
                if len(_CURVES) >= CURVE_MEMO_SIZE:
                    _CURVES.clear()  # ad-hoc kernels must not pile up
                entry = _CURVES[key] = (spec, {})
    return entry[1]


@dataclass
class FarmGPU:
    """One device of the farm plus its steady workload."""

    model: str
    kernel: GemmKernel
    device: GPUDevice = field(init=False)
    # Per-cap memo shared with every FarmGPU of the same (model, kernel):
    # iterative allocators (water-filling, the online governor's tick loop)
    # re-evaluate the same quantized caps thousands of times.
    _curve: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        spec = gpu_spec(self.model)
        self.device = GPUDevice(spec, 0, Simulator())
        self._curve = _shared_curve(spec, self.kernel)

    @property
    def cap_range(self) -> tuple[float, float]:
        spec = self.device.spec
        return spec.cap_min_w, spec.cap_max_w

    def _at(self, cap_w: float) -> tuple[float, float]:
        curve = self._curve
        entry = curve.get(cap_w)
        if entry is None:
            self.device.set_power_limit(cap_w)
            entry = (
                self.kernel.gflops_on_gpu(self.device),
                self.kernel.power_on_gpu(self.device),
            )
            if len(curve) >= CURVE_MEMO_POINTS:
                curve.clear()
            curve[cap_w] = entry
        return entry

    def throughput(self, cap_w: float) -> float:
        """Gflop/s sustained at a cap."""
        return self._at(cap_w)[0]

    def power(self, cap_w: float) -> float:
        """Average draw at a cap (below the cap for generous budgets)."""
        return self._at(cap_w)[1]

    def efficiency(self, cap_w: float) -> float:
        gflops, watts = self._at(cap_w)
        return gflops / watts


class GPUFarm:
    """Aggregate metrics of an allocation over a set of farm GPUs."""

    def __init__(self, gpus: list[FarmGPU]) -> None:
        if not gpus:
            raise ValueError("farm needs at least one GPU")
        self.gpus = gpus

    def __len__(self) -> int:
        return len(self.gpus)

    def min_budget(self) -> float:
        return sum(g.cap_range[0] for g in self.gpus)

    def max_budget(self) -> float:
        return sum(g.cap_range[1] for g in self.gpus)

    def validate_allocation(self, caps: list[float], budget_w: float) -> None:
        if len(caps) != len(self.gpus):
            raise ValueError("one cap per GPU required")
        for cap, gpu in zip(caps, self.gpus):
            lo, hi = gpu.cap_range
            if not lo - 1e-9 <= cap <= hi + 1e-9:
                raise ValueError(f"cap {cap} W outside [{lo}, {hi}] for {gpu.model}")
        if sum(caps) > budget_w + 1e-6:
            raise ValueError(f"allocation {sum(caps):.0f} W exceeds budget {budget_w:.0f} W")

    def total_throughput(self, caps: list[float]) -> float:
        return sum(g.throughput(c) for g, c in zip(self.gpus, caps))

    def total_power(self, caps: list[float]) -> float:
        return sum(g.power(c) for g, c in zip(self.gpus, caps))

    def total_efficiency(self, caps: list[float]) -> float:
        return self.total_throughput(caps) / self.total_power(caps)
