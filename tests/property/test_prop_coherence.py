"""Property-based tests: MSI coherence and device-memory accounting."""

from hypothesis import example, given, settings, strategies as st

from repro.hardware.catalog import build_platform
from repro.runtime.data import AccessMode, CoherenceError, DataHandle, DataManager, MemoryManager
from repro.sim import Simulator


@st.composite
def coherence_programs(draw):
    n_handles = draw(st.integers(1, 5))
    n_ops = draw(st.integers(1, 30))
    ops = []
    for _ in range(n_ops):
        ops.append(
            (
                draw(st.integers(0, n_handles - 1)),
                draw(st.sampled_from(list(AccessMode))),
                draw(st.integers(0, 4)),  # target memory node (0..4 on 4-GPU node)
            )
        )
    return n_handles, ops


@settings(max_examples=60, deadline=None)
@given(coherence_programs())
def test_msi_invariants_hold_under_any_access_sequence(program):
    n_handles, ops = program
    node = build_platform("32-AMD-4-A100", Simulator())
    dm = DataManager(node)
    handles = [DataHandle(1_000_000, f"h{i}") for i in range(n_handles)]
    now = 0.0
    for idx, mode, target in ops:
        h = handles[idx]
        ready = dm.acquire([(h, mode)], target, now)
        assert ready >= now
        dm.release([(h, mode)], target)
        # MSI invariants after every operation:
        h.check_invariants()
        if mode.reads and h.owner is None:
            assert target in h.valid_nodes
        if mode.writes:
            assert h.valid_nodes == {target}
        now = max(now, ready)
    # Final flush restores host copies of everything.
    dm.flush_to_host(handles)
    for h in handles:
        assert 0 in h.valid_nodes and h.owner is None


@st.composite
def memory_programs(draw):
    n_ops = draw(st.integers(1, 40))
    ops = []
    for _ in range(n_ops):
        ops.append(
            (
                draw(st.sampled_from(["add", "pin", "unpin", "touch", "remove"])),
                draw(st.integers(0, 7)),
            )
        )
    return ops


@settings(max_examples=60, deadline=None)
@given(memory_programs())
def test_memory_manager_accounting_is_exact(ops):
    mm = MemoryManager(1, capacity_bytes=1000)
    handles = [DataHandle(draw_size, f"h{i}") for i, draw_size in enumerate([200] * 8)]
    pins: dict[int, int] = {}
    for action, idx in ops:
        h = handles[idx]
        try:
            if action == "add":
                mm.add(h)
            elif action == "pin":
                if mm.resident(h):
                    mm.pin(h)
                    pins[idx] = pins.get(idx, 0) + 1
            elif action == "unpin":
                if pins.get(idx):
                    mm.unpin(h)
                    pins[idx] -= 1
            elif action == "touch":
                mm.touch(h)
            elif action == "remove":
                if not pins.get(idx):
                    mm.remove(h)
        except CoherenceError:
            pass  # all-pinned: legal refusal
        # Accounting invariants after every step:
        assert mm.used_bytes == sum(h2.nbytes for h2 in mm._resident)
        assert 0 <= mm.used_bytes <= mm.capacity_bytes


# --------------------------------------------------- set-based MSI reference

#: Small device memories: three handles fit on each GPU, so evictions (and
#: dirty write-backs) happen within a few operations.
HANDLE_BYTES = 1_000_000
HANDLES_PER_GPU = 3
N_HANDLES = 5
NODES = (0, 1, 2, 3, 4)  # host + the 4 GPUs of 32-AMD-4-A100


class ReferenceMSI:
    """The coherence rules restated over plain sets and lists.

    ``valid[h]`` is the set of nodes with a valid replica, ``owner[h]`` the
    node holding the sole dirty replica, ``lru[n]`` node ``n``'s residency
    in LRU order and ``pins[n]`` its pin counts.  Evictions go through
    :meth:`evict`, which asserts that no eviction drops the last replica.
    """

    def __init__(self, n_handles: int) -> None:
        self.valid = {h: {0} for h in range(n_handles)}
        self.owner: dict[int, object] = dict.fromkeys(range(n_handles))
        self.lru: dict[int, list[int]] = {n: [] for n in NODES if n}
        self.pins: dict[int, dict[int, int]] = {n: {} for n in NODES if n}
        self.evictions = 0

    def _pinned_bytes(self, node: int) -> int:
        return HANDLE_BYTES * sum(1 for c in self.pins[node].values() if c)

    def _add(self, h: int, node: int) -> None:
        lru = self.lru[node]
        if h in lru:
            lru.remove(h)
            lru.append(h)
            return
        while HANDLE_BYTES * (len(lru) + 1) > HANDLE_BYTES * HANDLES_PER_GPU:
            victim = next(v for v in lru if not self.pins[node].get(v))
            lru.remove(victim)
            self.evict(victim, node)
        lru.append(h)

    def evict(self, h: int, node: int) -> None:
        self.evictions += 1
        if self.owner[h] == node:
            self.owner[h] = None
            self.valid[h] = {0}  # written back to the host
        else:
            self.valid[h].discard(node)
            assert self.valid[h], "evicted the sole replica"

    def _fetch(self, h: int, target: int) -> None:
        valid = self.valid[h]
        source = self.owner[h]
        if source is None:
            source = 0 if 0 in valid else min(valid)
        if source != 0 and 0 not in valid:
            valid.add(0)  # relayed through the host
            self.owner[h] = None
        valid.add(target)
        if self.owner[h] is not None and self.owner[h] != target:
            self.owner[h] = None

    def can_pin(self, node: int) -> bool:
        return node == 0 or (
            self._pinned_bytes(node) + HANDLE_BYTES <= HANDLE_BYTES * HANDLES_PER_GPU
        )

    def acquire(self, h: int, mode: AccessMode, node: int) -> None:
        if node:
            self._add(h, node)
            self.pins[node][h] = self.pins[node].get(h, 0) + 1
        if node not in self.valid[h] and mode.reads:
            self._fetch(h, node)

    def release(self, h: int, mode: AccessMode, node: int) -> None:
        if mode.writes:
            for other in self.valid[h] - {node, 0}:
                if h in self.lru[other]:
                    self.lru[other].remove(h)
            self.valid[h] = {node}
            self.owner[h] = node if node else None
        if node:
            count = self.pins[node].pop(h, 0)
            if count > 1:
                self.pins[node][h] = count - 1

    def prefetch(self, h: int, node: int) -> None:
        if node in self.valid[h]:
            return
        if node:
            if HANDLE_BYTES > HANDLE_BYTES * HANDLES_PER_GPU - self._pinned_bytes(node):
                return
            self._add(h, node)
        self._fetch(h, node)

    def flush(self) -> None:
        for h, owner in self.owner.items():
            if owner is not None:
                self.owner[h] = None
                self.valid[h].add(0)


@st.composite
def msi_programs(draw):
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["acquire", "acquire", "release", "prefetch", "flush"]))
        steps.append((
            kind,
            draw(st.integers(0, N_HANDLES - 1)),
            draw(st.sampled_from(list(AccessMode))),
            draw(st.sampled_from(NODES)),
            draw(st.integers(0, 7)),  # which outstanding acquire to release
        ))
    return steps


def _dirty_eviction() -> list:
    # Write h0 on GPU 1, then stage three more handles there: the LRU
    # victim is h0's dirty sole replica, which must be written back.
    steps = [("acquire", 0, AccessMode.RW, 1, 0), ("release", 0, AccessMode.R, 0, 0)]
    for h in (1, 2, 3):
        steps += [("acquire", h, AccessMode.R, 1, 0), ("release", 0, AccessMode.R, 0, 0)]
    return steps


def _relay_then_prefetch() -> list:
    # A dirty replica on GPU 2 read on GPU 3 relays through the host; a
    # prefetch onto GPU 4 then shares it four ways.
    return [
        ("acquire", 4, AccessMode.W, 2, 0), ("release", 0, AccessMode.R, 0, 0),
        ("acquire", 4, AccessMode.R, 3, 0), ("prefetch", 4, AccessMode.R, 4, 0),
        ("release", 0, AccessMode.R, 0, 0), ("flush", 0, AccessMode.R, 0, 0),
    ]


@example(_dirty_eviction())
@example(_relay_then_prefetch())
@settings(max_examples=150, deadline=None)
@given(msi_programs())
def test_bitmask_coherence_matches_set_reference(steps):
    node = build_platform("32-AMD-4-A100", Simulator())
    dm = DataManager(node)
    for mgr in dm.managers.values():
        mgr.capacity_bytes = HANDLE_BYTES * HANDLES_PER_GPU
    handles = [DataHandle(HANDLE_BYTES, f"h{i}") for i in range(N_HANDLES)]
    model = ReferenceMSI(N_HANDLES)
    outstanding: list[tuple[int, AccessMode, int]] = []
    for i, (kind, h, mode, target, pick) in enumerate(steps):
        now = i * 1e-3
        if kind == "acquire":
            if not model.can_pin(target):
                continue  # a scheduler never over-pins a device
            dm.acquire([(handles[h], mode)], target, now)
            model.acquire(h, mode, target)
            outstanding.append((h, mode, target))
        elif kind == "release":
            if not outstanding:
                continue
            h, mode, target = outstanding.pop(pick % len(outstanding))
            dm.release([(handles[h], mode)], target)
            model.release(h, mode, target)
        elif kind == "prefetch":
            dm.prefetch([(handles[h], AccessMode.R)], target)
            model.prefetch(h, target)
        else:
            dm.flush_to_host(handles)
            model.flush()
        for idx, handle in enumerate(handles):
            handle.check_invariants()
            assert handle.valid_nodes == model.valid[idx]
            assert handle.valid_mask == sum(1 << n for n in model.valid[idx])
            assert handle.owner == model.owner[idx]
            # At most one dirty owner, and it holds the sole replica.
            if handle.owner is not None:
                assert handle.valid_mask == 1 << handle.owner
        for n, mgr in dm.managers.items():
            assert [handles.index(x) for x in mgr._resident] == model.lru[n]
            assert {handles.index(x): c for x, c in mgr._pinned.items()} == {
                x: c for x, c in model.pins[n].items() if c
            }
    assert sum(m.n_evictions for m in dm.managers.values()) == model.evictions
