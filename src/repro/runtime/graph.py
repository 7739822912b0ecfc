"""Tasks and the implicitly-built task graph.

StarPU's *sequential data consistency*: tasks are submitted in program order
and dependencies are inferred from data hazards —

- **RAW**: a reader depends on the last writer of each handle it reads;
- **WAW**: a writer depends on the last writer;
- **WAR**: a writer depends on every reader since the last write.

Edges therefore always point from earlier to later submissions, so the graph
is acyclic by construction.

A :class:`GraphTemplate` records a built graph's structure as flat index
arrays, so the same DAG can be re-instantiated with fresh handles and tasks
without re-running hazard inference.
"""

from __future__ import annotations

import itertools
from array import array
from collections import defaultdict
from enum import Enum
from itertools import islice
from types import MappingProxyType
from typing import Callable, Iterable, Optional, Sequence

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode, DataHandle


class TaskState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"


class Task:
    """One schedulable tile task."""

    __slots__ = (
        "tid",
        "op",
        "accesses",
        "priority",
        "label",
        "payload",
        "state",
        "deps_remaining",
        "successors",
        "worker_name",
        "start_time",
        "end_time",
    )

    def __init__(
        self,
        tid: int,
        op: TileOp,
        accesses: Sequence[tuple[DataHandle, AccessMode]],
        priority: int = 0,
        label: str = "",
        payload: Optional[dict] = None,
    ) -> None:
        self.tid = tid
        self.op = op
        self.accesses = tuple(accesses)
        self.priority = priority
        self.label = label or f"{op.kind}#{tid}"
        self.payload = payload or {}
        self.state = TaskState.CREATED
        self.deps_remaining = 0
        self.successors: list[Task] = []
        self.worker_name: Optional[str] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

    def reads(self) -> list[DataHandle]:
        return [h for h, m in self.accesses if m.reads]

    def writes(self) -> list[DataHandle]:
        return [h for h, m in self.accesses if m.writes]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Task {self.label} prio={self.priority} deps={self.deps_remaining}>"


class TaskGraph:
    """A DAG of tasks built by sequential submission with hazard inference."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self._tid = itertools.count()
        self._last_writer: dict[DataHandle, Task] = {}
        self._readers_since_write: dict[DataHandle, list[Task]] = {}
        self.n_edges = 0
        self._handles: dict[int, DataHandle] = {}
        #: Set on template instances, whose hazard maps are rebuilt from
        #: the submitted accesses only if more tasks are added.
        self._hazards_stale = False

    def add_task(
        self,
        op: TileOp,
        accesses: Sequence[tuple[DataHandle, AccessMode]],
        priority: int = 0,
        label: str = "",
        payload: Optional[dict] = None,
    ) -> Task:
        """Submit a task; dependencies are inferred from data hazards."""
        if self._hazards_stale:
            self._replay_hazards(self.tasks)
            self._hazards_stale = False
        task = Task(next(self._tid), op, accesses, priority, label, payload)
        handles = self._handles
        last_writer = self._last_writer
        readers_since_write = self._readers_since_write
        deps: dict[int, Task] = {}
        for handle, mode in task.accesses:
            handles[handle.hid] = handle
            readers = readers_since_write.get(handle)
            if mode.writes and readers:
                # WAR edges; RAW/WAW edges to the last writer are implied
                # transitively through these readers.
                for reader in readers:
                    deps[reader.tid] = reader
            else:
                writer = last_writer.get(handle)
                if writer is not None:
                    deps[writer.tid] = writer  # RAW and/or WAW
        for dep in deps.values():
            dep.successors.append(task)
        task.deps_remaining = len(deps)
        self.n_edges += len(deps)
        self._replay_hazards((task,))
        self.tasks.append(task)
        return task

    def _replay_hazards(self, tasks: Iterable[Task]) -> None:
        """Advance the last-writer / readers-since-write maps over ``tasks``."""
        last_writer = self._last_writer
        readers = self._readers_since_write
        for task in tasks:
            for handle, mode in task.accesses:
                if mode.writes:
                    last_writer[handle] = task
                    readers[handle] = []
                elif mode.reads:
                    readers.setdefault(handle, []).append(task)

    # ----------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def handles(self) -> list[DataHandle]:
        return list(self._handles.values())

    def roots(self) -> list[Task]:
        return [t for t in self.tasks if t.deps_remaining == 0]

    def total_flops(self) -> float:
        return sum(t.op.flops for t in self.tasks)

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.tasks:
            out[t.op.kind] = out.get(t.op.kind, 0) + 1
        return out

    # ------------------------------------------------------------- analysis

    def validate(self) -> None:
        """Check structural sanity (dep counts match incoming edges)."""
        incoming = {t.tid: 0 for t in self.tasks}
        for t in self.tasks:
            for s in t.successors:
                if s.tid <= t.tid:
                    raise ValueError("edge does not respect submission order")
                incoming[s.tid] += 1
        for t in self.tasks:
            if t.state is TaskState.CREATED and incoming[t.tid] != t.deps_remaining:
                raise ValueError(f"dep count mismatch on {t.label}")

    def critical_path(
        self, weight: Optional[Callable[[Task], float]] = None
    ) -> tuple[float, list[Task]]:
        """Longest path through the DAG.

        ``weight`` defaults to 1 per task (path length in tasks).  Returns
        ``(length, path)``.
        """
        if weight is None:
            weight = lambda t: 1.0  # noqa: E731
        best: dict[int, float] = {}
        best_succ: dict[int, Optional[Task]] = {}
        # Reverse submission order is a reverse topological order.
        for t in reversed(self.tasks):
            w = weight(t)
            if t.successors:
                nxt = max(t.successors, key=lambda s: best[s.tid])
                best[t.tid] = w + best[nxt.tid]
                best_succ[t.tid] = nxt
            else:
                best[t.tid] = w
                best_succ[t.tid] = None
        if not self.tasks:
            return 0.0, []
        start = max(self.tasks, key=lambda t: best[t.tid])
        path = [start]
        while best_succ[path[-1].tid] is not None:
            path.append(best_succ[path[-1].tid])
        return best[start.tid], path

    def depth_priorities(self) -> None:
        """Assign each task's priority = longest path (in tasks) to a sink.

        This is the runtime-agnostic equivalent of Chameleon's expert-tuned
        priorities: tasks deep on the critical path sort first in ``dmdas``.
        """
        depth: dict[int, int] = {}
        for t in reversed(self.tasks):
            deepest = 0
            for s in t.successors:
                d = depth[s.tid]
                if d > deepest:
                    deepest = d
            t.priority = depth[t.tid] = 1 + deepest


#: Payload of every template instance (see :class:`GraphTemplate`).
_NO_PAYLOAD = MappingProxyType({})


class GraphTemplate:
    """Immutable structure of a freshly built :class:`TaskGraph`.

    Columns hold each task's op, label, priority, dependency count and
    numbers of accesses and successors; accesses (indices into the distinct
    ``(handle index, mode)`` pairs) and successors (tids) are flat integer
    arrays.  All are in *reverse* tid order, so :meth:`instantiate` builds
    each task after its successors in one pass.  Handles are ``(nbytes,
    label, home_node)`` in ``graph.handles`` order.  No live handle or task
    is kept; ops and labels are immutable and shared by every instance.
    :meth:`instantiate` only reads the template, so it is thread-safe.

    Payloads are not recorded: they name tiles of the matrices of the build
    they came from, and keeping them alive cost about 1 MB of peak RSS on a
    cold ``repro all --scale small``.  Instances carry an empty read-only
    payload; numeric execution uses the :mod:`repro.linalg` builders.
    """

    __slots__ = (
        "handles", "pairs", "ops", "labels", "priorities", "deps",
        "n_accesses", "access_pairs", "n_successors", "successor_tids", "n_edges",
    )

    def __init__(self, graph: TaskGraph) -> None:
        handles = graph.handles
        tasks = graph.tasks
        for i, t in enumerate(tasks):
            if t.tid != i or t.state is not TaskState.CREATED:
                raise ValueError("a template needs a freshly built graph")
        rev = tasks[::-1]
        # Number each distinct (handle, mode) pair on first sight.
        pair_index: defaultdict = defaultdict(itertools.count().__next__)
        self.access_pairs = array("I", [pair_index[a] for t in rev for a in t.accesses])
        handle_index = {h: i for i, h in enumerate(handles)}
        self.pairs = tuple([(handle_index[h], mode) for h, mode in pair_index])
        self.handles = tuple([(h.nbytes, h.label, h.home_node) for h in handles])
        self.successor_tids = array("I", [s.tid for t in rev for s in t.successors])
        self.n_accesses = array("I", [len(t.accesses) for t in rev])
        self.n_successors = array("I", [len(t.successors) for t in rev])
        self.ops = tuple([t.op for t in rev])
        self.labels = tuple([t.label for t in rev])
        self.priorities = tuple([t.priority for t in rev])
        self.deps = tuple([t.deps_remaining for t in rev])
        self.n_edges = graph.n_edges

    @staticmethod
    def strip(graph: TaskGraph) -> TaskGraph:
        """Reduce a recorded graph to exactly what an instance carries.

        Drops its payloads and hazard maps (rebuilt lazily if tasks are
        added), so the graph a template was recorded from can be handed out
        in place of a first instance.
        """
        for task in graph.tasks:
            task.payload = _NO_PAYLOAD
        graph._last_writer.clear()
        graph._readers_since_write.clear()
        graph._hazards_stale = True
        return graph

    def instantiate(self) -> TaskGraph:
        """A fresh graph: new handles and tasks, same structure.

        Tids, access order, successor order, dependency counts, priorities
        and the ``handles`` order all match the graph the template was
        recorded from; no mutable state is shared with other instances.
        """
        handles = [DataHandle(n, label, home) for n, label, home in self.handles]
        # One (handle, mode) tuple per distinct pair, shared by the tasks'
        # access tuples (tuples are immutable).
        pairs = [(handles[h], mode) for h, mode in self.pairs]
        n = len(self.ops)
        tasks: list = [None] * n
        # Lazy maps: each task pulls its slice as it is built, and its
        # successors (higher tids) are already in ``tasks`` by then.
        accesses = map(pairs.__getitem__, self.access_pairs)
        successors = map(tasks.__getitem__, self.successor_tids)
        new = Task.__new__
        created = TaskState.CREATED
        for tid, op, label, priority, deps, n_accesses, n_successors in zip(
            range(n - 1, -1, -1), self.ops, self.labels, self.priorities,
            self.deps, self.n_accesses, self.n_successors,
        ):
            # Sets every Task slot, as Task.__init__ does.
            task = new(Task)
            task.tid = tid
            task.op = op
            task.accesses = tuple(islice(accesses, n_accesses))
            task.priority = priority
            task.label = label
            task.payload = _NO_PAYLOAD
            task.state = created
            task.deps_remaining = deps
            task.successors = list(islice(successors, n_successors))
            task.worker_name = None
            task.start_time = None
            task.end_time = None
            tasks[tid] = task
        graph = TaskGraph()
        graph.tasks = tasks
        graph._tid = itertools.count(n)
        graph.n_edges = self.n_edges
        graph._handles = {h.hid: h for h in handles}
        graph._hazards_stale = True
        return graph


def ready_tasks(tasks: Iterable[Task]) -> list[Task]:
    return [t for t in tasks if t.deps_remaining == 0 and t.state is TaskState.CREATED]
