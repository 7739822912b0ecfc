"""advise-open: advisor requests answered by an ``AdvisorServer`` in this process.

The service, coalesce and cache-read layers dominate here while the
simulator does almost nothing; it is the read-heavy counterpart of
figures-cold's write-only caching.  The server (``--shards 1``) runs on a
thread of the benchmark process and answers a fixed request set over
keep-alive connections: every working-set query (Table II rows x
objectives at tiny scale) REPEATS times in a seed-shuffled order, and after
every NEW_AFTER-th of those a never-seen one-config query (3%), every
BURST_EVERY-th of them sent as BURST_SIZE identical concurrent requests
that the server coalesces.

An operation is one request (one burst for a burst), sent when the
previous one is answered and timed by an :class:`hostspeed.OpClock` in the
sending thread.  Client and server threads share one core; the reference
loops run while the server is idle, so they measure the core's speed and
nothing else.

The server runs one shard: with more, concurrent cold computations read
each other's energy through the process-global NVML node (see
tests/test_shard_energy.py).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import common
import hostspeed

#: Times each working-set query is asked per run.
REPEATS = 40
#: A never-seen query follows every NEW_AFTER-th warm request, and every
#: BURST_EVERY-th of those is sent as BURST_SIZE identical requests; fixed
#: positions, not coin flips, so every run carries the same cold load.
NEW_AFTER = 32
BURST_EVERY = 3
BURST_SIZE = 4
#: Every OVERHEAD_STRIDE-th warm request of a traced run is re-sent untraced.
OVERHEAD_STRIDE = 10
#: ``tail_ms`` percentile: it falls among the never-seen queries.
TAIL_Q = 99.0
OBJECTIVES = ("efficiency", "gflops", "energy", "makespan", "edp", "ed2p",
              "weighted")

_METRICS = {
    "service.requests": "repro_service_requests_total",
    "service.computations": "repro_service_advise_computations_total",
    "service.coalesced": "repro_service_advise_coalesced_total",
    "service.warm_hits": "repro_service_advise_warm_total",
    "service.rejected_429": "repro_service_backpressure_total",
    "service.timeouts": "repro_service_timeouts_total",
}


def working_set() -> dict[str, dict]:
    """Query id -> advise body, Table II rows x objectives."""
    from repro.experiments.platforms import TABLE2_PAPER

    out = {}
    for platform, op, precision in TABLE2_PAPER:
        for objective in OBJECTIVES:
            body = {"platform": platform, "op": op, "precision": precision,
                    "scale": "tiny", "objective": objective}
            if objective == "weighted":
                body["weights"] = {"energy": 0.5, "time": 0.5}
            out[f"{platform}/{op}/{precision}/{objective}"] = body
    return out


def new_query(seed: int, k: int) -> dict:
    """A never-seen query: one config, a seed no other run uses."""
    return {"platform": "24-Intel-2-V100", "op": "gemm", "precision": "double",
            "scale": "tiny", "configs": ["HH"],
            "seed": 1_000_000 + seed * 100_000 + k}


def requests(seed: int, warm: list[dict]) -> list[tuple[str, dict, int]]:
    """``(kind, body, copies)`` operations of one run, in sending order."""
    order = warm * REPEATS
    random.Random(seed).shuffle(order)
    out = []
    for i, body in enumerate(order, 1):
        out.append(("warm", body, 1))
        if i % NEW_AFTER == 0:
            k = i // NEW_AFTER
            copies = BURST_SIZE if k % BURST_EVERY == 0 else 1
            out.append(("new", new_query(seed, k), copies))
    return out


def advice_digest(advice: dict) -> str:
    """Digest of an advice document minus its code-fingerprint provenance."""
    doc = {k: v for k, v in advice.items() if k != "provenance"}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def in_process_advice(cache_dir: str, queries: dict[str, dict]) -> dict[str, dict]:
    """Advice computed here with ``repro.service.advisor.evaluate``."""
    from repro.cache import ExperimentCache
    from repro.service.advisor import evaluate
    from repro.service.protocol import parse_advise_request

    cache = ExperimentCache(cache_dir)
    return {qid: evaluate(parse_advise_request(body), cache)
            for qid, body in queries.items()}


# ---------------------------------------------------------------- server

class Server:
    """An ``AdvisorServer`` (one shard) on a thread of this process."""

    def __init__(self, cache_dir: str) -> None:
        from repro.service.client import wait_ready
        from repro.service.server import AdvisorServer

        self.server = AdvisorServer(cache_dir=cache_dir, port=0, shards=1)
        self.error: BaseException | None = None
        started = threading.Event()

        def serve() -> None:
            try:
                asyncio.run(self.server.run(install_signals=False,
                                            ready=lambda s: started.set()))
            except BaseException as exc:  # reported by stop()
                self.error = exc

        self.thread = threading.Thread(target=serve, name="advise-loop")
        self.thread.start()
        if not (started.wait(30) and wait_ready("127.0.0.1", self.port, 30)):
            self.stop()
            raise RuntimeError("advisor server never answered /v1/healthz")

    @property
    def port(self) -> int:
        return self.server.port

    def cpu_s(self) -> float:
        """CPU seconds of the server's threads (event loop and pools)."""
        total = 0.0
        for thread in threading.enumerate():
            if thread.name.startswith("advise-") and thread.ident is not None:
                total += time.clock_gettime(
                    time.pthread_getcpuclockid(thread.ident))
        return total

    def stop(self) -> bool:
        """Graceful drain; True when the serving thread ended cleanly."""
        self.server.stop_threadsafe()
        self.thread.join(timeout=60)
        return not self.thread.is_alive() and self.error is None


def metrics_counts(client) -> dict[str, float]:
    totals: dict[str, float] = {}
    for line in client.metrics().splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        if name == "repro_service_requests_total" and 'route="advise"' not in name_labels:
            continue
        totals[name] = totals.get(name, 0.0) + float(value)
    return {metric: totals.get(prom, 0.0) for metric, prom in _METRICS.items()}


class Sender:
    """Sends one operation: a request, or a burst of identical ones.

    A burst goes out over BURST_SIZE connections at once, one per helper
    thread; a single request over the caller's own connection.
    """

    def __init__(self, port: int) -> None:
        from repro.service.client import AdvisorClient

        self._client_cls = AdvisorClient
        self.port = port
        self.client = AdvisorClient("127.0.0.1", port)
        self._local = threading.local()
        self._pool = ThreadPoolExecutor(BURST_SIZE, thread_name_prefix="burst")
        self._helpers: list = []
        self._lock = threading.Lock()

    def _helper_client(self):
        client = getattr(self._local, "client", None)
        if client is None:
            client = self._local.client = self._client_cls("127.0.0.1", self.port)
            with self._lock:
                self._helpers.append(client)
        return client

    def send(self, body: dict, copies: int = 1) -> list:
        if copies == 1:
            return [self.client.advise(body)]
        futures = [self._pool.submit(lambda: self._helper_client().advise(body))
                   for _ in range(copies)]
        return [f.result() for f in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        for client in [self.client, *self._helpers]:
            client.close()


# ---------------------------------------------------------------- workload

def run(seed: int, seconds: int, trace: bool, work: Path) -> dict:
    setup_samples = common.launches("serve", work, common.SETUP_LAUNCHES[0])

    cache_dir = str(work / "cache")
    queries = working_set()
    expected_docs = in_process_advice(cache_dir, queries)  # warms the cache
    ops = requests(seed, list(queries.values()))

    layers = None
    if trace:
        import probes

        import repro.service.server  # noqa: F401  (load before rebinding)

        spool = work / "spool"
        spool.mkdir()
        layers = probes.LayerProbes(spool)

    from repro.service.client import advice_bytes

    # One core for the client and every server thread (they inherit the
    # affinity): each hand-over of a request between threads is then a
    # switch on a busy core, not a wake-up of an idle one, whose host-side
    # latency the reference loop (thread CPU time) cannot see.  Unpinned,
    # two runs at the same median speed factor took 9.6 and 11.5 s raw for
    # the same requests.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    server = Server(cache_dir)
    sender = None
    try:
        sender = Sender(server.port)
        clock = hostspeed.OpClock()
        responses: list[list] = []
        kept: list[tuple] = []
        cpu0 = server.cpu_s()
        steal0 = common.steal_s()
        t0 = time.perf_counter()
        for kind, body, copies in ops:
            if trace and kind == "warm" and len(responses) % OVERHEAD_STRIDE == 0:
                kept.append((len(responses), sender.send, (body,), {}))
            responses.append(clock.timed(sender.send, body, copies))
        window = time.perf_counter() - t0
        steal = common.steal_s() - steal0
        cpu_s = server.cpu_s() - cpu0
        snap = layers.snapshot() if layers is not None else None
        overhead = (probes.trace_overhead(layers, kept, clock.samples)
                    if layers is not None else None)

        served = {qid: sender.client.advise(body) for qid, body in queries.items()}
        counts = metrics_counts(sender.client)
    finally:
        if sender is not None:
            sender.close()
        stopped = server.stop()
        os.sched_setaffinity(0, cpus)

    # ------------------------------------------------------------- checks
    checks = common.Checks()
    digests = common.load_digests()["advise-open"]
    ok_digest = ok_local = 0
    for qid, response in served.items():
        if response.status != 200:
            continue
        advice = response.doc["advice"]
        ok_digest += int(digests.get(qid) == advice_digest(advice))
        local = json.dumps(expected_docs[qid], sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
        ok_local += int(advice_bytes(response) == local)
    n = len(queries)
    checks.add("advice_digests", ok_digest == n, ok_digest, f"{ok_digest}/{n}")
    checks.add("advice_matches_in_process_evaluate", ok_local == n, ok_local,
               f"{ok_local}/{n}")
    statuses = [r.status for group in responses for r in group]
    failed = sum(1 for s in statuses if s != 200)
    checks.add("requests_answered_200", failed == 0, len(statuses) - failed,
               f"{failed} non-200")
    bursts = [group for group in responses if len(group) > 1]
    agree = sum(1 for group in bursts
                if len({advice_bytes(r) for r in group}) == 1)
    checks.add("burst_answers_identical", agree == len(bursts), agree,
               f"{agree}/{len(bursts)} bursts")
    checks.add("server_drained_cleanly", stopped, 1)
    guards, compared = quality(expected_docs)
    checks.add("quality_guards_computed", True, compared)
    setup_samples += common.launches("serve", work, common.SETUP_LAUNCHES[1])
    setup, setup_rec = common.setup_record(setup_samples)

    # ------------------------------------------------------------ metrics
    raw = [r for r, _ in clock.samples]
    factors = clock.factors()
    norm = clock.normalised()
    median_factor = statistics.median(factors)
    latency, tail_record = common.latency_metrics(norm, TAIL_Q)
    metrics = {
        "setup_s": setup,
        "wall_s": sum(norm),
        **latency,
        "peak_rss_mb": common.peak_rss_mb(),
        **guards,
    }
    kinds = [kind for kind, _, _ in ops]
    tail_at = latency["tail_ms"] / 1e3
    record = {
        "operations": len(ops),
        "never_seen_operations": kinds.count("new"),
        "bursts": len(bursts),
        "requests": len(statuses),
        "client_retries": sender.client.n_retries,
        "host_steal_s": steal,
        "tail_kinds": {kind: sum(1 for t, k in zip(norm, kinds)
                                 if k == kind and t >= tail_at)
                       for kind in ("warm", "new")},
        "raw": {"wall_s": sum(raw), "window_s": window,
                "p50_ms": statistics.median(raw) * 1e3},
        "speed_factors": hostspeed.factor_summary(factors),
        "setup": setup_rec,
        "service": counts,
        **tail_record,
        "checks": checks.results,
    }
    if layers is not None:
        layer = probes.layer_metrics(snap, window - clock.ref_s, median_factor)
        layer.update(counts)
        requests_n = counts["service.requests"]
        layer["service.server_cpu_ms_per_req"] = (
            cpu_s * 1e3 / requests_n / median_factor if requests_n else 0.0)
        layer["host.speed_factor"] = median_factor
        layer["trace_overhead"] = overhead
        record["layers"] = layer
    return {"correct": checks.ok, "attempted": len(statuses), "failed": failed,
            "metrics": metrics, "record": record}


def quality(docs: dict[str, dict]) -> tuple[dict, int]:
    """Sim-clock guards from the working set's advice documents.

    - ``paper_err_pp``: mean |B state / H state - paper best cap| in
      percentage points over the Table II rows;
    - ``energy_vs_static_pct`` / ``makespan_vs_static_pct``: the
      recommendation's energy and makespan as a percentage of the all-H
      default, averaged over every working-set query.
    """
    from repro.experiments.platforms import TABLE2_PAPER

    errs = {}
    energy, makespan = [], []
    for doc in docs.values():
        req = doc["request"]
        key = (req["platform"], req["op"], req["precision"])
        states = doc["states_w"]
        errs[key] = abs(states["B"] / states["H"] * 100.0 - TABLE2_PAPER[key][2])
        vs = doc["recommendation"]["vs_default"]
        energy.append(100.0 - vs["energy_saving_pct"])
        makespan.append(100.0 / (1.0 + vs["perf_delta_pct"] / 100.0))
    return {
        "paper_err_pp": statistics.fmean(errs.values()),
        "energy_vs_static_pct": statistics.fmean(energy),
        "makespan_vs_static_pct": statistics.fmean(makespan),
    }, len(errs) + len(energy)
