"""Known defect, reproduced and left standing: shard threads share NVML.

``repro serve`` runs cold computations on ``--shards`` worker threads (2 by
default).  Every simulation's ``EnergyMeter`` binds the process-global
NVML node (``repro.nvml.api._node``) in ``start`` and reads it back in
``stop``, so two concurrent cold computations answer -- and cache -- each
other's GPU energy.  The advise-open workload therefore runs
``--shards 1``.  This test is a strict expected failure: it starts to
fail (XPASS) once the defect is fixed, which is the signal to drop the
workaround.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.cache import ExperimentCache  # noqa: E402
from repro.service.advisor import evaluate  # noqa: E402
from repro.service.client import AdvisorClient, wait_ready  # noqa: E402
from repro.service.protocol import parse_advise_request  # noqa: E402
from repro.service.server import AdvisorServer  # noqa: E402

#: Distinct cold queries on platforms with the same GPU count, so a
#: crossed read yields a wrong number rather than an index error.
QUERIES = [
    {"platform": "24-Intel-2-V100", "op": "gemm", "precision": "double",
     "scale": "tiny", "seed": seed}
    for seed in (11, 12)
] + [
    {"platform": "64-AMD-2-A100", "op": "potrf", "precision": "double",
     "scale": "tiny", "seed": seed}
    for seed in (13, 14)
]


def expected(query: dict) -> bytes:
    with tempfile.TemporaryDirectory() as cache_dir:
        advice = evaluate(parse_advise_request(query), ExperimentCache(cache_dir))
    advice["provenance"] = None
    return json.dumps(advice, sort_keys=True, separators=(",", ":")).encode()


def served_concurrently(shards: int) -> list[bytes]:
    with tempfile.TemporaryDirectory() as cache_dir:
        server = AdvisorServer(cache_dir=cache_dir, port=0, shards=shards)
        started = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run(
                install_signals=False, ready=lambda s: started.set())),
            daemon=True)
        thread.start()
        try:
            assert started.wait(30) and wait_ready("127.0.0.1", server.port, 30)

            def ask(query: dict) -> bytes:
                with AdvisorClient("127.0.0.1", server.port) as client:
                    response = client.advise(query)
                assert response.status == 200, response.text
                advice = response.doc["advice"]
                advice["provenance"] = None
                return json.dumps(advice, sort_keys=True,
                                  separators=(",", ":")).encode()

            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the shard threads finely
            try:
                with ThreadPoolExecutor(len(QUERIES)) as pool:
                    return list(pool.map(ask, QUERIES))
            finally:
                sys.setswitchinterval(old)
        finally:
            server.stop_threadsafe()
            thread.join(timeout=60)
            assert not thread.is_alive()


def test_single_shard_answers_match_in_process_evaluate():
    assert served_concurrently(shards=1) == [expected(q) for q in QUERIES]


@pytest.mark.xfail(strict=True, reason="shard threads share the global NVML node")
def test_default_shards_answer_each_others_energy():
    assert served_concurrently(shards=2) == [expected(q) for q in QUERIES]

