"""Launch-to-ready child: start the program, report the moment it is ready.

Usage::

    python3 perfbench/ready.py cli
    python3 perfbench/ready.py serve SCRATCH_DIR

``cli``: ready once ``repro.cli`` (every experiment module) is imported.
``serve``: ready once an ``AdvisorServer`` (``--shards 1``) started in this
process, over a fresh cache in ``SCRATCH_DIR``, answers ``/v1/healthz``
with 200; it is then stopped.

Prints one JSON line ``{"ready": t}``: ``time.perf_counter()`` at
readiness (CLOCK_MONOTONIC, the same clock as the launching process).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(kind: str) -> int:
    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401

    server = thread = None
    if kind == "serve":
        import asyncio
        import tempfile
        import threading

        from repro.service.client import wait_ready
        from repro.service.server import AdvisorServer

        cache_dir = tempfile.mkdtemp(dir=sys.argv[2])
        server = AdvisorServer(cache_dir=cache_dir, port=0, shards=1)
        started = threading.Event()
        thread = threading.Thread(target=lambda: asyncio.run(server.run(
            install_signals=False, ready=lambda s: started.set())))
        thread.start()
        if not (started.wait(30) and wait_ready("127.0.0.1", server.port, 30,
                                                interval_s=0.001)):
            raise SystemExit("advisor server never answered /v1/healthz")
    elif kind != "cli":
        raise SystemExit(__doc__)
    ready = time.perf_counter()
    if server is not None:
        server.stop_threadsafe()
        thread.join(timeout=60)
    print(json.dumps({"ready": ready}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))
