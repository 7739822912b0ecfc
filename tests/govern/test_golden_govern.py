"""Golden artefact digests for governed runs.

Every deterministic artefact a ``repro govern --outdir`` run writes is
pinned by its sha256 digest in ``tests/data/golden_govern_tiny.json``, for
a fixed scenario matrix: {24-Intel-2-V100, 32-AMD-4-A100} x {gemm, potrf}
x {fault-free steady, kill-throttle + shifting mix streamed live}, tiny
scale, seed 1.  A speed-up of the governor, the farm model, the decision
log, the metrics registry or the power sampler must leave every byte of
these files unchanged.

``manifest.json`` is not pinned (it carries a creation timestamp), and the
code version stamped into the ``repro_run_info`` labels is fixed to
``GOLDEN_VERSION`` so the digests do not depend on the git checkout.

Regenerate (only for an intended change of output)::

    PYTHONPATH=src python tests/govern/test_golden_govern.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_govern_tiny.json"
GOLDEN_VERSION = "golden"
PLATFORMS = ("24-Intel-2-V100", "32-AMD-4-A100")
OPS = ("gemm", "potrf")
#: (fault preset, phase mix, streamed) of the two scenario kinds.
MODES = (("none", "steady", False), ("kill-throttle", "shift", True))
SEED = 1
ARTEFACTS = (
    "govern.json", "decisions.jsonl", "events.jsonl", "faults.jsonl",
    "metrics.prom", "trace.json", "result.json",
)


def scenario_name(platform: str, op: str, preset: str, mix: str) -> str:
    return f"{platform}/{op}/{preset}/{mix}"


SCENARIOS = [
    (platform, op, preset, mix, stream)
    for platform in PLATFORMS
    for op in OPS
    for preset, mix, stream in MODES
]


def run_scenario(platform, op, preset, mix, stream, outdir) -> dict:
    """Run one golden scenario into ``outdir``; return its artefact digests."""
    import repro.govern.run as govern_run
    from repro.faults.plan import FaultPlan, preset_plan

    plan = (FaultPlan(name="none") if preset == "none"
            else preset_plan(preset, seed=SEED))
    saved = govern_run.code_version
    govern_run.code_version = lambda: GOLDEN_VERSION
    try:
        gov = govern_run.run_govern(
            platform, op, "double", plan, mix=mix, outdir=str(outdir),
            seed=SEED, scale="tiny", stream=stream,
        )
    finally:
        govern_run.code_version = saved
    assert gov.passed
    return {
        name: hashlib.sha256((Path(outdir) / name).read_bytes()).hexdigest()
        for name in ARTEFACTS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(
        scenario_name(p, o, pr, m) for p, o, pr, m, _ in SCENARIOS
    )


@pytest.mark.parametrize(
    "platform,op,preset,mix,stream", SCENARIOS,
    ids=[scenario_name(p, o, pr, m) for p, o, pr, m, _ in SCENARIOS],
)
def test_governed_artefacts_match_golden(
    golden, tmp_path, platform, op, preset, mix, stream
):
    digests = run_scenario(platform, op, preset, mix, stream, tmp_path)
    expected = golden[scenario_name(platform, op, preset, mix)]
    assert {k: v for k, v in digests.items() if v != expected[k]} == {}


def _write_golden(path: Path) -> None:
    import tempfile

    doc = {}
    for platform, op, preset, mix, stream in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            doc[scenario_name(platform, op, preset, mix)] = run_scenario(
                platform, op, preset, mix, stream, tmp
            )
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: test_golden_govern.py --write [PATH]")
    _write_golden(Path(sys.argv[2]) if len(sys.argv) > 2 else GOLDEN)
