"""Regenerate digests.json: the expected answers the benchmark checks.

Run from the repository root after a change that is *meant* to change the
program's answers (and only then)::

    python3 perfbench/make_digests.py

figures-cold: sha256 of the masked ``repro all --scale small`` output per
program seed.  advise-open: sha256 of each working-set query's advice
document (without its code-fingerprint provenance).
"""

from __future__ import annotations

import json
import shutil
import sys

import common

sys.path.insert(0, str(common.SRC))

import advise_open  # noqa: E402
import figures_cold  # noqa: E402


def main() -> int:
    work = common.WORK / "digests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        docs = advise_open.in_process_advice(str(work / "advise"),
                                             advise_open.working_set())
        out = {
            "figures-cold": {},
            "advise-open": {qid: advise_open.advice_digest(doc)
                            for qid, doc in sorted(docs.items())},
        }
        for seed in figures_cold.PROGRAM_SEEDS:
            text, _ = figures_cold.run_grid(seed, str(work / f"grid-{seed}"))
            out["figures-cold"][str(seed)] = figures_cold.digest(text)
            print(f"seed {seed}: {out['figures-cold'][str(seed)]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    common.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
