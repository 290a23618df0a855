"""Regenerate reference.json, the exact-labelled values of every workload's
reference pass (the warm-up: small size, inputs from seed 0).

    python3 bench/make_reference.py

Regenerate only for a library change that is meant to change these values,
and say in the change why they moved.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    run.import_library()
    import jobs

    scratch = run.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    reference = {}
    try:
        for workload in run.WORKLOADS:
            tally, collected = run.Tally(), {}
            run.run_pass(jobs.build(workload, run.REFERENCE_SEED, 0, run.REFERENCE_SIZE, out_root,
                                    run.nproc()), tally, collect=collected)
            if tally.failed:
                print("\n".join(tally.problems), file=sys.stderr)
                return 1
            reference[workload] = {k: v for k, v in collected.items() if v}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    (run.BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
