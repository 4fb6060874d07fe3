"""Write the default-seed reference rows that the correctness gate compares with.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose rows are trusted; the files under
perfbench/reference/ record the commit they were produced at.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_THREADS, THREAD_VARS

os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})

import gate  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    for name, workload in WORKLOADS.items():
        config = worker.ns.ExperimentConfig(seed=DEFAULT_SEED, **workload.config)
        rows = [gate.row_fields(row) for row in worker.ns.run_sweep(config)]
        payload = {"seed": DEFAULT_SEED, "commit": worker.git_commit(), "rows": rows}
        path = worker.BENCH / "reference" / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
