"""Sweep benchmark for noisescramble.

    python3 perfbench/run.py --workload sel7-deep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. Every measurement happens in fresh worker
processes (worker.py) with one BLAS thread: SETUP_SAMPLES of them set up,
and the last one also times the sweeps. With ``--trace 0`` the result holds
the end-to-end metrics: setup_s (median over the set-ups), sweep_s (median
over the timed sweeps) and peak_rss_mb. With ``--trace 1`` it holds the
per-layer metrics of a traced replay. fail_frac is printed by name; in the
result it is ``failed`` / ``attempted``. The last line of stdout is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# One BLAS thread for every workload: steadier on a shared 2-core machine
# than two, and free of OpenBLAS's slow first calls with two threads.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
# A run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, **{var: BLAS_THREADS for var in THREAD_VARS})
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--launched-at", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if done.returncode != 0:
        raise SystemExit(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="noisescramble sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "noisescramble" / "__init__.py").is_file():
        print(f"no noisescramble package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_worker(args, deadline, True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(args, deadline, False)
    setups.append(result["setup_s"])

    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} fail_frac {failed / attempted:.6g} ({failed} of {attempted} rows)")
    if args.trace:
        metrics = result["per_layer"]
        for name, share in sorted(result["shares"].items()):
            print(f"{args.workload} share {name} {share:.4f} of the replay")
        sweep_s = statistics.median(result["sweep_s"])
        print(f"{args.workload} replay {result['replay_s']:.4f} s (layer spans + harness.self_s)"
              f" vs untraced sweep_s {sweep_s:.4f} s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "sweep_s": (statistics.median(result["sweep_s"]), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        print(f"{args.workload} setup samples {setups}")
        print(f"{args.workload} sweep samples {result['sweep_s']}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and result["controls_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
