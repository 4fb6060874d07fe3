"""Time and peak memory of one dense sweep row: ``python3 tools/row_peak.py N``
runs the SEL row at width N, one layer, epsilon 1e-3 and seed 0 through
``run_sweep`` in a fresh child process with one BLAS thread and prints one JSON
line: the git revision (null outside git), the row's ``evolve_s``, ``check_s``
(its ``_check_density``), ``report_s`` and ``row_s`` in seconds, and the child's
``peak_rss_mb``."""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def measure(n_qubits: int) -> dict:
    """Run the row here, timing the harness's calls to ``_evolve``, ``_check_density`` and
    ``_report``."""
    from noisescramble import ExperimentConfig, harness
    spent = {"evolve_s": 0.0, "check_s": 0.0, "report_s": 0.0}

    def timed(key, func):
        def call(*args):
            start = time.perf_counter()
            result = func(*args)
            spent[key] += time.perf_counter() - start
            return result

        return call

    for key, name in (("evolve_s", "_evolve"), ("check_s", "_check_density"), ("report_s", "_report")):
        setattr(harness, name, timed(key, getattr(harness, name)))
    config = ExperimentConfig(family="SEL", n_qubits=n_qubits, epsilons=(1e-3,), layers=(1,), seeds=(0,))
    (row,) = harness.run_sweep(config)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {**spent, "row_s": row.wall_time_seconds, "peak_rss_mb": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="time and peak RSS of one SEL sweep row")
    parser.add_argument("n_qubits", type=int)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.n_qubits)))
        return 0
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    command = [sys.executable, str(Path(__file__).resolve()), str(args.n_qubits), "--child"]
    child = subprocess.run(command, env={**os.environ, "PYTHONPATH": path, **threads}, check=True,
                           stdout=subprocess.PIPE, text=True)
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    print(json.dumps({"revision": git.stdout.strip() or None, "n_qubits": args.n_qubits,
                      **json.loads(child.stdout)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
