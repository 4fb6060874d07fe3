"""Interleaved whole-sweep timings of two revisions in one process.

    python3 tools/ab.py A B --workload sel7-deep --rounds 40 --out BENCH_ab.json

Run from the root of a git checkout. Both revisions are exported as
``tools/pairs.py`` does and imported under their own names (the package imports
itself relatively), beside a renamed copy of A as an identical-code control,
with one BLAS thread. After a warm-up sweep each, every round times whole
``run_sweep`` calls of the workload's grid at ``--seed``: A, B, then A, A', each
pair reversed on odd rounds. ``--out`` gains the entry "A..B workload seed S".
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from pairs import export, quartiles

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def verdict(change, control) -> str:
    """"better" when the B/A ratios' upper quartile lies below 1 and below the
    A'/A ratios' lower quartile, "worse" when their lower quartile lies above 1
    and above the A'/A upper quartile, else "unresolved"."""
    if len(change) < 2 or len(control) < 2:
        raise ValueError("need at least two rounds in each series")
    (c1, _, c3), (a1, _, a3) = quartiles(change), quartiles(control)
    if c3 < min(1.0, a1):
        return "better"
    return "worse" if c1 > max(1.0, a3) else "unresolved"


def series(first: list[float], second: list[float]) -> dict:
    """Both sides' times, each round's ratio second / first, and their summary."""
    ratios = [b / a for a, b in zip(first, second)]
    return {"first_s": first, "second_s": second, "ratios": ratios,
            "ratio_quartiles": quartiles(ratios), "second_faster": sum(r < 1 for r in ratios),
            "medians_s": [quartiles(first)[1], quartiles(second)[1]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="in-process interleaved A/B of whole sweeps")
    parser.add_argument("revisions", nargs=2, metavar="A B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})  # before any numpy import
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        trees = [export(Path.cwd(), rev, scratch) for rev in args.revisions]
        sys.path[:0] = [str(trees[0] / "perfbench"), str(scratch)]
        config = importlib.import_module("workloads").WORKLOADS[args.workload].config
        packages = []
        for tree, name in zip((*trees, trees[0]), ("ab_a", "ab_b", "ab_a_copy")):
            shutil.copytree(tree / "src" / "noisescramble", scratch / name)
            packages.append(importlib.import_module(name))
        configs = [p.ExperimentConfig(seed=args.seed, **config) for p in packages]

        def timed(side: int) -> float:
            started = time.perf_counter()
            packages[side].run_sweep(configs[side])
            return time.perf_counter() - started

        [timed(side) for side in range(3)]  # warm-up
        # per other side (1 is B, 2 is A'): A's times and its own, round by round
        first, second = {1: [], 2: []}, {1: [], 2: []}
        for index in range(args.rounds):
            for other in (1, 2):
                took = {side: timed(side) for side in ((0, other), (other, 0))[index % 2]}
                first[other].append(took[0])
                second[other].append(took[other])

    change, control = series(first[1], second[1]), series(first[2], second[2])
    entry = {
        "method": (f"tools/ab.py: {args.rounds} rounds after a warm-up sweep each; per round "
                   "the pairs (A, B) and (A, A'), reversed on odd rounds"),
        "revisions": dict(zip("AB", args.revisions)), "workload": args.workload, "seed": args.seed,
        "machine": {"nproc": os.cpu_count(), "numpy": sys.modules["numpy"].__version__,
                    **{var: os.environ[var] for var in THREAD_VARS}},
        "B/A": change, "A'/A": control,
        "verdict": verdict(change["ratios"], control["ratios"]),
    }
    out = Path(args.out)
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    report[f"{'..'.join(args.revisions)} {args.workload} seed {args.seed}"] = entry
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload}: B/A quartiles {change['ratio_quartiles']}, "
          f"A'/A {control['ratio_quartiles']}, {entry['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
