"""Alternating paired runs of the benchmark on two revisions.

    python3 tools/pairs.py PARENT CHANGE --pairs 10 --out BENCH_topic.json

Run from the root of a git checkout. Both revisions are exported with
``git archive`` into a temporary directory, and each tree's own
``perfbench/run.py`` runs every workload once per side and pair. The
workloads interleave, and the side that runs first alternates from pair to
pair; every run takes seed 0 and ``BENCHMARK.json``'s ``run_seconds``. The
JSON written holds the machine (with ``PYTHONDONTWRITEBYTECODE`` as the runs
inherit it), every run's end-to-end metrics, and per
workload and metric the per-pair values, both sides' quartiles, the wins
and the verdict of ``verdict``; every end-to-end metric in ``BENCHMARK.json``
is lower-is-better.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# A claim needs the change better in this share of the pairs (ties count
# for neither side), and its median gap above the parent's quartile spread.
WIN_SHARE = 0.9


def quartiles(values) -> list[float]:
    """Lower quartile, median and upper quartile, interpolated as numpy's default does."""
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent, change, bound: float | None = None, failed=(0, 0)) -> dict:
    """Compare paired runs of a lower-is-better metric; the i-th values form a pair.

    The verdict is "better" when the change wins at least WIN_SHARE of the
    pairs, its median beats the parent's by more than the parent's quartile
    spread and it fails no more operations (``failed`` holds each side's
    total), "worse" when the parent wins so, else "unresolved". With
    ``bound``, ``within_bound`` is false only for a worse median beyond it.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal-length series of at least two pairs")
    gains = [p - c for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    spread, gap = p3 - p1, pm - cm
    needed = WIN_SHARE * len(parent)
    better = wins >= needed and gap > spread and failed[1] <= failed[0]
    result = "better" if better else "unresolved"
    if losses >= needed and -gap > spread:
        result = "worse"
    summary = {
        "parent": list(parent), "change": list(change),
        "parent_quartiles": [p1, pm, p3], "change_quartiles": [c1, cm, c3],
        "wins": wins, "losses": losses, "median_gap": gap, "parent_spread": spread,
        "relative_change": (cm - pm) / pm if pm else None, "failed": list(failed),
        "verdict": result,
    }
    if bound is not None:
        summary["within_bound"] = bool(cm - pm <= bound * abs(pm))
    return summary


def export(repo: Path, revision: str, into: Path) -> Path:
    """The tree of ``revision``, unpacked from ``git archive`` under ``into``."""
    tree = into / revision.replace("/", "_")
    tree.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", revision], check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def run_bench(tree: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """One seed-0 benchmark run in ``tree``: its result object and its manifest."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    manifest = next(json.loads(line[9:]) for line in lines if line.startswith("manifest "))
    return json.loads(lines[-1]), manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating benchmark pairs of two revisions")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    repo = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        revisions = (args.parent, args.change)
        trees = {side: export(repo, rev, Path(scratch)) for side, rev in zip(SIDES, revisions)}
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"]
        runs, machine = [], None
        for index in range(args.pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    result, manifest = run_bench(trees[side], workload, seconds)
                    keys = ("nproc", "blas_threads", "numpy", "blas", "python")
                    machine = machine or {key: manifest[key] for key in keys}
                    runs.append({"pair": index, "side": side, "workload": workload, **result})
                    values = {k: v["value"] for k, v in result["metrics"].items()}
                    print(f"pair {index} {workload} {side} {values}", flush=True)

    summary = {}
    for workload in workloads:
        mine = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
                for side in SIDES}
        failed = tuple(sum(r["failed"] for r in mine[side]) for side in SIDES)
        for metric in spec["end_to_end"]:
            parent, change = ([r["metrics"][metric["name"]]["value"] for r in mine[side]]
                              for side in SIDES)
            summary.setdefault(workload, {})[metric["name"]] = verdict(
                parent, change, metric.get("bound"), failed
            )
    report = {
        "method": (f"tools/pairs.py: {args.pairs} pairs per workload, {seconds} s runs, "
                   "seed 0; workloads interleaved, first side alternating"),
        "revisions": {"parent": args.parent, "change": args.change},
        # when set, each worker compiles the package at import, which peak_rss_mb shows
        "machine": {**machine, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "all_correct": all(r["correct"] for r in runs),
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['parent_quartiles'][1]:.6g} -> "
                  f"{s['change_quartiles'][1]:.6g}, wins {s['wins']}/{args.pairs}, {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
