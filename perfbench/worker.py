"""One benchmark process for one workload.

It sets up as a user's CLI run would (import, config, Hamiltonian file,
one warm-up row), then times ``run_sweep`` over the workload grid until
``--seconds`` have passed and gates every row. With ``--trace 1`` it then
replays the grid call by call with a span around every call into the
package, times the metric pieces, CSV I/O and fits, and runs the gate's
controls. The result is one JSON object on the last line of stdout.

Run it through run.py, which sets the BLAS thread count and the launch time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import controls
import gate
from run import BENCH, ROOT, THREAD_VARS
from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

# The package under test is this checkout's src/, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))
import noisescramble as ns  # noqa: E402

if Path(ns.__file__).resolve().parent != ROOT / "src" / "noisescramble":
    raise SystemExit(f"imported noisescramble from {ns.__file__}, not from {ROOT / 'src'}")

OUT = BENCH / "out"
# Print at most this many gate failures per run to stderr.
_MAX_REPORTED = 5


def grid(config):
    """(epsilon, layer index, layers, seed index) in run_sweep's row order."""
    return [
        (epsilon, layer_index, n_layers, seed_index)
        for epsilon in config.epsilons
        for layer_index, n_layers in enumerate(config.layers)
        for seed_index in config.seeds
    ]


def load_reference(name: str) -> list[dict]:
    return json.loads((BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))["rows"]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text(encoding="utf-8").strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def manifest(args, n_sweeps: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "package_version": ns.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "sweeps": n_sweeps,
    }


class Checker:
    """Counts rows against the correctness gate, reporting the first failures."""

    def __init__(self, workload, config, references):
        self.tasks = grid(config)
        self.expected_nu = [workload.expected_nu(n_layers) for _, _, n_layers, _ in self.tasks]
        self.references = references or [None] * len(self.tasks)
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def _report(self, message: str) -> None:
        if self._reported < _MAX_REPORTED:
            self._reported += 1
            print(f"gate: {message}", file=sys.stderr)

    def check(self, rows) -> None:
        self.attempted += len(self.tasks)
        if rows is None or len(rows) != len(self.tasks):
            self.failed += len(self.tasks)
            self._report(f"sweep gave {None if rows is None else len(rows)} rows, expected {len(self.tasks)}")
            return
        for row, nu, ref in zip(rows, self.expected_nu, self.references):
            reasons = gate.failures(gate.row_fields(row), nu, ref)
            if reasons:
                self.failed += 1
                self._report("; ".join(reasons))

    def mismatch(self, message: str) -> None:
        self.failed += 1
        self._report(message)


def timed_sweeps(config, seconds: float, csv_path, checker: Checker):
    """Repeat the whole-grid sweep until ``seconds`` pass; return times and first rows."""
    times = []
    first_rows = None
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        try:
            rows = ns.run_sweep(config, out_path=csv_path)
        except Exception:  # a raising sweep counts as failed rows, the run goes on
            traceback.print_exc()
            rows = None
        times.append(time.perf_counter() - t0)
        checker.check(rows)
        first_rows = first_rows or rows
    return times, first_rows


def row_program(config, epsilon, layer_index, n_layers, seed_index, file_hamiltonian, tracer):
    """The grid point's circuit, seeded exactly as run_sweep seeds it."""
    row_seed = ns.derive_seed(
        config.seed, config.family, config.n_qubits, epsilon, layer_index, seed_index
    )
    with tracer.span("ansatz.build_program"):
        return ns.build_program(
            config,
            n_layers,
            ansatz_seed=ns.derive_seed(row_seed, "ansatz"),
            hamiltonian_seed=ns.derive_seed(row_seed, "hamiltonian"),
            file_hamiltonian=file_hamiltonian,
        )


def simulate(program, epsilon, tracer):
    n = program.n_qubits
    initial = ns.DensityMatrix.basis_state(n)
    with tracer.span("simulator.run_circuit"):
        rho = ns.run_circuit(program.with_noise(epsilon), initial)
    start = ns.basis_statevector(n)
    with tracer.span("simulator.run_ideal"):
        psi = ns.run_ideal(program, start)
    return rho, psi


def report_fields(config, program, epsilon, seed_index, rho, psi, tracer) -> dict:
    """The row's gated columns, from the state pair, as run_sweep computes them."""
    eta = gate.no_error_probability(epsilon, program.gate_count)
    with tracer.span("metrics.report"):
        report = ns.compute_spectral_report(rho, psi, eta_estimate=eta)
    return {
        "family": config.family,
        "n_qubits": config.n_qubits,
        "epsilon": epsilon,
        "nu": program.gate_count,
        "seed": seed_index,
        "uniformity": report.uniformity,
        "commutator_rel": report.commutator_rel,
        "commutator_abs": report.commutator_abs,
        "fidelity": report.fidelity,
        "lambda1": report.lambda1,
        "trace_dist_wn": report.trace_dist_wn,
        "eta_est": eta,
        "reason": report.degenerate_reason,
    }


def control_metrics(workload, config, file_hamiltonian) -> tuple[dict, bool]:
    """Run the gate's controls on the first grid point of the default seed.

    The negative control simulates at 1.5x the row's error rate and must be
    flagged. The positive controls, a reordered exact kernel and the
    residual route to C_abs, must pass. The controls' spans are not reported.
    """
    config = dataclasses.replace(config, seed=DEFAULT_SEED)
    epsilon, layer_index, n_layers, seed_index = grid(config)[0]
    ref = load_reference(workload.name)[0]
    nu = workload.expected_nu(n_layers)
    tracer = Tracer()
    program = row_program(config, epsilon, layer_index, n_layers, seed_index, file_hamiltonian, tracer)

    def fields(rho, psi):
        return report_fields(config, program, epsilon, seed_index, rho, psi, tracer)

    rho, psi = simulate(program, epsilon, tracer)
    bad = fields(simulate(program, 1.5 * epsilon, tracer)[0], psi)
    alt_rho = controls.reordered_run_circuit(program.with_noise(epsilon), ns.DensityMatrix)
    alt = fields(alt_rho, psi)
    residual = fields(rho, psi)
    residual["commutator_abs"] = controls.residual_commutator_abs(rho.data, psi)
    residual["commutator_rel"] = residual["commutator_abs"] / (1.0 - residual["lambda1"])

    neg_flagged = bool(gate.failures(bad, nu, ref))
    positive = [gate.failures(row, nu, ref) for row in (alt, residual)]
    for reasons in positive:
        if reasons:
            print("gate control: exact route rejected: " + "; ".join(reasons), file=sys.stderr)
    if not neg_flagged:
        print("gate control: rows at 1.5x epsilon passed the gate", file=sys.stderr)
    metrics = {
        "check.neg_control_flagged": (int(neg_flagged), "count"),
        "check.neg_control_flagged_by_invariants": (
            int(bool(gate.invariant_failures(bad, nu))),
            "count",
        ),
        "check.pos_control_max_ratio": (
            max(max(gate.reference_ratios(row, ref).values()) for row in (alt, residual)),
            "1",
        ),
        "check.pos_control_max_abs_drho": (float(np.abs(alt_rho.data - rho.data).max()), "1"),
    }
    return metrics, neg_flagged and not any(positive)


def traced(workload, config, rows, sweep_s: float, checker: Checker, csv_path):
    """Replay the grid with spans, then time the metric pieces, CSV I/O and fits."""
    if rows is None:
        raise SystemExit("every timed sweep raised; there is nothing to replay")
    tracer = Tracer()
    states = []
    replayed = []
    replay_csv = csv_path.with_suffix(".replay.csv")
    file_hamiltonian = None
    with tracer.span("harness.replay"):
        if config.hamiltonian_file is not None:
            with tracer.span("hamiltonians.load_hamiltonian_file"):
                file_hamiltonian = ns.load_hamiltonian_file(config.hamiltonian_file)
        for epsilon, layer_index, n_layers, seed_index in grid(config):
            program = row_program(
                config, epsilon, layer_index, n_layers, seed_index, file_hamiltonian, tracer
            )
            rho, psi = simulate(program, epsilon, tracer)
            replayed.append(report_fields(config, program, epsilon, seed_index, rho, psi, tracer))
            states.append((program, rho, psi))
        # The sweep's own rows are written: the replay checks they equal its rows.
        with tracer.span("harness.write_rows"):
            ns.write_rows(replay_csv, rows)
    replay_s = tracer.duration(0)
    harness_self_s = tracer.self_time(0)

    mismatches = 0
    for index, (fields, row) in enumerate(zip(replayed, rows)):
        if fields != gate.row_fields(row):
            mismatches += 1
            checker.mismatch(f"replayed row {index} differs from run_sweep's row")

    with tracer.span("harness.read_rows"):
        read_back = ns.read_rows(replay_csv)
    csv_bytes = replay_csv.stat().st_size
    replay_csv.unlink()
    for index, (back, row) in enumerate(zip(read_back, rows)):
        if gate.row_fields(back) != gate.row_fields(row):
            checker.mismatch(f"row {index} changed in the CSV round trip")
    if len({row.nu for row in read_back}) >= 3:  # fit_scaling needs three sizes
        with tracer.span("harness.aggregate_and_fit"):
            ns.aggregate_and_fit(read_back, "W")
            ns.aggregate_and_fit(read_back, "C")

    drift = 0.0
    neg_mass = 0.0
    for _, rho, psi in states:
        with tracer.span("metrics.eigendecompose"):
            decomposition = ns.eigendecompose(rho, psi)
        with tracer.span("metrics.commutator"):
            float(np.abs(np.linalg.eigvalsh(ns.commutator_matrix(rho, psi))).sum())
        with tracer.span("metrics.trace_distance_wn"):
            white = ns.build_white_noise_state(psi, float(decomposition.eigenvalues[0]))
            ns.trace_distance(rho, white.data)
        eigenvalues = np.linalg.eigvalsh(rho.data)
        neg_mass = max(neg_mass, float(-eigenvalues[eigenvalues < 0].sum()))
        drift = max(drift, abs(float(np.trace(rho.data).real) - 1.0))

    check, controls_ok = control_metrics(workload, config, file_hamiltonian)

    supports = [len(g.qubits) for program, _, _ in states for g in program.gates]
    gate_count = len(supports)
    # Computed, not measured: one read and one write of the 16*4^n-byte state per gate.
    floor_bytes = sum(2 * 16 * 4**program.n_qubits * program.gate_count for program, _, _ in states)
    run_circuit_s = tracer.total("simulator.run_circuit")
    layer_s = {
        name: tracer.total(name)
        for name in (
            "simulator.run_circuit",
            "simulator.run_ideal",
            "ansatz.build_program",
            "metrics.report",
            "hamiltonians.load_hamiltonian_file",
            "harness.write_rows",
        )
    }
    per_layer = {
        "simulator.run_circuit.s": (run_circuit_s, "s"),
        "simulator.run_circuit.us_per_gate": (1e6 * run_circuit_s / gate_count, "us"),
        "simulator.run_circuit.floor_gbps": (floor_bytes / run_circuit_s / 1e9, "GB/s"),
        "simulator.run_ideal.s": (layer_s["simulator.run_ideal"], "s"),
        "simulator.gates": (gate_count, "count"),
        **{f"simulator.gates.k{k}": (supports.count(k), "count") for k in (1, 2, 3, 4)},
        "simulator.trace_drift_max": (drift, "1"),
        "ansatz.build_program.s": (layer_s["ansatz.build_program"], "s"),
        "hamiltonians.load_hamiltonian_file.s": (layer_s["hamiltonians.load_hamiltonian_file"], "s"),
        "metrics.report.s": (layer_s["metrics.report"], "s"),
        "metrics.eigendecompose.s": (tracer.total("metrics.eigendecompose"), "s"),
        "metrics.commutator.s": (tracer.total("metrics.commutator"), "s"),
        "metrics.trace_distance_wn.s": (tracer.total("metrics.trace_distance_wn"), "s"),
        "metrics.neg_eig_mass_max": (neg_mass, "1"),
        "harness.write_rows.s": (layer_s["harness.write_rows"], "s"),
        "harness.read_rows.s": (tracer.total("harness.read_rows"), "s"),
        "harness.csv_bytes": (csv_bytes, "bytes"),
        "harness.aggregate_and_fit.s": (tracer.total("harness.aggregate_and_fit"), "s"),
        "harness.self_s": (harness_self_s, "s"),
        "trace.overhead_s": (replay_s - sweep_s, "s"),
        "trace.replay_mismatch": (mismatches, "count"),
        **check,
    }
    shares = {name: seconds / replay_s for name, seconds in layer_s.items()}
    shares["harness.self"] = harness_self_s / replay_s
    tracer.write(OUT / f"{workload.name}-spans.jsonl")
    return per_layer, shares, replay_s, controls_ok and mismatches == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config = ns.ExperimentConfig(seed=args.seed, **workload.config)
    if config.hamiltonian_file is not None:
        ns.load_hamiltonian_file(config.hamiltonian_file)
    ns.run_sweep(dataclasses.replace(config, layers=config.layers[:1], seeds=config.seeds[:1]))
    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{args.workload}-{os.getpid()}.csv"
    references = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    checker = Checker(workload, config, references)
    try:
        times, rows = timed_sweeps(config, args.seconds, csv_path, checker)
        result = {
            "setup_s": setup_s,
            "sweep_s": times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "manifest": manifest(args, len(times)),
            "controls_ok": True,
        }
        if args.trace:
            per_layer, shares, replay_s, ok = traced(
                workload, config, rows, statistics.median(times), checker, csv_path
            )
            result.update(per_layer=per_layer, shares=shares, replay_s=replay_s, controls_ok=ok)
    finally:
        csv_path.unlink(missing_ok=True)
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
