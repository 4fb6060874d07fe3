"""The benchmark under perfbench/ drives the package through its public
names; this keeps a change to the package from breaking it unseen."""

import importlib.util
import re
import sys

import numpy as np
import pytest

import noisescramble as ns

from .conftest import REPO_ROOT


def test_every_name_perfbench_uses_resolves():
    used = set()
    for path in sorted((REPO_ROOT / "perfbench").glob("*.py")):
        used.update(re.findall(r"\bns((?:\.\w+)+)", path.read_text(encoding="utf-8")))
    assert len(used) >= 10, used
    for chain in sorted(used):
        target = ns
        for attr in chain.split(".")[1:]:
            assert hasattr(target, attr), f"ns{chain}"
            target = getattr(target, attr)


def test_result_attributes_perfbench_reads():
    program = ns.CircuitProgram(2, (ns.Gate.hadamard(0), ns.Gate.cnot(0, 1))).with_noise(0.1)
    rho = ns.run_circuit(program, ns.DensityMatrix.basis_state(2))
    psi = ns.run_ideal(program, ns.basis_statevector(2))
    lam1 = float(ns.eigendecompose(rho, psi).eigenvalues[0])
    white = ns.build_white_noise_state(psi, lam1)
    assert white.data.shape == (4, 4)
    assert ns.commutator_matrix(rho, psi).shape == (4, 4)
    assert np.isfinite(ns.trace_distance(rho, white.data))


def test_positive_controls_run():
    # perfbench/controls.py calls the package through the objects it is
    # given (gate.matrix(), program.noise), which the name scan cannot see
    path = REPO_ROOT / "perfbench" / "controls.py"
    spec = importlib.util.spec_from_file_location("controls", path)
    controls = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(controls)
    # every gate kind, a CNOT both ways round and a Pauli exponential on
    # non-adjacent qubits, since the control builds its kernel from gate.matrix()
    gates = (
        ns.Gate.hadamard(0),
        ns.Gate.cnot(0, 1),
        ns.Gate.rotation_y(1, 0.7),
        ns.Gate.cnot(1, 0),
        ns.Gate.rotation_z(0, -1.1),
        ns.Gate.rotation_x(1, 2.3),
        ns.Gate.pauli_exponential("XIYIZ", 0.4),
    )
    program = ns.CircuitProgram(5, gates).with_noise(0.1)
    rho = ns.run_circuit(program, ns.DensityMatrix.basis_state(5))
    psi = ns.run_ideal(program, ns.basis_statevector(5))
    reordered = controls.reordered_run_circuit(program, ns.DensityMatrix)
    assert np.abs(reordered.data - rho.data).max() < 1e-14
    report = ns.compute_spectral_report(rho, psi)
    assert controls.residual_commutator_abs(rho.data, psi) == pytest.approx(
        report.commutator_abs, rel=1e-10
    )


@pytest.fixture
def worker(monkeypatch):
    """perfbench/worker.py with its sibling modules, imported as the benchmark runs it."""
    siblings = ("worker", "run", "gate", "controls", "spans", "workloads")
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    for name in siblings:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("worker")
    for name in siblings:
        sys.modules.pop(name, None)


def test_traced_replay_rows_equal_the_sweep(worker):
    # trace.replay_mismatch: the replay starts run_circuit from
    # DensityMatrix.basis_state, run_sweep from run_circuit's default start,
    # and the gate compares the two rows field by field with ==
    config = ns.ExperimentConfig(
        family="SEL", n_qubits=4, epsilons=(1e-8, 1e-3), layers=(4,), seeds=(0,), seed=0
    )
    rows = ns.run_sweep(config)
    tracer = worker.Tracer()
    assert len(rows) == len(worker.grid(config)) == 2
    for row, (epsilon, layer_index, n_layers, seed_index) in zip(rows, worker.grid(config)):
        program = worker.row_program(
            config, epsilon, layer_index, n_layers, seed_index, None, tracer
        )
        rho, psi = worker.simulate(program, epsilon, tracer)
        fields = worker.report_fields(config, program, epsilon, seed_index, rho, psi, tracer)
        assert fields == worker.gate.row_fields(row)
