"""The benchmark under perfbench/ drives the package through its public
names; this keeps a change to the package from breaking it unseen."""

import importlib.util
import re

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
    program = ns.CircuitProgram(
        2, (ns.Gate.hadamard(0), ns.Gate.cnot(0, 1), ns.Gate.rotation_y(1, 0.7))
    ).with_noise(0.1)
    rho = ns.run_circuit(program, ns.DensityMatrix.basis_state(2))
    psi = ns.run_ideal(program, ns.basis_statevector(2))
    reordered = controls.reordered_run_circuit(program, ns.DensityMatrix)
    assert np.abs(reordered.data - rho.data).max() < 1e-14
    report = ns.compute_spectral_report(rho, psi)
    assert controls.residual_commutator_abs(rho.data, psi) == pytest.approx(
        report.commutator_abs, rel=1e-10
    )
