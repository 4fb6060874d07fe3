"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s or in
the captured output). The heavy sweeps run at desk scale: 6-7 qubits,
minutes in total.
"""

import time

import numpy as np
import pytest

from noisescramble import (
    CircuitProgram,
    DensityMatrix,
    ExperimentConfig,
    Gate,
    ScalingSample,
    aggregate_and_fit,
    basis_statevector,
    bias_bound,
    build_sel_circuit,
    build_white_noise_state,
    arrowhead_transform,
    compute_spectral_report,
    eigendecompose,
    eigenvalue_uniformity,
    error_rate_prefactor,
    fit_scaling,
    run_circuit,
    run_ideal,
    run_sweep,
    secular_residual,
    white_noise_distance_identity,
)

from .conftest import random_density_matrix, random_statevector, random_traceless_hermitian
from .oracles import commutator_trace_norm, kraus_run


def _check(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {description} {detail}".rstrip())
    assert passed, f"criterion {criterion}: {description} {detail}"


def _noisy_sel(rng, n_qubits, layer_choices, eps_lo, eps_hi):
    layers = int(rng.choice(layer_choices))
    prog = build_sel_circuit(n_qubits, layers, seed=int(rng.integers(1e9)))
    prog = prog.with_noise(float(rng.uniform(eps_lo, eps_hi)))
    rho = run_circuit(prog, DensityMatrix.basis_state(n_qubits))
    psi = run_ideal(prog, basis_statevector(n_qubits))
    return rho, psi


def test_criterion_01_white_noise_fixed_point():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_w, worst_comm = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        psi = random_statevector(rng, 2**n)
        eta = float(rng.uniform(0.1, 0.99))
        wn = build_white_noise_state(psi, eta)
        worst_w = max(worst_w, eigenvalue_uniformity(eigendecompose(wn.data, psi)))
        worst_comm = max(worst_comm, commutator_trace_norm(wn.data, psi))
    elapsed = time.perf_counter() - started
    _check(
        1,
        "white-noise states give W <= 1e-10 and commutator <= 1e-10",
        worst_w <= 1e-10 and worst_comm <= 1e-10 and elapsed < 10.0,
        f"(worst W {worst_w:.2e}, worst comm {worst_comm:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_dual_route_commutator():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        rho, psi = _noisy_sel(rng, 3, (1, 2, 3), 0.01, 0.2)
        trace_route = commutator_trace_norm(rho, psi)
        variance_route = compute_spectral_report(rho, psi).commutator_abs
        worst = max(worst, abs(trace_route - variance_route) / max(trace_route, variance_route))
    _check(
        2,
        "trace-norm and variance routes agree to 1e-8 relative",
        worst <= 1e-8,
        f"(worst {worst:.2e})",
    )


def _random_program(rng, n_qubits, n_gates):
    gates = []
    while len(gates) < n_gates:
        kind = rng.choice(["rx", "ry", "rz", "h", "cnot", "pauli_exp"])
        if kind == "cnot" and n_qubits >= 2:
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate.cnot(int(control), int(target)))
        elif kind == "pauli_exp":
            ops = "".join(rng.choice(list("IXYZ"), size=n_qubits))
            if set(ops) == {"I"}:
                continue
            gates.append(Gate.pauli_exponential(ops, float(rng.uniform(-np.pi, np.pi))))
        elif kind in ("rx", "ry", "rz"):
            maker = {"rx": Gate.rotation_x, "ry": Gate.rotation_y, "rz": Gate.rotation_z}[kind]
            gates.append(maker(int(rng.integers(n_qubits)), float(rng.uniform(-np.pi, np.pi))))
        elif kind == "h":
            gates.append(Gate.hadamard(int(rng.integers(n_qubits))))
    return CircuitProgram(n_qubits, tuple(gates))


def test_criterion_03_kraus_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        nu = int(rng.integers(1, 11))
        prog = _random_program(rng, n, nu).with_noise(float(rng.uniform(0.0, 1.0)))
        rho = run_circuit(prog, DensityMatrix.basis_state(n))
        reference = kraus_run(prog, DensityMatrix.basis_state(n).data)
        worst = max(worst, float(np.abs(rho.data - reference).max()))
    _check(
        3,
        "run_circuit matches the literal Kraus-sum oracle to 1e-12",
        worst <= 1e-12,
        f"(worst {worst:.2e})",
    )


def test_criterion_04_secular_equation():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        rho, psi = _noisy_sel(rng, 3, (2, 3, 4), 0.1, 0.3)
        form = arrowhead_transform(rho, psi)
        for lam in eigendecompose(rho, psi).eigenvalues:
            worst = max(worst, abs(secular_residual(form, float(lam))))
    _check(
        4,
        "every eigenvalue satisfies the secular equation to 1e-8",
        worst <= 1e-8,
        f"(worst |P| {worst:.2e})",
    )


def test_criterion_05_exact_distance_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        psi = random_statevector(rng, 8)
        err = random_density_matrix(rng, 8, rank=int(rng.integers(1, 9)))
        eta = float(rng.uniform(0.0, 1.0))
        lhs, rhs = white_noise_distance_identity(psi, eta, err)
        worst = max(worst, abs(lhs - rhs))
    _check(
        5,
        "mixture trace-distance identity exact to 1e-9",
        worst <= 1e-9,
        f"(worst {worst:.2e})",
    )


def test_criterion_06_fidelity_law():
    started = time.perf_counter()
    worst = 0.0
    grids = {1e-3: (4, 8, 12), 1e-2: (12,)}
    for eps, layers in grids.items():
        config = ExperimentConfig(
            family="SEL", n_qubits=6, epsilons=(eps,), layers=layers,
            seeds=tuple(range(10)), seed=106,
        )
        rows = run_sweep(config)
        by_nu = {}
        for row in rows:
            by_nu.setdefault(row.nu, []).append(row.fidelity)
        for nu, values in by_nu.items():
            deviation = abs(float(np.mean(values)) - np.exp(-eps * nu))
            worst = max(worst, deviation)
    elapsed = time.perf_counter() - started
    _check(
        6,
        "seed-mean fidelity tracks exp(-xi) within 0.02",
        worst <= 0.02 and elapsed < 120.0,
        f"(worst {worst:.4f}, {elapsed:.0f}s)",
    )


@pytest.fixture(scope="module")
def sel_scaling_rows_w():
    config = ExperimentConfig(
        family="SEL", n_qubits=7, epsilons=(1e-8,), layers=(4, 8, 16, 32, 64, 128),
        seeds=tuple(range(10)), seed=107,
    )
    started = time.perf_counter()
    rows = run_sweep(config)
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def sel_scaling_rows_c():
    config = ExperimentConfig(
        family="SEL", n_qubits=7, epsilons=(1e-7,), layers=(4, 8, 16, 32, 64, 128),
        seeds=tuple(range(10)), seed=108,
    )
    return run_sweep(config)


def test_criterion_07_random_sel_scaling(sel_scaling_rows_w):
    rows, sweep_seconds = sel_scaling_rows_w
    fit = aggregate_and_fit(rows, "W")
    decades = np.log10(fit.samples[-1].nu / fit.samples[0].nu)
    _check(
        7,
        "random-SEL uniformity scaling exponent in [0.35, 0.65]",
        0.35 <= fit.beta <= 0.65 and decades >= 1.5 and sweep_seconds < 1800.0,
        f"(beta {fit.beta:.3f}, {decades:.2f} decades, sweep {sweep_seconds:.0f}s)",
    )


def test_criterion_08_commutator_below_uniformity(sel_scaling_rows_c):
    by_nu = {}
    for row in sel_scaling_rows_c:
        by_nu.setdefault(row.nu, []).append((row.uniformity, row.commutator_rel))
    worst_ratio = np.inf
    for nu, pairs in by_nu.items():
        mean_w = float(np.mean([w for w, _ in pairs]))
        mean_c = float(np.mean([c for _, c in pairs]))
        worst_ratio = min(worst_ratio, mean_w / mean_c)
    _check(
        8,
        "seed-mean commutator norm at least 10x below uniformity at every size",
        worst_ratio >= 10.0,
        f"(worst W/C ratio {worst_ratio:.1f})",
    )


def test_criterion_09_vqe_parameter_regime():
    # Known red at this scale: the two quantitative floors below hold, but
    # the non-decrease of the seed-mean uniformity does not. At 6 qubits
    # and a per-gate error of 1e-3, accumulated noise slowly whitens the
    # adiabatic-schedule state, so W declines monotonically over every
    # log-spaced depth grid in the simulable range (measured 0.77 at
    # nu~23 down to 0.09 at nu~5400). Nor does the zero-noise limit give
    # the plateau this check expects on this grid: its seed-mean W0 at
    # depths 2/4/8/16 is 0.708, 0.662, 0.617 and 0.586, and dense 1e-8 rows
    # flatten only past about 64 layers.
    means = []
    for layers in (2, 4, 8, 16):
        config = ExperimentConfig(
            family="HVA-XXX", n_qubits=6, epsilons=(1e-3,), layers=(layers,),
            parameter_mode="vqe", seeds=tuple(range(10)), seed=109,
        )
        rows = run_sweep(config)
        mean_w = float(np.mean([r.uniformity for r in rows]))
        mean_c = float(np.mean([r.commutator_rel for r in rows]))
        means.append((mean_w, mean_c))
    ws = [w for w, _ in means]
    floor_ok = min(ws) >= 0.2
    not_decreasing = not all(b < a for a, b in zip(ws, ws[1:]))
    ratio_ok = all(c <= w / 10.0 for w, c in means)
    _check(
        9,
        "vqe-parameter uniformity stays large and non-decreasing, commutator 10x below",
        floor_ok and not_decreasing and ratio_ok,
        f"(W >= 0.2: {'yes' if floor_ok else 'NO'}; "
        f"no monotone decrease: {'yes' if not_decreasing else 'NO'}; "
        f"C <= W/10: {'yes' if ratio_ok else 'NO'}; "
        f"W per depth {[round(w, 3) for w in ws]})",
    )


def test_criterion_10_rz_insertion_scrambles_faster():
    betas = {}
    for family in ("HVA-TFI", "HVA-TFI-RZ"):
        config = ExperimentConfig(
            family=family, n_qubits=6, epsilons=(1e-8,), layers=(4, 8, 16, 32, 64, 128),
            parameter_mode="random", seeds=tuple(range(10)), seed=110,
        )
        rows = run_sweep(config)
        fit = aggregate_and_fit(rows, "W")
        betas[family] = fit.beta
    margin = betas["HVA-TFI-RZ"] - betas["HVA-TFI"]
    _check(
        10,
        "Rz insertion increases the uniformity scaling exponent by >= 0.05",
        margin >= 0.05,
        f"(beta {betas['HVA-TFI']:.3f} -> {betas['HVA-TFI-RZ']:.3f}, margin {margin:.3f})",
    )


def test_criterion_11_fit_round_trip():
    samples = []
    for nu in (10, 100, 1000, 10_000):
        xi = 0.01 * nu
        samples.append(
            ScalingSample(nu=nu, circuit_error_rate=xi,
                          value=2.0 * error_rate_prefactor(xi) / nu**0.5)
        )
    fit = fit_scaling(samples)
    _check(
        11,
        "noiseless synthetic scaling data recovered to 1e-9",
        abs(fit.alpha - 2.0) <= 1e-9 and abs(fit.beta - 0.5) <= 1e-9,
        f"(alpha err {abs(fit.alpha - 2.0):.2e}, beta err {abs(fit.beta - 0.5):.2e})",
    )


def test_criterion_12_bias_bound_soundness():
    rng = np.random.default_rng(112)
    sound = True
    worst_excess = -np.inf
    for _ in range(100):
        dim = int(2 ** rng.integers(1, 4))
        rho = random_density_matrix(rng, dim)
        psi = random_statevector(rng, dim)
        obs = random_traceless_hermitian(rng, dim)
        eta = float(rng.uniform(0.05, 1.0))
        bias, bound = bias_bound(obs, rho, psi, eta)
        worst_excess = max(worst_excess, abs(bias) - bound)
        sound = sound and abs(bias) <= bound + 1e-10
    _check(
        12,
        "rescaling bias within its trace-distance bound on every draw",
        sound,
        f"(worst |bias|-bound {worst_excess:.2e})",
    )
