import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from noisescramble import (
    DegenerateStateError,
    DensityMatrix,
    InvalidObservableError,
    InvalidStateError,
    PoleError,
    ShapeError,
    arrowhead_transform,
    basis_statevector,
    bias_bound,
    build_sel_circuit,
    build_white_noise_state,
    compute_spectral_report,
    dominant_eigenvalue_gap,
    eigendecompose,
    eigenvalue_uniformity,
    fidelity,
    run_circuit,
    run_ideal,
    secular_residual,
    trace_distance,
    variance,
    white_noise_distance_identity,
)

from noisescramble import metrics
from noisescramble.metrics import _reduce, _reflect, _report
from noisescramble.simulator import _evolve

from .conftest import random_density_matrix, random_statevector, random_traceless_hermitian
from .oracles import commutator_trace_norm

E0 = np.array([1.0, 0.0], dtype=complex)


def example_mixture():
    """rho = 0.5|0><0| + 0.5|+><+| against the ideal state |0>."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = 0.5 * np.outer(E0, E0) + 0.5 * np.outer(plus, plus)
    return DensityMatrix(1, rho)


def arrowhead_matrix(form):
    """The matrix with the form's corner, border and diagonal, zero elsewhere."""
    out = np.diag(np.concatenate(([form.corner], form.diag))).astype(complex)
    out[0, 1:] = out[1:, 0] = form.offdiag
    return out


def noisy_sel_state(seed, n_qubits=3, layers=2, eps=0.1):
    prog = build_sel_circuit(n_qubits, layers, seed=seed).with_noise(eps)
    rho = run_circuit(prog, DensityMatrix.basis_state(n_qubits))
    psi = run_ideal(prog, basis_statevector(n_qubits))
    return rho, psi


class TestEigendecompose:
    def test_maximally_mixed(self):
        dec = eigendecompose(np.eye(4) / 4)
        assert np.allclose(dec.eigenvalues, 0.25)

    def test_white_noise_closed_form(self):
        wn = build_white_noise_state(E0, 0.5)
        dec = eigendecompose(wn.data)
        assert np.allclose(dec.eigenvalues, [0.75, 0.25], atol=1e-14)

    def test_reconstruction(self, rng):
        rho = random_density_matrix(rng, 8)
        dec = eigendecompose(rho)
        assert np.abs(dec.eigenvalues - scipy.linalg.eigh(rho)[0][::-1]).max() < 1e-12
        assert abs(dec.eigenvalues.sum() - 1.0) < 1e-9
        assert np.all(np.diff(dec.eigenvalues) <= 1e-15)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            eigendecompose(m)

    def test_nan_entry_rejected(self):
        # NaN > 1e-10 is false: a bound written that way let NaN through
        with pytest.raises(InvalidStateError):
            eigendecompose(np.diag([np.nan, 0.5]))

    def test_rounding_negatives_clamped_larger_rejected(self):
        dec = eigendecompose(np.diag([1.0 + 1e-11, -1e-11]))
        assert np.array_equal(dec.eigenvalues, [1.0, 0.0])
        with pytest.raises(InvalidStateError):
            eigendecompose(np.diag([1.0 + 1e-9, -1e-9]))


class TestUniformity:
    def test_white_noise_is_zero(self, rng):
        psi = random_statevector(rng, 8)
        wn = build_white_noise_state(psi, 0.63)
        assert eigenvalue_uniformity(eigendecompose(wn.data)) < 1e-12

    def test_hand_value(self):
        # d=4, spectrum (0.7, 0.3, 0, 0): direct evaluation gives 2/3
        w = eigenvalue_uniformity(np.array([0.7, 0.3, 0.0, 0.0]))
        assert abs(w - 2.0 / 3.0) < 1e-12

    def test_range(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng, 8, rank=int(rng.integers(2, 9)))
            w = eigenvalue_uniformity(eigendecompose(rho))
            assert 0.0 <= w <= 1.0

    def test_pure_state_rejected(self):
        with pytest.raises(DegenerateStateError):
            eigenvalue_uniformity(np.array([1.0, 0.0]))

    def test_zero_iff_uniform(self, rng):
        # forward: exactly uniform non-dominant spectrum -> 0
        lam = np.array([0.6] + [0.4 / 7] * 7)
        assert eigenvalue_uniformity(lam) < 1e-14
        # reverse: any deviation gives a strictly positive value
        lam2 = np.array([0.6] + [0.4 / 7] * 7)
        lam2[1] += 0.01
        lam2[2] -= 0.01
        assert eigenvalue_uniformity(lam2) > 1e-4


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = random_density_matrix(rng, 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 2.0) < 1e-14

    def test_hand_value(self):
        assert abs(trace_distance(np.diag([0.75, 0.25]), np.eye(2) / 2) - 0.5) < 1e-14

    def test_symmetry(self, rng):
        a, b = random_density_matrix(rng, 4), random_density_matrix(rng, 4)
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            trace_distance(np.eye(2) / 2, np.eye(4) / 4)

    def test_nan_entry_rejected(self):
        with pytest.raises(InvalidStateError):
            trace_distance(np.diag([np.nan, 0.5]), np.eye(2) / 2)

    def test_non_hermitian_difference_rejected(self):
        # eigvalsh reads one triangle only, so a non-Hermitian difference
        # would give the trace norm of some other matrix
        with pytest.raises(InvalidStateError):
            trace_distance(np.array([[0.5, 0.5], [0.0, 0.5]]), np.eye(2) / 2)


class TestCommutatorNorm:
    """The report's C_abs = 2 sqrt(Var) against the eigvalsh oracle."""

    def test_white_noise_commutes(self, rng):
        psi = random_statevector(rng, 8)
        wn = build_white_noise_state(psi, 0.4)
        assert commutator_trace_norm(wn.data, psi) < 1e-10
        assert compute_spectral_report(wn.data, psi).commutator_abs < 1e-10

    def test_hand_example(self):
        rho = example_mixture()
        report = compute_spectral_report(rho, E0)
        assert abs(commutator_trace_norm(rho, E0) - 0.5) < 1e-12
        assert abs(report.commutator_abs - 0.5) < 1e-12
        assert abs(report.commutator_rel - (2.0 + np.sqrt(2.0))) < 1e-10
        assert abs(variance(rho, E0) - 0.0625) < 1e-12

    def test_dual_route_agreement(self, rng):
        for seed in range(10):
            rho, psi = noisy_sel_state(seed)
            a = commutator_trace_norm(rho, psi)
            b = compute_spectral_report(rho, psi).commutator_abs
            assert abs(a - b) / max(a, b) < 1e-8

    @pytest.mark.parametrize("eps", [1e-8, 1e-7])
    def test_dual_route_agreement_at_tiny_rate(self, eps):
        # Near a pure state <w|w> - F^2 cancels to rounding noise; the
        # variance route must still match the eigvalsh route.
        for seed in range(5):
            rho, psi = noisy_sel_state(seed, n_qubits=6, layers=8, eps=eps)
            a = commutator_trace_norm(rho, psi)
            b = compute_spectral_report(rho, psi).commutator_abs
            assert abs(a - b) / a <= 1e-6
            assert b == 2.0 * np.sqrt(variance(rho, psi))

    def test_pure_state_relative_rejected(self):
        report = compute_spectral_report(DensityMatrix.basis_state(1), E0)
        assert report.commutator_rel is None
        assert report.degenerate_reason == "noiseless"


class TestWhiteNoiseState:
    def test_eta_one_is_pure(self, rng):
        psi = random_statevector(rng, 4)
        wn = build_white_noise_state(psi, 1.0)
        assert np.abs(wn.data - np.outer(psi, psi.conj())).max() < 1e-14

    def test_eta_zero_is_maximally_mixed(self, rng):
        psi = random_statevector(rng, 4)
        wn = build_white_noise_state(psi, 0.0)
        assert np.abs(wn.data - np.eye(4) / 4).max() < 1e-14

    def test_hand_value(self):
        wn = build_white_noise_state(E0, 0.5)
        assert np.allclose(wn.data, np.diag([0.75, 0.25]))

    def test_spectrum_closed_form(self, rng):
        psi = random_statevector(rng, 16)
        eta = 0.37
        wn = build_white_noise_state(psi, eta)
        lam = np.linalg.eigvalsh(wn.data)
        expected = np.array([(1 - eta) / 16] * 15 + [eta + (1 - eta) / 16])
        assert np.abs(lam - expected).max() < 1e-12

    def test_fidelity_relation(self, rng):
        psi = random_statevector(rng, 8)
        wn = build_white_noise_state(psi, 0.81)
        assert abs(fidelity(wn.data, psi) - (0.81 + 0.19 / 8)) < 1e-12

    def test_unnormalised_rejected(self):
        with pytest.raises(InvalidStateError):
            build_white_noise_state(np.array([1.0, 1.0]), 0.5)


class TestBiasBound:
    def test_white_noise_bias_vanishes(self, rng):
        psi = random_statevector(rng, 4)
        wn = build_white_noise_state(psi, 0.6)
        obs = random_traceless_hermitian(rng, 4)
        bias, bound = bias_bound(obs, wn.data, psi, 0.6)
        assert abs(bias) < 1e-10

    def test_hand_example(self):
        obs = np.diag([1.0, -1.0]).astype(complex)
        rho = np.diag([0.75, 0.25]).astype(complex)
        bias, bound = bias_bound(obs, rho, E0, 0.5)
        assert abs(bias) < 1e-12
        assert abs(bound) < 1e-12

    def test_soundness_on_random_draws(self, rng):
        for _ in range(100):
            dim = 4
            rho = random_density_matrix(rng, dim)
            psi = random_statevector(rng, dim)
            obs = random_traceless_hermitian(rng, dim)
            eta = float(rng.uniform(0.05, 1.0))
            bias, bound = bias_bound(obs, rho, psi, eta)
            assert abs(bias) <= bound + 1e-10

    def test_non_traceless_rejected(self, rng):
        psi = random_statevector(rng, 2)
        with pytest.raises(InvalidObservableError):
            bias_bound(np.eye(2, dtype=complex), np.eye(2) / 2, psi, 0.5)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_observable_rejected(self, rng, entry):
        psi = random_statevector(rng, 2)
        obs = np.diag([1.0, -1.0]).astype(complex)
        obs[entry] = np.nan
        with pytest.raises(InvalidObservableError):
            bias_bound(obs, np.eye(2) / 2, psi, 0.5)


class TestArrowhead:
    def test_white_noise_border_vanishes(self, rng):
        psi = random_statevector(rng, 8)
        eta = 0.55
        wn = build_white_noise_state(psi, eta)
        form = arrowhead_transform(wn.data, psi)
        assert np.abs(form.offdiag).max() < 1e-10
        assert np.allclose(form.diag, (1 - eta) / 8, atol=1e-12)

    def test_hand_example(self):
        rho = example_mixture()
        form = arrowhead_transform(rho, E0)
        assert abs(form.corner - 0.75) < 1e-12
        assert np.allclose(form.offdiag, [0.25], atol=1e-12)
        # border magnitude equals the sup-norm of the commutator, sqrt(Var)
        assert abs(np.sqrt((form.offdiag**2).sum()) - np.sqrt(variance(rho, E0))) < 1e-12

    def test_transform_reproduces_arrowhead(self, rng):
        rho, psi = noisy_sel_state(3)
        form = arrowhead_transform(rho, psi)
        rotated = form.transform @ rho.data @ form.transform.conj().T
        assert np.abs(rotated - arrowhead_matrix(form)).max() < 1e-10

    def test_corner_is_fidelity(self, rng):
        rho, psi = noisy_sel_state(4)
        form = arrowhead_transform(rho, psi)
        assert abs(form.corner - fidelity(rho, psi)) < 1e-10

    def test_spectrum_preserved(self, rng):
        rho, psi = noisy_sel_state(5)
        form = arrowhead_transform(rho, psi)
        lam_arrow = np.linalg.eigvalsh(arrowhead_matrix(form))
        lam_rho = np.linalg.eigvalsh(rho.data)
        assert np.abs(np.sort(lam_arrow) - np.sort(lam_rho)).max() < 1e-10

    def test_border_sum_is_variance(self, rng):
        for seed in range(5):
            rho, psi = noisy_sel_state(seed)
            form = arrowhead_transform(rho, psi)
            assert abs((form.offdiag**2).sum() - variance(rho, psi)) < 1e-10


class TestSecularResidual:
    def test_white_noise_dominant_root(self, rng):
        psi = random_statevector(rng, 4)
        wn = build_white_noise_state(psi, 0.52)
        form = arrowhead_transform(wn.data, psi)
        lam1 = 0.52 + 0.48 / 4
        assert abs(secular_residual(form, lam1)) < 1e-10

    def test_hand_example_root(self):
        rho = example_mixture()
        form = arrowhead_transform(rho, E0)
        lam1 = (1 + np.sqrt(0.5)) / 2
        assert abs(secular_residual(form, lam1)) < 1e-10

    def test_nonroot_at_corner(self):
        rho = example_mixture()
        form = arrowhead_transform(rho, E0)
        assert abs(secular_residual(form, form.corner)) > 1e-3

    def test_every_eigenvalue_is_a_root(self, rng):
        for seed in range(5):
            rho, psi = noisy_sel_state(seed, layers=3, eps=0.2)
            form = arrowhead_transform(rho, psi)
            for lam in eigendecompose(rho, psi).eigenvalues:
                assert abs(secular_residual(form, lam)) < 1e-8

    def test_pole_rejected(self):
        rho = example_mixture()
        form = arrowhead_transform(rho, E0)
        with pytest.raises(PoleError):
            secular_residual(form, float(form.diag[0]))


class TestDominantEigenvalueGap:
    def test_white_noise_gap_zero(self, rng):
        psi = random_statevector(rng, 8)
        wn = build_white_noise_state(psi, 0.7)
        result = dominant_eigenvalue_gap(wn.data, psi)
        assert result.gap < 1e-12
        assert result.bound_applicable

    def test_hand_example_bound_inapplicable(self):
        rho = example_mixture()
        result = dominant_eigenvalue_gap(rho, E0)
        lam1 = (1 + np.sqrt(0.5)) / 2
        assert abs(result.gap - (lam1 - 0.75)) < 1e-12
        assert abs(result.bound - 0.0625 / (2 * lam1 - 1)) < 1e-12
        # here the largest arrowhead diagonal exceeds 1 - lambda_1
        assert not result.bound_applicable

    def test_low_dominance_signalled(self):
        result = dominant_eigenvalue_gap(np.eye(2) / 2, E0)
        assert np.isnan(result.bound)
        assert not result.bound_applicable
        assert result.gap >= 0.0

    def test_bound_holds_on_noisy_circuits(self):
        for seed in range(10):
            rho, psi = noisy_sel_state(seed, n_qubits=3, layers=4, eps=1e-3)
            result = dominant_eigenvalue_gap(rho, psi)
            if result.bound_applicable:
                assert result.gap <= result.bound + 1e-12

    def test_rounding_gap_reported_as_zero(self, rng):
        # psi is the top eigenvector, so lambda_1 = F exactly; lambda_1 <= 1/2
        # leaves the gap to the difference of two rounded O(1) numbers
        for _ in range(20):
            basis, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
            lam = np.array([0.45, 0.35] + [0.2 / 6] * 6)
            rho = (basis * lam) @ basis.conj().T
            result = dominant_eigenvalue_gap(0.5 * (rho + rho.conj().T), basis[:, 0])
            assert not result.bound_applicable
            assert result.gap == 0.0

    def test_gap_matches_eigh_oracle(self):
        # at eps 1e-3 lambda_1 - F is about 1e-6, well above rounding
        for seed in range(10):
            rho, psi = noisy_sel_state(seed, n_qubits=4, layers=2, eps=1e-3)
            result = dominant_eigenvalue_gap(rho, psi)
            lam1 = scipy.linalg.eigh(rho.data, eigvals_only=True)[-1]
            assert result.gap == pytest.approx(lam1 - fidelity(rho, psi), rel=1e-8)

    @pytest.mark.parametrize("eps", [1e-8, 1e-7])
    def test_bound_holds_with_no_slack_at_tiny_rate(self, eps):
        # lambda_1 - F is rounding noise here; it must not exceed the bound
        for n_qubits in (3, 4, 5):
            for seed in range(20):
                rho, psi = noisy_sel_state(seed, n_qubits=n_qubits, layers=2, eps=eps)
                result = dominant_eigenvalue_gap(rho, psi)
                if result.bound_applicable:
                    assert result.gap <= result.bound, (n_qubits, seed)


class TestWhiteNoiseDistanceIdentity:
    def test_maximally_mixed_error(self, rng):
        psi = random_statevector(rng, 4)
        lhs, rhs = white_noise_distance_identity(psi, 0.5, np.eye(4) / 4)
        assert lhs < 1e-12 and rhs < 1e-12

    def test_hand_example(self):
        err = np.diag([0.0, 1.0]).astype(complex)
        lhs, rhs = white_noise_distance_identity(E0, 0.5, err)
        assert abs(lhs - 0.25) < 1e-12
        assert abs(rhs - 0.25) < 1e-12

    def test_exactness_on_random_draws(self, rng):
        for _ in range(50):
            psi = random_statevector(rng, 8)
            err = random_density_matrix(rng, 8, rank=int(rng.integers(1, 9)))
            eta = float(rng.uniform(0.0, 1.0))
            lhs, rhs = white_noise_distance_identity(psi, eta, err)
            assert abs(lhs - rhs) < 1e-9

    def test_statement_of_uniformity_bound(self, rng):
        # synthetic spectra where the ideal state is exactly the dominant
        # eigenvector: half trace distance and (1 - lam1) W differ by at
        # most (1 - lam1)/d
        for _ in range(20):
            d = 8
            basis, _ = np.linalg.qr(
                rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            )
            lam = np.sort(rng.uniform(0, 1, size=d))[::-1]
            lam[0] += 1.0
            lam /= lam.sum()
            rho = (basis * lam) @ basis.conj().T
            psi = basis[:, 0]
            lam1 = lam[0]
            wn = build_white_noise_state(psi, lam1)
            half_dist = 0.5 * trace_distance(rho, wn.data)
            w = eigenvalue_uniformity(lam)
            assert abs(half_dist - (1 - lam1) * w) <= (1 - lam1) / d + 1e-12


class TestSpectralReport:
    def test_fields_consistent(self):
        rho, psi = noisy_sel_state(6, eps=0.05)
        report = compute_spectral_report(rho, psi, eta_estimate=0.9)
        assert 0.0 <= report.fidelity <= 1.0
        assert 0.0 <= report.uniformity <= 1.0
        assert report.commutator_rel == pytest.approx(
            report.commutator_abs / (1.0 - report.lambda1)
        )
        assert report.error_overlap == pytest.approx(
            (report.fidelity - 0.9) / 0.1
        )
        assert report.degenerate_reason is None

    def test_noiseless_reports_degenerate(self):
        rho, psi = noisy_sel_state(7, eps=0.0)
        report = compute_spectral_report(rho, psi)
        assert report.uniformity is None
        assert report.commutator_rel is None
        assert report.degenerate_reason == "noiseless"
        assert report.lambda1 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("eps", [1e-8, 1e-7])
    def test_spectrum_matches_eigh_oracle_at_tiny_rate(self, eps):
        # 1 - lambda_1 is about 1e-6 here, so W and the white-noise distance
        # are built from eigenvalues a million times smaller than lambda_1.
        for seed in range(3):
            rho, psi = noisy_sel_state(seed, n_qubits=6, layers=8, eps=eps)
            report = compute_spectral_report(rho, psi)
            lam = scipy.linalg.eigh(rho.data, eigvals_only=True)[::-1]
            d = lam.size
            uniformity = 0.5 * np.abs(lam[1:] / (1.0 - lam[0]) - 1.0 / (d - 1)).sum()
            wn = lam[0] * np.outer(psi, psi.conj()) + (1.0 - lam[0]) * np.eye(d) / d
            dist_wn = np.abs(scipy.linalg.eigh(rho.data - wn, eigvals_only=True)).sum()
            assert report.lambda1 == pytest.approx(lam[0], rel=1e-6)
            assert report.uniformity == pytest.approx(uniformity, rel=1e-6)
            assert report.trace_dist_wn == pytest.approx(dist_wn, rel=1e-6)

    def test_nan_state_rejected_as_a_state(self):
        with pytest.raises(InvalidStateError):
            compute_spectral_report(np.diag([np.nan, 0.5]), E0)

    def test_nan_ideal_state_rejected(self):
        with pytest.raises(InvalidStateError):
            compute_spectral_report(example_mixture(), np.array([np.nan, 0.0]))

    @pytest.mark.parametrize(
        "state",
        [
            np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
            np.array([[0.5, 1e-9j], [1e-9j, 0.5]]),
            np.diag([np.nan, 0.5]),
            np.array([[0.5, np.nan], [np.nan, 0.5]]),
        ],
        ids=["one-triangle", "anti-hermitian-1e-9", "nan-diagonal", "nan-off-diagonal"],
    )
    def test_raw_array_is_still_checked(self, state):
        # only a DensityMatrix, checked when it was made, skips the check
        with pytest.raises(InvalidStateError):
            compute_spectral_report(state, E0)
        with pytest.raises(InvalidStateError):
            eigendecompose(state)

    @pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-3])
    def test_white_noise_distance_matches_the_white_noise_state(self, eps):
        # the report builds rho - rho_wn in one working matrix; the
        # reference builds rho_wn, then the difference
        for seed in range(3):
            rho, psi = noisy_sel_state(seed, n_qubits=5, layers=6, eps=eps)
            report = compute_spectral_report(rho, psi)
            wn = build_white_noise_state(psi, report.lambda1)
            assert report.trace_dist_wn == pytest.approx(trace_distance(rho, wn.data), rel=1e-10)

    def test_peak_memory_above_inputs_is_one_matrix(self):
        # one working d x d matrix for rho - rho_wn; eigvalsh's own copy is
        # LAPACK workspace, outside tracemalloc
        rho, psi = noisy_sel_state(0, n_qubits=9, layers=2, eps=1e-3)
        compute_spectral_report(rho, psi)  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            compute_spectral_report(rho, psi)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * 4**9, peak / (16 * 4**9)

    @pytest.mark.parametrize("n", [9, 10])
    def test_row_report_allocates_under_a_tenth_of_a_matrix(self, n):
        # the row path's report overwrites rho with rho - rho_wn a row block
        # at a time, so it needs no working matrix of its own; at n=10 the
        # two-stage reduction's workspace is held to the same bound
        program = build_sel_circuit(n, 2, seed=0).with_noise(1e-3)
        psi = run_ideal(program, basis_statevector(n))
        _report(_evolve(program), psi, None)  # warm-up
        work = _evolve(program)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _report(work, psi, None)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 16 * 4**n, peak / (16 * 4**n)

    def test_inputs_left_unchanged(self):
        # n=7: rho - rho_wn takes two row blocks, built in the report's copy
        rho, psi = noisy_sel_state(0, n_qubits=7, layers=2, eps=1e-3)
        raw = np.array(rho.data)
        raw_before, rho_before = raw.tobytes(), rho.data.tobytes()
        reports = compute_spectral_report(raw, psi), compute_spectral_report(rho, psi)
        assert raw.flags.writeable and not rho.data.flags.writeable
        assert raw.tobytes() == raw_before and rho.data.tobytes() == rho_before
        assert reports[0] == reports[1]

    def test_fidelity_law_small_error_rates(self):
        # for moderate total error the no-error weight dominates fidelity
        deviations = []
        for seed in range(10):
            prog = build_sel_circuit(4, 6, seed=100 + seed)
            prog = prog.with_noise(0.002)
            rho = run_circuit(prog, DensityMatrix.basis_state(4))
            psi = run_ideal(prog, basis_statevector(4))
            xi = 0.002 * prog.gate_count
            deviations.append(fidelity(rho, psi) - np.exp(-xi))
        assert abs(np.mean(deviations)) <= 0.02


def _require_binding():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if not list(libs.glob("libscipy_openblas64_*")):
        pytest.skip("numpy.libs holds no scipy_openblas64 library, so the report falls back")
    assert metrics._lapack() is not None


class TestOneReduction:
    """The row report reduces rho once, with LAPACK's zhetrd below d = 1024 and
    zhetrd_2stage from there, and reads both spectra off T."""

    def test_binding_matches_eigvalsh_bit_for_bit(self, rng):
        # pins the one-stage route to the LAPACK numpy itself runs: eigvalsh
        # is zheevd, which for values alone is zhetrd then dsterf
        _require_binding()
        for n in range(2, 10):
            h = random_traceless_hermitian(rng, 2**n)
            expected = np.linalg.eigvalsh(h)
            _, spectrum = _reduce(np.array(h))
            assert np.array_equal(spectrum(), expected), n
            assert np.array_equal(spectrum(), expected), n  # the spectrum leaves T as it was

    def test_two_stage_route_from_d_1024(self):
        # n=10, the first width on zhetrd_2stage, on the reflected state a row reduces
        _require_binding()
        program = build_sel_circuit(10, 2, seed=0).with_noise(1e-3)
        work = _evolve(program)
        _reflect(work, run_ideal(program, basis_statevector(10)))
        top, expected = work[0, 0].real, np.linalg.eigvalsh(work)
        diag, spectrum = _reduce(work)
        # the reduction fixes e_1, which the report's diagonal shift relies on
        assert diag[0] == top
        assert np.abs(spectrum() - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.array_equal(spectrum(), spectrum())

    @pytest.mark.parametrize("eps", [1e-3, 1e-8])
    def test_binding_and_fallback_agree_with_the_independent_route(self, monkeypatch, eps):
        rho, psi = noisy_sel_state(0, n_qubits=6, layers=4, eps=eps)
        fast = compute_spectral_report(rho, psi)
        monkeypatch.setattr(metrics, "_lapack", lambda: None)
        slow = compute_spectral_report(rho, psi)
        lam = np.linalg.eigvalsh(rho.data)[::-1]
        dist_wn = trace_distance(rho, build_white_noise_state(psi, fast.lambda1).data)
        for report in (slow, fast):
            for field in ("uniformity", "commutator_rel", "lambda1"):
                assert getattr(report, field) == pytest.approx(getattr(fast, field), rel=1e-12)
            assert report.trace_dist_wn == pytest.approx(fast.trace_dist_wn, abs=1e-14)
            assert report.lambda1 == pytest.approx(lam[0], rel=1e-12)
            # at eps 1e-8, W is built from eigenvalues a million times below lambda_1
            assert report.uniformity == pytest.approx(eigenvalue_uniformity(lam), rel=1e-10)
            assert report.trace_dist_wn == pytest.approx(dist_wn, abs=1e-14)

    @pytest.mark.parametrize("kind", ["e1", "minus-i-e1", "zero-first-entry", "random"])
    def test_reflector_maps_psi_to_e1(self, rng, kind):
        d = 64
        psi = random_statevector(rng, d)
        if kind == "e1":
            psi = np.eye(d, dtype=complex)[0]
        elif kind == "minus-i-e1":
            psi = -1j * np.eye(d, dtype=complex)[0]
        elif kind == "zero-first-entry":
            psi[0] = 0.0
            psi /= np.linalg.norm(psi)
        work = np.outer(psi, psi.conj())
        v = _reflect(work, psi)
        image = psi - 2.0 * v * np.vdot(v, psi)
        assert np.abs(image[1:]).max() <= 1e-15
        assert abs(abs(image[0]) - 1.0) <= 1e-15
        e1 = np.zeros((d, d))
        e1[0, 0] = 1.0
        assert np.abs(work - e1).max() <= 1e-15
