import itertools
import tracemalloc

import numpy as np
import pytest

from noisescramble import (
    CircuitProgram,
    DensityMatrix,
    ExperimentConfig,
    Gate,
    InvalidGateError,
    InvalidRateError,
    InvalidStateError,
    NoiseSpec,
    ShapeError,
    basis_statevector,
    build_program,
    load_hamiltonian_file,
    run_circuit,
    run_ideal,
)
from noisescramble.ansatz import build_sel_circuit
from noisescramble.simulator import _fused_ops, _Op, _pauli_tables

from .conftest import REPO_ROOT
from .oracles import full_gate_unitary, kraus_run, statevector_run


class TestGate:
    def test_rotation_matrices_are_unitary(self, rng):
        for maker in (Gate.rotation_x, Gate.rotation_y, Gate.rotation_z):
            for angle in rng.uniform(-7, 7, size=5):
                u = maker(0, angle).matrix()
                assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_pauli_exponential_strips_identities(self):
        g = Gate.pauli_exponential("IXIZ", 0.3)
        assert g.qubits == (1, 3)
        assert g.pauli == "XZ"
        assert g.matrix().shape == (4, 4)

    def test_pauli_exponential_identity_rejected(self):
        with pytest.raises(InvalidGateError):
            Gate.pauli_exponential("III", 0.3)

    def test_pauli_exponential_unitary_arbitrary_angles(self, rng):
        for _ in range(10):
            ops = "".join(rng.choice(list("IXYZ"), size=4))
            if set(ops) == {"I"}:
                continue
            g = Gate.pauli_exponential(ops, float(rng.uniform(-9, 9)))
            u = g.matrix()
            assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-12

    def test_cnot_rejects_equal_control_target(self):
        with pytest.raises(InvalidGateError):
            Gate.cnot(1, 1)

    def test_repeated_support_rejected(self):
        with pytest.raises(InvalidGateError):
            Gate("cnot", (0, 0))

    def test_non_finite_angle_rejected(self):
        with pytest.raises(InvalidGateError):
            Gate.rotation_x(0, float("nan"))


def _run_one_gate(state, gate, per_gate_error=0.0):
    program = CircuitProgram(state.n_qubits, (gate,)).with_noise(per_gate_error)
    return run_circuit(program, state)


def _depolarise(state, qubit, rate):
    """The partial-replace channel at ``rate`` on one qubit, as the noise of an
    identity rotation at per-gate error 3 rate / 4."""
    return _run_one_gate(state, Gate.rotation_z(qubit, 0.0), 0.75 * rate)


class TestApplyUnitary:
    """One noiseless gate through run_circuit."""

    def test_rz_leaves_zero_state_unchanged(self):
        state = DensityMatrix.basis_state(1)
        out = _run_one_gate(state, Gate.rotation_z(0, 1.234))
        assert np.abs(out.data - state.data).max() < 1e-15

    def test_hadamard_on_zero_gives_plus(self):
        out = _run_one_gate(DensityMatrix.basis_state(1), Gate.hadamard(0))
        assert np.abs(out.data - 0.5 * np.ones((2, 2))).max() < 1e-15

    def test_cnot_on_10_gives_11(self):
        # oracle: direct 4x4 matrix multiplication
        state = DensityMatrix(2, np.diag([0.0, 0.0, 1.0, 0.0]))
        out = _run_one_gate(state, Gate.cnot(0, 1))
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        expected = cnot @ state.data @ cnot.conj().T
        assert np.abs(out.data - expected).max() < 1e-15
        assert abs(out.data[3, 3] - 1.0) < 1e-15

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(InvalidGateError):
            CircuitProgram(1, (Gate.hadamard(1),))

    def test_spectrum_preserved(self, rng):
        from .conftest import random_density_matrix

        state = DensityMatrix(2, random_density_matrix(rng, 4))
        out = _run_one_gate(state, Gate.pauli_exponential("XY", 0.7))
        assert np.allclose(
            np.linalg.eigvalsh(out.data), np.linalg.eigvalsh(state.data), atol=1e-12
        )


class TestApplyDepolarising:
    """The per-qubit channel (1 - p) rho + p tr_q(rho) (x) Id/2 of run_circuit."""

    def test_zero_rate_is_identity(self, rng):
        from .conftest import random_density_matrix

        state = DensityMatrix(2, random_density_matrix(rng, 4))
        out = _depolarise(state, 1, 0.0)
        assert np.abs(out.data - state.data).max() < 1e-15

    def test_full_rate_gives_maximally_mixed_qubit(self):
        out = _depolarise(DensityMatrix.basis_state(1), 0, 1.0)
        assert np.abs(out.data - np.eye(2) / 2).max() < 1e-15

    def test_half_rate_on_plus_state(self):
        # oracle: direct 2x2 algebra, (1-p)|+><+| + p Id/2
        plus = DensityMatrix(1, 0.5 * np.ones((2, 2)))
        out = _depolarise(plus, 0, 0.5)
        expected = 0.5 * plus.data + 0.5 * np.eye(2) / 2
        assert np.abs(out.data - expected).max() < 1e-14
        assert np.allclose(np.linalg.eigvalsh(out.data), [0.25, 0.75], atol=1e-14)

    def test_rate_outside_unit_interval_rejected(self):
        program = CircuitProgram(1, (Gate.hadamard(0),))
        with pytest.raises(InvalidRateError):
            program.with_noise(1.5)
        with pytest.raises(InvalidRateError):
            program.with_noise(-0.1)

    def test_channel_composition(self, rng):
        # p1 then p2 equals a single application at 1 - (1-p1)(1-p2)
        from .conftest import random_density_matrix

        state = DensityMatrix(3, random_density_matrix(rng, 8))
        p1, p2 = 0.23, 0.41
        twice = _depolarise(_depolarise(state, 1, p1), 1, p2)
        once = _depolarise(state, 1, 1.0 - (1.0 - p1) * (1.0 - p2))
        assert np.abs(twice.data - once.data).max() < 1e-12

    def test_trace_and_hermiticity_preserved(self, rng):
        from .conftest import random_density_matrix

        state = DensityMatrix(2, random_density_matrix(rng, 4))
        out = _depolarise(state, 0, 0.37)
        assert abs(np.trace(out.data).real - 1.0) < 1e-12
        assert np.abs(out.data - out.data.conj().T).max() < 1e-13


class TestNoiseSpec:
    def test_no_error_probability_split(self):
        spec = NoiseSpec(0.1)
        for q in (1, 2, 3):
            rate = spec.per_qubit_error_rate(q)
            assert abs((1.0 - rate) ** q - 0.9) < 1e-14

    def test_two_qubit_relation(self):
        # per-gate error relates to the per-qubit one as 2r - r^2
        spec = NoiseSpec(0.2)
        r = spec.per_qubit_error_rate(2)
        assert abs(2 * r - r * r - 0.2) < 1e-14

    def test_extremes(self):
        assert NoiseSpec(0.0).per_qubit_error_rate(2) == 0.0
        assert NoiseSpec(1.0).per_qubit_error_rate(2) == 1.0

    def test_invalid_rates_rejected(self):
        with pytest.raises(InvalidRateError):
            NoiseSpec(-0.01)
        with pytest.raises(InvalidRateError):
            NoiseSpec(1.01)


class TestRunCircuit:
    def test_noiseless_output_is_pure(self):
        prog = build_sel_circuit(3, 2, seed=5)
        rho = run_circuit(prog, DensityMatrix.basis_state(3))
        lam = np.linalg.eigvalsh(rho.data)
        assert abs(lam[-1] - 1.0) < 1e-10

    def test_single_hadamard_fidelity_closed_form(self):
        # one uniform X/Y/Z error at rate eps on |+>: F = 1 - 2 eps/3
        prog = CircuitProgram(1, (Gate.hadamard(0),)).with_noise(0.1)
        rho = run_circuit(prog, DensityMatrix.basis_state(1))
        plus = np.array([1, 1]) / np.sqrt(2)
        f = float(np.vdot(plus, rho.data @ plus).real)
        assert abs(f - (1.0 - 2.0 * 0.1 / 3.0)) < 1e-12

    def test_full_error_rate_single_hadamard(self):
        # eps=1 applies X, Y or Z uniformly: (X rho X + Y rho Y + Z rho Z)/3
        prog = CircuitProgram(1, (Gate.hadamard(0),)).with_noise(1.0)
        rho = run_circuit(prog, DensityMatrix.basis_state(1))
        expected = np.array([[0.5, -1 / 6], [-1 / 6, 0.5]], dtype=complex)
        assert np.abs(rho.data - expected).max() < 1e-14

    def test_dimension_mismatch(self):
        prog = CircuitProgram(2, (Gate.hadamard(0),))
        with pytest.raises(ShapeError):
            run_circuit(prog, DensityMatrix.basis_state(3))

    def test_no_error_probability_lower_bound(self):
        eps = 0.05
        prog = build_sel_circuit(3, 3, seed=2).with_noise(eps)
        rho = run_circuit(prog, DensityMatrix.basis_state(3))
        psi = run_ideal(prog, basis_statevector(3))
        overlap = float(np.vdot(psi, rho.data @ psi).real)
        assert overlap >= (1.0 - eps) ** prog.gate_count - 1e-10

    def test_trace_and_psd_preserved_through_long_circuit(self):
        prog = build_sel_circuit(3, 20, seed=3).with_noise(0.02)
        rho = run_circuit(prog, DensityMatrix.basis_state(3))
        assert abs(np.trace(rho.data).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho.data)[0] > -1e-10

    def test_matches_kraus_oracle(self, rng):
        for trial in range(5):
            layers = int(rng.integers(1, 3))
            seed = int(rng.integers(1e6))
            prog = build_sel_circuit(2, layers, seed).with_noise(float(rng.uniform(0.0, 0.6)))
            prog = CircuitProgram(2, prog.gates[:8], prog.noise)
            rho = run_circuit(prog, DensityMatrix.basis_state(2))
            expected = kraus_run(prog, DensityMatrix.basis_state(2).data)
            assert np.abs(rho.data - expected).max() < 1e-12

    def test_pauli_exponential_matches_oracle(self, rng):
        gates = (
            Gate.pauli_exponential("XYZ", 0.43),
            Gate.pauli_exponential("ZZI", -1.2),
            Gate.hadamard(1),
        )
        prog = CircuitProgram(3, gates).with_noise(0.12)
        rho = run_circuit(prog, DensityMatrix.basis_state(3))
        expected = kraus_run(prog, DensityMatrix.basis_state(3).data)
        assert np.abs(rho.data - expected).max() < 1e-12


class TestRunIdeal:
    def test_empty_program_identity(self):
        prog = CircuitProgram(2, ())
        psi = run_ideal(prog, basis_statevector(2))
        assert np.abs(psi - basis_statevector(2)).max() == 0.0

    def test_hadamard_on_zero(self):
        prog = CircuitProgram(1, (Gate.hadamard(0),))
        psi = run_ideal(prog, basis_statevector(1))
        assert np.abs(psi - np.array([1, 1]) / np.sqrt(2)).max() < 1e-15

    def test_norm_preserved(self):
        prog = build_sel_circuit(4, 6, seed=9)
        psi = run_ideal(prog, basis_statevector(4))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_matches_statevector_oracle(self):
        prog = build_sel_circuit(3, 2, seed=17)
        psi = run_ideal(prog, basis_statevector(3))
        expected = statevector_run(prog, basis_statevector(3))
        assert np.abs(psi - expected).max() < 1e-12

    def test_matches_density_route_at_zero_noise(self):
        # density-matrix route as oracle: dominant eigenvector overlap
        prog = build_sel_circuit(3, 1, seed=21)
        psi = run_ideal(prog, basis_statevector(3))
        rho = run_circuit(prog, DensityMatrix.basis_state(3))
        overlap = float(np.vdot(psi, rho.data @ psi).real)
        assert overlap >= 1.0 - 1e-10

    def test_unnormalised_initial_rejected(self):
        prog = CircuitProgram(1, (Gate.hadamard(0),))
        with pytest.raises(InvalidStateError):
            run_ideal(prog, np.array([1.0, 1.0]))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        data = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix(1, data)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            DensityMatrix(2, np.eye(2, dtype=complex) / 2)


def _mixed_program(rng, n_qubits, n_gates):
    """Random gates of every kind, with Pauli exponentials of weight 1 to n."""
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(4)
        if kind == 0:
            maker = (Gate.rotation_x, Gate.rotation_y, Gate.rotation_z)[rng.integers(3)]
            gates.append(maker(int(rng.integers(n_qubits)), float(rng.uniform(-7, 7))))
        elif kind == 1:
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate.cnot(int(control), int(target)))
        else:
            weight = int(rng.integers(1, n_qubits + 1))
            ops = ["I"] * n_qubits
            for q in rng.choice(n_qubits, size=weight, replace=False):
                ops[q] = str(rng.choice(list("XYZ")))
            gates.append(Gate.pauli_exponential("".join(ops), float(rng.uniform(-4, 4))))
    return CircuitProgram(n_qubits, tuple(gates))


def _fused_supports(program):
    ops = _fused_ops(program, (gate.matrix() for gate in program.gates))
    return [op.qubits for op in ops]


def _long_program(name, per_gate_error):
    """SEL on 5 or 7 qubits, or the 4-qubit HVA-SPARSE molecule at 64 layers (7042 gates)."""
    if name.startswith("sel"):
        n_qubits, n_layers = {"sel5": (5, 200), "sel7": (7, 128)}[name]
        program = build_sel_circuit(n_qubits, n_layers, seed=4)
    else:
        config = ExperimentConfig(
            family="HVA-SPARSE",
            n_qubits=4,
            epsilons=(per_gate_error,),
            layers=(64,),
            hamiltonian_file=str(REPO_ROOT / "perfbench" / "data" / "toy_molecule_4q.txt"),
        )
        file_hamiltonian = load_hamiltonian_file(config.hamiltonian_file)
        program = build_program(config, 64, 0, 0, file_hamiltonian)
    return program.with_noise(per_gate_error)


class TestFusedKernel:
    """run_circuit fuses gates into <= 2-qubit superoperators; the Kraus
    oracle applies every gate and every error channel literally."""

    @staticmethod
    def _check_against_oracle(program, epsilons=(1e-8, 0.1, 1.0)):
        initial = DensityMatrix.basis_state(program.n_qubits)
        for eps in epsilons:
            noisy = program.with_noise(eps)
            rho = run_circuit(noisy, initial)
            expected = kraus_run(noisy, initial.data)
            assert np.abs(rho.data - expected).max() < 1e-12, eps

    def test_long_mixed_four_qubit_program(self, rng):
        program = _mixed_program(rng, 4, 320)
        weights = {len(g.qubits) for g in program.gates}
        assert weights == {1, 2, 3, 4}
        self._check_against_oracle(program)

    def test_gate_moves_back_only_past_disjoint_ops(self):
        # Rx(0) after CNOT(0,1), CNOT(1,2) joins the op of CNOT(0,1), and
        # Ry(1) after CNOT(3,2) joins the op of CNOT(1,2). CNOT(3,2) must
        # not join the older op of H(3): the op on (1,2) lies in between.
        program = CircuitProgram(
            4,
            (
                Gate.hadamard(3),
                Gate.hadamard(0),
                Gate.cnot(0, 1),
                Gate.cnot(1, 2),
                Gate.rotation_x(0, 0.7),
                Gate.rotation_z(2, -1.3),
                Gate.cnot(3, 2),
                Gate.rotation_y(1, 0.4),
            ),
        )
        supports = _fused_supports(program)
        assert supports == [(3,), (0, 1), (1, 2), (3, 2)]
        self._check_against_oracle(program)

    def test_reversed_pair_cnots(self):
        program = CircuitProgram(
            2,
            (
                Gate.rotation_y(1, 0.9),
                Gate.cnot(0, 1),
                Gate.cnot(1, 0),
                Gate.rotation_x(0, 0.3),
                Gate.cnot(1, 0),
                Gate.pauli_exponential("YX", 0.8),
                Gate.cnot(0, 1),
            ),
        )
        assert _fused_supports(program) == [(0, 1)]
        self._check_against_oracle(program)

    def test_pauli_exponential_matrix_matches_expm(self):
        for ops in itertools.product("XYZ", repeat=3):
            for length in (1, 2, 3):
                gate = Gate.pauli_exponential("".join(ops[:length]), 0.83)
                expected = full_gate_unitary(gate, length)
                assert np.abs(gate.matrix() - expected).max() < 1e-14

    def test_memory_does_not_grow_with_depth(self):
        # ops are applied as soon as no later gate can merge into them, so
        # the kernel holds O(n) small maps, not one per gate
        peaks = []
        for layers in (50, 200):
            program = build_sel_circuit(5, layers, seed=4).with_noise(1e-3)
            initial = DensityMatrix.basis_state(5)
            run_circuit(program, initial)  # warm-up
            tracemalloc.start()
            try:
                run_circuit(program, initial)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    @pytest.mark.parametrize("name, per_gate_error", [("sel5", 1e-3), ("sparse4", 1e-3)])
    def test_held_ops_bounded_by_twice_the_width(self, monkeypatch, name, per_gate_error):
        # ops created minus ops yielded, counted as each gate arrives
        program = _long_program(name, per_gate_error)
        created = yielded = 0
        held = []
        original = _Op.__init__

        def counting(op, *args):
            nonlocal created
            created += 1
            original(op, *args)

        def matrices():
            for gate in program.gates:
                held.append(created - yielded)
                yield gate.matrix()

        monkeypatch.setattr(_Op, "__init__", counting)
        for _ in _fused_ops(program, matrices()):
            yielded += 1
        assert created == yielded > program.n_qubits
        assert max(held) <= 2 * program.n_qubits, max(held)

    @pytest.mark.parametrize("name, per_gate_error", [("sel7", 1e-8), ("sparse4", 1e-7)])
    def test_state_stays_hermitian_without_symmetrising(self, name, per_gate_error):
        # why run_circuit symmetrises only once, at the end
        program = _long_program(name, per_gate_error)
        n = program.n_qubits
        t = DensityMatrix.basis_state(n).data.reshape((2,) * (2 * n))
        for op in _fused_ops(program, (gate.matrix() for gate in program.gates)):
            t = op.apply(t, n)
        m = t.reshape(2**n, 2**n)
        assert np.abs(m - m.conj().T).max() < 1e-13


def _embedded(gate, n):
    """The gate's unitary on n qubits: column j is the gate applied to |j>."""
    program = CircuitProgram(n, (gate,))
    return np.stack([run_ideal(program, column) for column in np.eye(2**n)], axis=1)


class TestGateMatrixCaches:
    """Gate.matrix builds Pauli exponentials from cached, read-only tables."""

    def test_mutating_a_matrix_leaves_the_next_unchanged(self):
        gates = (
            Gate.pauli_exponential("XZY", 0.7),
            Gate.pauli_exponential("ZZ", -1.9),
            Gate.hadamard(0),
            Gate.cnot(0, 1),
            Gate.rotation_y(0, 0.3),
        )
        for gate in gates:
            first = gate.matrix()
            expected = first.copy()
            first[...] = 99.0
            assert np.array_equal(gate.matrix(), expected), gate.kind

    def test_tables_are_read_only(self):
        for table in _pauli_tables("XZY"):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.reshape(-1)[0] = 1

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_every_pauli_string_matches_expm(self, length):
        strings = ["".join(ops) for ops in itertools.product("IXYZ", repeat=length)]
        strings.remove("I" * length)
        assert len(strings) == 4**length - 1
        for ops in strings:
            for angle in (0.83, -2.4):
                gate = Gate.pauli_exponential(ops, angle)
                expected = full_gate_unitary(gate, length)
                assert np.abs(_embedded(gate, length) - expected).max() < 1e-14, ops
