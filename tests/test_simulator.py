import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

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
from noisescramble import simulator
from noisescramble.simulator import (
    _apply_gate,
    _fused_ops,
    _from_pauli,
    _noisy_maps,
    _Op,
    _pauli_action,
    _rotation_rows,
    _to_pauli,
)

from .conftest import REPO_ROOT
from .oracles import (
    PAULI,
    embed,
    full_gate_unitary,
    kraus_run,
    pauli_transfer_matrix,
    statevector_run,
)


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

    def test_with_angle_equals_the_constructed_gate(self):
        pairs = [
            (Gate.rotation_x(2, 0.0), Gate.rotation_x(2, -1.25)),
            (Gate.rotation_z(0, 0.0), Gate.rotation_z(0, 3)),
            (Gate.pauli_exponential("XIZY", 0.0), Gate.pauli_exponential("XIZY", 0.7)),
        ]
        for template, expected in pairs:
            before = repr(template)
            gate = template.with_angle(expected.angle)
            assert gate == expected and hash(gate) == hash(expected)
            assert repr(gate) == repr(expected)
            assert list(vars(gate).items()) == list(vars(expected).items())
            assert repr(template) == before and template.angle == 0.0

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
    def test_with_angle_rejects_non_finite_angles(self, angle):
        with pytest.raises(InvalidGateError):
            Gate.pauli_exponential("XZ", 0.3).with_angle(angle)

    @pytest.mark.parametrize("gate", [Gate.hadamard(0), Gate.cnot(0, 1)])
    def test_with_angle_rejects_gates_without_angle(self, gate):
        with pytest.raises(InvalidGateError):
            gate.with_angle(0.5)

    @pytest.mark.parametrize(
        "args",
        [
            ("h", ()),
            ("rx", (0,)),
            ("cnot", (0,)),
            ("h", (0, 1)),
            ("pauli_exp", (0, 1), 0.3, "XYZ"),
            ("t", (0,)),
            ("rz", (0.0,), 1.0),
            ("rz", (True,), 1.0),
            ("rz", (np.float64(0.0),), 1.0),
            ("cnot", [0, 1]),
            ("cnot", (0, "1")),
            ("pauli_exp", (0, 1.0), 0.3, "XZ"),
        ],
    )
    def test_malformed_definition_rejected(self, args):
        Gate("rz", (0,), 1.0)  # a cached check of (0,) must not pass (0.0,) or (True,)
        with pytest.raises(InvalidGateError):
            Gate(*args)

    def test_numpy_integer_support_accepted(self):
        gate = Gate("cnot", (np.int64(1), np.int32(0)))
        assert gate == Gate.cnot(1, 0)
        assert CircuitProgram(np.int64(2), (gate,)).n_qubits == 2


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

    @pytest.mark.parametrize("width", [2.0, True, "2", 0])
    def test_malformed_width_rejected(self, width):
        with pytest.raises(InvalidGateError):
            CircuitProgram(width, (Gate.hadamard(0),))

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
        with pytest.raises(InvalidRateError):
            program.with_noise(float("nan"))

    def test_with_noise_keeps_the_checked_gates(self, monkeypatch):
        program = build_sel_circuit(3, 2, seed=1)
        before = repr(program)

        def checking_again(_):
            raise AssertionError("the gates were checked when the program was built")

        monkeypatch.setattr(CircuitProgram, "__post_init__", checking_again)
        noisy = program.with_noise(0.25)
        assert noisy.gates is program.gates and noisy.n_qubits == program.n_qubits
        assert noisy.noise == NoiseSpec(0.25)
        assert repr(program) == before and program.noise == NoiseSpec(0.0)

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


def _bits(a):
    """The raw 64-bit words of a float or complex array: equality covers signed zeros."""
    return np.ascontiguousarray(a).view(np.uint64)


def _grid_program(family, n_qubits, n_layers, per_gate_error, **overrides):
    config = ExperimentConfig(
        family=family, n_qubits=n_qubits, epsilons=(per_gate_error,), layers=(n_layers,),
        **overrides,
    )
    file_hamiltonian = None
    if config.hamiltonian_file is not None:
        file_hamiltonian = load_hamiltonian_file(config.hamiltonian_file)
    program = build_program(config, n_layers, 3, 5, file_hamiltonian)
    return program.with_noise(per_gate_error)


class TestDefaultStartState:
    """run_circuit(program) starts from |0...0><0...0| built in the Pauli
    basis, with no d x d start matrix."""

    @pytest.mark.parametrize("n_qubits", range(1, 9))
    def test_short_programs_match_basis_state_bit_for_bit(self, n_qubits):
        for gates in ((), (Gate.rotation_y(n_qubits - 1, 0.3),)):
            program = CircuitProgram(n_qubits, gates).with_noise(1e-3)
            default = run_circuit(program).data
            explicit = run_circuit(program, DensityMatrix.basis_state(n_qubits)).data
            assert np.array_equal(_bits(default), _bits(explicit))

    @pytest.mark.parametrize(
        "family, n_qubits, n_layers, overrides",
        [
            ("SEL", 5, 6, {}),
            ("SEL", 6, 3, {}),
            ("HVA-XXX", 6, 4, {}),
            ("HVA-XXX", 4, 3, {"parameter_mode": "vqe"}),
            (
                "HVA-SPARSE",
                4,
                6,
                {"hamiltonian_file": str(REPO_ROOT / "perfbench" / "data" / "toy_molecule_4q.txt")},
            ),
        ],
    )
    @pytest.mark.parametrize("per_gate_error", [1e-8, 1e-3])
    def test_default_start_equals_basis_state_bit_for_bit(
        self, family, n_qubits, n_layers, overrides, per_gate_error
    ):
        program = _grid_program(family, n_qubits, n_layers, per_gate_error, **overrides)
        default = run_circuit(program).data
        explicit = run_circuit(program, DensityMatrix.basis_state(n_qubits)).data
        assert np.array_equal(_bits(default), _bits(explicit))

    @pytest.mark.parametrize("n_qubits", [1, 3])
    def test_start_state_left_unchanged(self, rng, n_qubits):
        from .conftest import random_density_matrix

        initial = DensityMatrix(n_qubits, random_density_matrix(rng, 2**n_qubits))
        before = initial.data.copy()
        program = CircuitProgram(n_qubits, (Gate.hadamard(0),)).with_noise(0.1)
        run_circuit(program, initial)
        assert np.array_equal(initial.data, before)

    def test_peak_memory_is_two_matrices(self):
        # the real Pauli state (half a d x d complex matrix) is gone before
        # the conversion takes its second buffer, and the spent buffer is
        # gone before the output's Hermiticity check
        program = build_sel_circuit(9, 2, seed=0).with_noise(1e-3)
        run_circuit(program)  # warm-up: cached maps and axis orders
        tracemalloc.start()
        try:
            run_circuit(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 16 * 4**9, peak / (16 * 4**9)


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

    @staticmethod
    def _mixed_state():
        return np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])

    def test_off_diagonal_mismatch_beyond_bound_rejected(self):
        data = self._mixed_state()
        data[1, 0] += 2e-12
        with pytest.raises(InvalidStateError):
            DensityMatrix(1, data)

    def test_imaginary_diagonal_rejected(self):
        data = self._mixed_state()
        data[0, 0] += 1e-11j  # inside the trace tolerance, outside Hermiticity's
        with pytest.raises(InvalidStateError):
            DensityMatrix(1, data)

    def test_exactly_hermitian_accepted(self, rng):
        from .conftest import random_density_matrix

        for n in (1, 4, 7):  # 7 qubits span two blocks of 64 rows
            rho = random_density_matrix(rng, 2**n)
            rho = 0.5 * (rho + rho.conj().T)
            assert np.array_equal(DensityMatrix(n, rho).data, rho)

    def test_nan_rejected(self):
        data = self._mixed_state()
        data[0, 1] = data[1, 0] = np.nan
        with pytest.raises(InvalidStateError):
            DensityMatrix(1, data)

    def test_data_is_read_only_and_not_the_callers(self):
        # the checks made when the state was built must stay true
        data = self._mixed_state()
        rho = DensityMatrix(1, data)
        data[1, 0] = 0.3  # the caller's array is not the state's
        assert rho.data[1, 0] == 0.1 + 0.2j
        with pytest.raises(ValueError):
            rho.data[1, 0] = 0.3
        for state in (DensityMatrix.basis_state(2), run_circuit(build_sel_circuit(3, 2).with_noise(1e-3))):
            with pytest.raises(ValueError):
                state.data[0, 0] = 0.5

    def test_read_only_complex_input_is_kept(self):
        data = self._mixed_state()
        data.flags.writeable = False
        assert DensityMatrix(1, data).data is data


def _mixed_program(rng, n_qubits, n_gates):
    """Random rotations, CNOTs both ways round and Pauli exponentials on 1 to
    4 qubits. A 2-qubit gate reuses the last pair half the time, so that runs
    of gates fuse and break in every way."""
    gates, pair = [], (0, 1)
    for _ in range(n_gates):
        kind = rng.integers(4)
        if kind == 0:
            maker = (Gate.rotation_x, Gate.rotation_y, Gate.rotation_z)[rng.integers(3)]
            gates.append(maker(int(rng.integers(n_qubits)), float(rng.uniform(-7, 7))))
            continue
        if rng.random() < 0.5:
            pair = tuple(int(q) for q in rng.choice(n_qubits, size=2, replace=False))
        if kind == 1:
            gates.append(Gate.cnot(*pair[:: rng.choice([1, -1])]))
            continue
        support = pair if kind == 2 else rng.choice(n_qubits, min(4, n_qubits), replace=False)
        ops = ["I"] * n_qubits
        for q in support[: int(rng.integers(1, len(support) + 1))]:
            ops[q] = str(rng.choice(list("XYZ")))
        gates.append(Gate.pauli_exponential("".join(ops), float(rng.uniform(-4, 4))))
    return CircuitProgram(n_qubits, tuple(gates))


def _fused_supports(program):
    return [op.qubits for op in _fused_ops(program)]


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
    """run_circuit fuses gates into <= 2-qubit Pauli transfer matrices; the
    Kraus oracle applies every gate and every error channel literally."""

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

    def test_single_qubit_maps_fold_forward_past_the_open_pair(self):
        # H(3) and H(0) wait on their qubits. CNOT(0,1) takes in H(0) and
        # becomes the open op. CNOT(1,2) is on another pair: it yields the
        # open op and becomes it. Rx(0) and Rz(2) wait. CNOT(3,2) takes in
        # Rz(2) and H(3), yields the op on (1, 2) and becomes the open op on
        # the pair in ascending order. Ry(1) waits. At the end the open op is
        # yielded, then the waiting maps in the order they began to wait.
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
        assert supports == [(0, 1), (1, 2), (2, 3), (0,), (1,)]
        self._check_against_oracle(program)

    def test_waiting_maps_on_both_qubits_fold_into_the_pair(self):
        program = CircuitProgram(
            2, (Gate.rotation_z(0, 0.6), Gate.rotation_y(1, -1.1), Gate.cnot(0, 1))
        )
        assert _fused_supports(program) == [(0, 1)]
        self._check_against_oracle(program)

    def test_random_programs_match_unfused_maps(self, rng):
        # the fused ops against the same noisy maps applied one gate at a time
        from .conftest import random_density_matrix

        widths = set()
        for trial in range(50):
            n = 2 + trial % 5
            program = _mixed_program(rng, n, 40).with_noise(float(rng.choice([0.0, 1e-3, 0.3])))
            initial = DensityMatrix(n, random_density_matrix(rng, 2**n))
            x = _to_pauli(initial)
            for gate in program.gates:
                x = _Op(*_noisy_map(gate, program.noise.per_gate_error)).apply(x)
            rho = run_circuit(program, initial)
            assert np.abs(rho.data - _from_pauli(x, n)).max() <= 1e-13, trial
            widths.update(len(g.qubits) for g in program.gates)
        assert widths == {1, 2, 3, 4}

    @pytest.mark.parametrize("name, n_qubits, n_layers", [("sel5", 5, 200), ("sel7", 7, 128)])
    def test_sel_layer_fuses_to_one_op_per_qubit(self, name, n_qubits, n_layers):
        # one op per ring CNOT: each qubit's rotations wait for its next CNOT
        assert len(_fused_supports(_long_program(name, 1e-3))) == n_qubits * n_layers

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
        # every string on 1-3 qubits, identities included, at two angles, and
        # the rotations; a matrix acts on its gate's support in order
        angles = (0.83, -2.4)
        gates = [Gate(kind, (0,), a) for kind in ("rx", "ry", "rz") for a in angles]
        for length in (1, 2, 3):
            for ops in itertools.product("IXYZ", repeat=length):
                if set(ops) != {"I"}:
                    gates += [Gate.pauli_exponential("".join(ops), a) for a in angles]
                    assert gates[-1].qubits == tuple(q for q, op in enumerate(ops) if op != "I")
        assert len(gates) == 2 * (3 + 3 + 15 + 63)
        for gate in gates:
            on_support = Gate(gate.kind, tuple(range(len(gate.qubits))), gate.angle, gate.pauli)
            expected = full_gate_unitary(on_support, len(gate.qubits))
            assert np.abs(gate.matrix() - expected).max() < 1e-14, gate

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
        original, stream = _Op.__init__, _noisy_maps

        def counting(op, *args):
            nonlocal created
            created += 1
            original(op, *args)

        def arriving(program):
            for item in stream(program):
                held.append(created - yielded)
                yield item

        monkeypatch.setattr(_Op, "__init__", counting)
        monkeypatch.setattr(simulator, "_noisy_maps", arriving)
        for _ in _fused_ops(program):
            yielded += 1
        assert created == yielded > program.n_qubits
        assert max(held) <= 2 * program.n_qubits, max(held)

    @pytest.mark.parametrize("name, per_gate_error", [("sel7", 1e-8), ("sparse4", 1e-7)])
    def test_state_stays_hermitian_without_symmetrising(self, name, per_gate_error):
        # why run_circuit never symmetrises: the state is real Pauli
        # coefficients, every map keeps c_I, and the conversion back to a
        # matrix rounds an entry and its mirror alike
        program = _long_program(name, per_gate_error)
        n = program.n_qubits
        x = _to_pauli(DensityMatrix.basis_state(n))
        for op in _fused_ops(program):
            x = op.apply(x)
        assert x.dtype == np.float64 and x.reshape(-1)[0] == 1.0
        m = _from_pauli(x, n)
        assert np.abs(m - m.conj().T).max() == 0.0
        assert abs(np.trace(m) - 1.0) <= 1e-15

    def test_sparse_program_has_no_more_ops_than_gates(self):
        # a 3-4 qubit Pauli exponential and its noise are one op
        program = _long_program("sparse4", 1e-7)
        assert len(list(_fused_ops(program))) <= program.gate_count == 7042


def _every_kind_program(rng, n_qubits, n_gates):
    """Random Rx, Ry, Rz, H, CNOTs both ways round and Pauli exponentials of
    weight 1 to 4, as far as the width allows."""
    kinds = ["rx", "ry", "rz", "h", "pauli_exp"] + (["cnot"] if n_qubits > 1 else [])
    gates = []
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "cnot":
            gates.append(Gate.cnot(*(int(q) for q in rng.choice(n_qubits, 2, replace=False))))
        elif kind == "h":
            gates.append(Gate.hadamard(int(rng.integers(n_qubits))))
        elif kind == "pauli_exp":
            weight = int(rng.integers(1, min(4, n_qubits) + 1))
            ops = ["I"] * n_qubits
            for q in rng.choice(n_qubits, weight, replace=False):
                ops[q] = str(rng.choice(list("XYZ")))
            gates.append(Gate.pauli_exponential("".join(ops), float(rng.uniform(-7, 7))))
        else:
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),), float(rng.uniform(-7, 7))))
    return CircuitProgram(n_qubits, tuple(gates))


class TestTableWalk:
    """run_ideal's register tables against the oracle's full-register unitaries."""

    @pytest.mark.parametrize("n_qubits", range(1, 8))
    def test_random_programs_match_matrix_walk(self, rng, n_qubits):
        from .conftest import random_statevector

        seen = set()
        for _ in range(4):
            program = _every_kind_program(rng, n_qubits, 60)
            psi = random_statevector(rng, 2**n_qubits)
            got = run_ideal(program, psi)
            assert np.abs(got - statevector_run(program, psi)).max() <= 1e-14
            seen.update((g.kind, len(g.qubits), list(g.qubits) == sorted(g.qubits)) for g in program.gates)
        expected = {(kind, 1, True) for kind in ("rx", "ry", "rz", "h")}
        expected |= {("pauli_exp", k, True) for k in range(1, min(4, n_qubits) + 1)}
        if n_qubits > 1:
            expected |= {("cnot", 2, True), ("cnot", 2, False)}
        assert seen == expected

    @pytest.mark.parametrize("n_qubits", range(1, 8))
    def test_diagonal_strings_match_matrix_walk(self, rng, n_qubits):
        # Z-only strings take the step with no gather, between Rx and Ry steps
        from .conftest import random_statevector

        gates = []
        for weight in [*range(1, min(4, n_qubits) + 1)] * 4:
            ops = ["I"] * n_qubits
            for q in rng.choice(n_qubits, weight, replace=False):
                ops[q] = "Z"
            gates.append(Gate.pauli_exponential("".join(ops), float(rng.uniform(-7, 7))))
            kind = str(rng.choice(["rx", "ry"]))
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),), float(rng.uniform(-7, 7))))
        program = CircuitProgram(n_qubits, tuple(gates))
        psi = random_statevector(rng, 2**n_qubits)
        got = run_ideal(program, psi)
        assert np.abs(got - statevector_run(program, psi)).max() <= 1e-14

    def test_batched_step_equals_vector_steps(self, rng):
        # every gate kind on five qubits, with gaps in the supports and CNOTs
        # both ways round: each row of a stack rounds as that vector alone
        n = 5
        gates = [
            *(
                Gate(kind, (q,), float(rng.uniform(-7, 7)))
                for kind in ("rx", "ry", "rz")
                for q in (0, 2, 4)
            ),
            Gate.hadamard(1),
            Gate.hadamard(4),
            Gate.cnot(0, 3),
            Gate.cnot(4, 1),
            Gate.cnot(2, 1),
            *(
                Gate.pauli_exponential(ops, float(rng.uniform(-7, 7)))
                for ops in ("IIYII", "XIIZI", "ZIIIZ", "YIXIZ", "ZZIIZ", "XYIZY", "ZIZZZ")
            ),
        ]
        assert {g.kind for g in gates} == {"rx", "ry", "rz", "h", "cnot", "pauli_exp"}
        assert {len(g.qubits) for g in gates if g.pauli} == {1, 2, 3, 4}
        stack = rng.normal(size=(6, 2**n)) + 1j * rng.normal(size=(6, 2**n))
        for gate in gates:
            got = _apply_gate(stack, gate, gate.qubits, n)
            assert got.shape == stack.shape
            for row, vector in zip(got, stack):
                expected = _apply_gate(vector, gate, gate.qubits, n)
                assert row.tobytes() == expected.tobytes(), gate


class TestGateMatrixCaches:
    """Gate.matrix and run_ideal build from cached, read-only tables."""

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
        source, sign, factor = _pauli_action("XZY", (0, 2, 3), 5)
        assert factor == -1j and sign.dtype == np.float64
        diagonal_source, diagonal_sign, diagonal_factor = _pauli_action("ZZ", (1, 4), 5)
        assert diagonal_source is None and diagonal_factor == 1
        rows = (*_rotation_rows("XY", 0.1), *_rotation_rows("XZY", 0.1))
        for table in (source, sign, diagonal_sign, *rows):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.reshape(-1)[0] = 1

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_rotation_rows_have_one_nonzero_part_per_entry(self, length):
        # so (1, cos, sin) @ rows rounds each entry as one product does
        for ops in itertools.product("IXYZ", repeat=length):
            for rate in (0.0, 1e-3, 0.5):
                rows, partner = _rotation_rows("".join(ops), rate)
                assert rows.shape == (3, 16**length if length <= 2 else 2 * 4**length)
                assert ((rows != 0).sum(axis=0) <= 1).all(), ops
                assert sorted(partner) == list(range(4**length))

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_every_pauli_string_matches_expm(self, length):
        # the oracle's closed forms against expm, the one place it is used,
        # then the state step on the identity of the whole register against them
        strings = ["".join(ops) for ops in itertools.product("IXYZ", repeat=length)]
        strings.remove("I" * length)
        assert len(strings) == 4**length - 1
        for angle in (0.83, -2.4):
            for ops in strings:
                gate = Gate.pauli_exponential(ops, angle)
                generator = embed({q: PAULI[c] for q, c in enumerate(ops) if c != "I"}, length)
                self._check_against_expm(gate, expm(-1j * angle * generator), length)
            for kind, q in itertools.product(("rx", "ry", "rz"), range(length)):
                generator = embed({q: PAULI[kind[1].upper()]}, length)
                by_expm = expm(-0.5j * angle * generator)
                self._check_against_expm(Gate(kind, (q,), angle), by_expm, length)

    @staticmethod
    def _check_against_expm(gate, by_expm, n):
        expected = full_gate_unitary(gate, n)
        assert np.abs(expected - by_expm).max() < 1e-14, gate
        got = _apply_gate(np.eye(2**n, dtype=complex), gate, gate.qubits, n).T
        assert np.abs(got - expected).max() < 1e-14, gate


def _noisy_map(gate, per_gate_error):
    """The gate's support and noisy map, from ``_noisy_maps`` of a one-gate program."""
    program = CircuitProgram(max(gate.qubits) + 1, (gate,), NoiseSpec(per_gate_error))
    [(qubits, ptm)] = _noisy_maps(program)
    return qubits, ptm


def _dense(ptm):
    """A transfer matrix from ``_noisy_maps``, expanded from tables on 3+ qubits."""
    if isinstance(ptm, np.ndarray):
        return ptm
    diagonal, off, partner = ptm
    out = np.diag(diagonal)
    out[np.arange(len(partner)), partner] += off
    return out


class TestPauliTransferMatrices:
    """The kernel's closed-form noisy maps against the oracle's T S T^-1, for
    the superoperator S of the oracle's unitary followed by a literal
    partial-replace map on each qubit."""

    @pytest.mark.parametrize("per_gate_error", [0.0, 1e-8, 0.1, 1.0])
    def test_closed_forms_match_superoperator_oracle(self, per_gate_error):
        gates = [Gate.hadamard(0), Gate.cnot(0, 1), Gate.cnot(1, 0)]
        for angle in (0.83, -2.4):
            for maker in (Gate.rotation_x, Gate.rotation_y, Gate.rotation_z):
                gates.append(maker(0, angle))
            for length in (1, 2, 3):
                for ops in itertools.product("IXYZ", repeat=length):
                    if set(ops) != {"I"}:
                        gates.append(Gate.pauli_exponential("".join(ops), angle))
        assert len(gates) == 3 + 2 * (3 + 3 + 15 + 63)
        for gate in gates:
            k = len(gate.qubits)
            qubits, ptm = _noisy_map(gate, per_gate_error)
            assert qubits == tuple(sorted(gate.qubits))
            # the unitary on the map's qubits, in their ascending order
            on_support = tuple(map(qubits.index, gate.qubits))
            on_support = Gate(gate.kind, on_support, gate.angle, gate.pauli)
            u = full_gate_unitary(on_support, k)
            expected = pauli_transfer_matrix(u, NoiseSpec(per_gate_error).per_qubit_replace_rate(k))
            ptm = _dense(ptm)
            assert np.abs(ptm - expected).max() < 1e-14, (gate.kind, gate.pauli)
            assert np.array_equal(ptm[0], np.eye(4**k)[0]), (gate.kind, gate.pauli)
