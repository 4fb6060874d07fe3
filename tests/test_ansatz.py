import numpy as np
import pytest

from noisescramble import (
    AnsatzError,
    CircuitProgram,
    DensityMatrix,
    Gate,
    InvalidDistributionError,
    InvalidSizeError,
    PauliTermHamiltonian,
    ShapeError,
    basis_statevector,
    build_hva_circuit,
    build_sel_circuit,
    build_sparse_hva_layer,
    build_tfi_hamiltonian,
    build_xxx_hamiltonian,
    run_ideal,
)
from noisescramble.ansatz import _ground_state_prep

from .oracles import hamiltonian_matrix


class TestSelCircuit:
    def test_single_layer_structure(self):
        prog = build_sel_circuit(3, 1, seed=0)
        assert prog.gate_count == 12  # 9 rotations + 3 CNOTs
        kinds = [g.kind for g in prog.gates]
        assert kinds[:9] == ["rz", "ry", "rz"] * 3
        assert kinds[9:] == ["cnot"] * 3
        # ring topology including the wrap-around gate
        assert [g.qubits for g in prog.gates[9:]] == [(0, 1), (1, 2), (2, 0)]

    def test_gate_count_formula(self):
        prog = build_sel_circuit(10, 5, seed=0)
        assert prog.gate_count == 200

    def test_angles_bounded(self):
        prog = build_sel_circuit(4, 3, seed=8)
        angles = [g.angle for g in prog.gates if g.angle is not None]
        assert all(abs(a) <= 2 * np.pi for a in angles)

    def test_deterministic(self):
        a = build_sel_circuit(4, 2, seed=5)
        b = build_sel_circuit(4, 2, seed=5)
        assert a == b

    def test_zero_layers_rejected(self):
        with pytest.raises(InvalidSizeError):
            build_sel_circuit(3, 0)

    def test_seed_changes_parameters(self):
        a = build_sel_circuit(4, 2, seed=5)
        b = build_sel_circuit(4, 2, seed=6)
        assert a != b


class TestHvaCircuit:
    def test_vqe_schedule(self):
        h0, h1 = build_xxx_hamiltonian(2, seed=3)
        prog = build_hva_circuit(h0, h1, 4, parameter_mode="vqe", seed=0)
        # per layer: the field terms carry beta_k * coeff, couplings gamma_k * 1
        coupling_angles = [
            g.angle for g in prog.gates if g.pauli in ("XX", "YY", "ZZ")
        ]
        assert np.allclose(coupling_angles, np.repeat([0.25, 0.5, 0.75, 1.0], 3))
        field = {q: c for c, p in h0.terms for q in [p.support[0]] for c in [c]}
        z_angles = [g.angle for g in prog.gates if g.pauli == "Z"]
        betas = np.repeat([0.75, 0.5, 0.25, 0.0], 2)
        coeffs = np.array([field[g.qubits[0]] for g in prog.gates if g.pauli == "Z"])
        assert np.allclose(z_angles, betas * coeffs)

    def test_layer_term_counts(self):
        h0, h1 = build_xxx_hamiltonian(2, seed=3)
        prog = build_hva_circuit(h0, h1, 1, parameter_mode="vqe", seed=0)
        exps = [g for g in prog.gates if g.kind == "pauli_exp"]
        assert len([g for g in exps if len(g.qubits) == 1]) == 2
        assert len([g for g in exps if len(g.qubits) == 2]) == 3

    def test_xxx_initial_state_is_field_ground_state(self):
        h0, h1 = build_xxx_hamiltonian(5, seed=12)
        prog = build_hva_circuit(h0, h1, 1, parameter_mode="vqe", seed=0)
        n_prep = sum(1 for g in prog.gates if g.kind == "ry")
        assert n_prep == sum(1 for c, _ in h0.terms if c > 0)
        prep_only = prog.gates[:n_prep]
        psi = run_ideal(
            type(prog)(n_qubits=5, gates=prep_only), basis_statevector(5)
        )
        energy = np.vdot(psi, hamiltonian_matrix(h0) @ psi).real
        assert abs(energy - h0.diagonal_vector().min()) < 1e-12

    def test_tfi_initial_state_is_plus_product(self):
        h0, h1 = build_tfi_hamiltonian(3, seed=2)
        prog = build_hva_circuit(h0, h1, 1, parameter_mode="vqe", seed=0)
        hadamards = [g for g in prog.gates if g.kind == "h"]
        assert len(hadamards) == 3
        psi = run_ideal(type(prog)(n_qubits=3, gates=tuple(hadamards)), basis_statevector(3))
        assert np.abs(psi - np.full(8, 1 / np.sqrt(8))).max() < 1e-12

    def test_tfi_rz_appends_one_rz_per_qubit_per_layer(self):
        h0, h1 = build_tfi_hamiltonian(4, seed=2)
        plain = build_hva_circuit(h0, h1, 3, seed=1)
        extended = build_hva_circuit(h0, h1, 3, seed=1, rz_layer=True)
        assert extended.gate_count == plain.gate_count + 3 * 4
        assert sum(1 for g in extended.gates if g.kind == "rz") == 12

    def test_random_mode_deterministic(self):
        h0, h1 = build_xxx_hamiltonian(3, seed=1)
        args = (h0, h1, 2, "random", 44)
        assert build_hva_circuit(*args) == build_hva_circuit(*args)

    def test_qubit_mismatch(self):
        h0, _ = build_xxx_hamiltonian(3, seed=1)
        _, h1 = build_xxx_hamiltonian(4, seed=1)
        with pytest.raises(ShapeError):
            build_hva_circuit(h0, h1, 2)

    def test_unknown_mode_rejected(self):
        h0, h1 = build_xxx_hamiltonian(3, seed=1)
        with pytest.raises(AnsatzError):
            build_hva_circuit(h0, h1, 1, parameter_mode="warm")

    def test_empty_coupling_hamiltonian_rejected(self):
        h0, _ = build_xxx_hamiltonian(3, seed=1)
        empty = PauliTermHamiltonian.from_terms(3, [])
        with pytest.raises(AnsatzError):
            build_hva_circuit(h0, empty, 2)

    def test_gate_count_bookkeeping(self):
        h0, h1 = build_xxx_hamiltonian(4, seed=6)
        for mode in ("random", "vqe"):
            prog = build_hva_circuit(h0, h1, 3, parameter_mode=mode, seed=9)
            assert prog.gate_count == len(prog.gates)
            n_prep = sum(1 for c, _ in h0.terms if c > 0)
            assert prog.gate_count == n_prep + 3 * (len(h0) + len(h1))

    def test_emitted_exponentials_are_unitary(self):
        h0, h1 = build_xxx_hamiltonian(3, seed=8)
        prog = build_hva_circuit(h0, h1, 2, parameter_mode="random", seed=13)
        for gate in prog.gates:
            u = gate.matrix()
            assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-12

    def test_vqe_energy_non_increasing_with_depth(self):
        # adiabatic schedule: deeper circuits approach the ground state
        shallow, deep = [], []
        for seed in range(5):
            h0, h1 = build_xxx_hamiltonian(4, seed=500 + seed)
            for layers, sink in ((2, shallow), (12, deep)):
                prog = build_hva_circuit(h0, h1, layers, parameter_mode="vqe", seed=seed)
                psi = run_ideal(prog, basis_statevector(4))
                h = hamiltonian_matrix(h0) + hamiltonian_matrix(h1)
                sink.append(np.vdot(psi, h @ psi).real)
        assert np.mean(deep) < np.mean(shallow) + 1e-9


class TestSparseLayer:
    def test_single_term_repeats(self):
        h1 = PauliTermHamiltonian.from_terms(2, [(0.3, "XY")])
        gates = build_sparse_hva_layer(h1, 7, seed=0, angle=1.0)
        assert len(gates) == 7
        assert all(g.pauli == "XY" for g in gates)
        # the sampled product reproduces exp(-i * angle * H1) for one term
        assert np.allclose(sum(g.angle for g in gates), 0.3)

    def test_sampling_frequency_tracks_weights(self):
        h1 = PauliTermHamiltonian.from_terms(2, [(0.9, "XX"), (0.1, "ZZ")])
        gates = build_sparse_hva_layer(h1, 10_000, seed=5)
        freq = sum(1 for g in gates if g.pauli == "XX") / 10_000
        assert abs(freq - 0.9) <= 0.02

    def test_contributes_exactly_k_gates(self):
        h1 = PauliTermHamiltonian.from_terms(2, [(0.9, "XX"), (-0.4, "YY")])
        assert len(build_sparse_hva_layer(h1, 100, seed=1)) == 100

    def test_zero_weights_rejected(self):
        empty = PauliTermHamiltonian.from_terms(2, [])
        with pytest.raises(InvalidDistributionError):
            build_sparse_hva_layer(empty, 10, seed=0)

    def test_structure_varies_with_seed(self):
        h1 = PauliTermHamiltonian.from_terms(2, [(0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")])
        a = [g.pauli for g in build_sparse_hva_layer(h1, 20, seed=1)]
        b = [g.pauli for g in build_sparse_hva_layer(h1, 20, seed=2)]
        assert a != b

    def test_vqe_angles_use_sparse_normalisation(self):
        h1 = PauliTermHamiltonian.from_terms(2, [(0.6, "XX"), (-0.2, "ZZ")])
        gates = build_sparse_hva_layer(h1, 50, seed=3, angle=0.5)
        total = 0.8
        expected = {0.5 * total / 50, -0.5 * total / 50}
        assert {round(g.angle, 15) for g in gates} <= {round(e, 15) for e in expected}

    def test_sparse_family_end_to_end(self):
        from .conftest import REPO_ROOT
        from noisescramble import load_hamiltonian_file

        h = load_hamiltonian_file(REPO_ROOT / "demos" / "data" / "toy_molecule_4q.txt")
        prog = build_hva_circuit(
            h.diagonal_part(), h.offdiagonal_part(), 2, seed=5, sparse_terms=30
        )
        per_layer_diag = sum(1 for _, p in h.diagonal_part().terms if p.weight > 0)
        n_prep = sum(1 for g in prog.gates if g.kind == "ry")
        assert prog.gate_count == n_prep + 2 * (per_layer_diag + 30)



def _scalar_draws(rng, count):
    return [rng.uniform(-2 * np.pi, 2 * np.pi) for _ in range(count)]


def _non_identity(h):
    return [(c, p) for c, p in h.terms if p.weight > 0]


class TestRandomStreams:
    """The builders draw their angles in one call per layer or Hamiltonian;
    the angles must be the scalar draws, in the order they used to be made,
    so that no row changes unseen."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sel_angles_are_scalar_draws(self, seed):
        program = build_sel_circuit(4, 3, seed)
        expected = _scalar_draws(np.random.default_rng(seed), 3 * 4 * 3)
        assert [g.angle for g in program.gates if g.kind != "cnot"] == expected

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("family", ["HVA-XXX", "HVA-TFI-RZ"])
    def test_hva_angles_are_scalar_draws(self, seed, family):
        n, n_layers = 4, 3
        rz_layer = family == "HVA-TFI-RZ"
        build = build_tfi_hamiltonian if rz_layer else build_xxx_hamiltonian
        h0, h1 = build(n, seed)
        program = build_hva_circuit(h0, h1, n_layers, "random", seed, rz_layer=rz_layer)
        rng = np.random.default_rng(seed)
        rng.integers(0, 2**63, size=n_layers)
        per_layer = len(_non_identity(h0)) + len(_non_identity(h1)) + (n if rz_layer else 0)
        expected = _scalar_draws(rng, n_layers * per_layer)
        assert [g.angle for g in program.gates[-len(expected) :]] == expected

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sparse_angles_are_scalar_draws(self, seed):
        from .conftest import REPO_ROOT
        from noisescramble import load_hamiltonian_file

        h = load_hamiltonian_file(REPO_ROOT / "perfbench" / "data" / "toy_molecule_4q.txt")
        h0, h1 = h.diagonal_part(), h.offdiagonal_part()
        n_layers, k = 3, 30
        program = build_hva_circuit(h0, h1, n_layers, "random", seed, sparse_terms=k)
        rng = np.random.default_rng(seed)
        layer_seeds = rng.integers(0, 2**63, size=n_layers)
        terms = _non_identity(h1)
        weights = np.array([abs(c) for c, _ in terms])
        expected = []
        for layer_seed in layer_seeds:
            expected += _scalar_draws(rng, len(_non_identity(h0)))
            layer_rng = np.random.default_rng(int(layer_seed))
            layer_rng.choice(len(terms), size=k, p=weights / weights.sum())
            expected += _scalar_draws(layer_rng, k)
        assert [g.angle for g in program.gates[-len(expected) :]] == expected


class TestInputChecks:
    def test_sel_needs_two_qubits(self):
        with pytest.raises(InvalidSizeError, match="at least 2 qubits"):
            build_sel_circuit(1, 1)

    def test_sparse_layer_needs_a_term(self):
        h1 = PauliTermHamiltonian.from_terms(2, [(0.5, "XX")])
        with pytest.raises(InvalidSizeError, match="at least 1 sampled term"):
            build_sparse_hva_layer(h1, 0, seed=0)

    def test_hva_needs_a_layer(self):
        h0, h1 = build_xxx_hamiltonian(3, seed=1)
        with pytest.raises(InvalidSizeError, match="at least 1 layer"):
            build_hva_circuit(h0, h1, 0)

    def test_hva_h0_neither_diagonal_nor_x_field(self):
        _, h1 = build_xxx_hamiltonian(2, seed=1)
        h0 = PauliTermHamiltonian.from_terms(2, [(0.5, "YI")])
        with pytest.raises(AnsatzError, match="ground-state preparation"):
            build_hva_circuit(h0, h1, 1)


class TestGroundStatePrep:
    """Energies, not vectors: a qubit with no field leaves h0's lowest eigenvalue degenerate."""

    @staticmethod
    def assert_ground_energy(h0, gates):
        n = h0.n_qubits
        psi = run_ideal(CircuitProgram(n, tuple(gates)), basis_statevector(n))
        h = hamiltonian_matrix(h0)
        assert abs(np.vdot(psi, h @ psi).real - np.linalg.eigvalsh(h)[0]) < 1e-12

    def test_empty_h0_adds_no_gate(self):
        h0 = PauliTermHamiltonian.from_terms(2, [])
        gates = _ground_state_prep(h0, 2)
        assert gates == []
        self.assert_ground_energy(h0, gates)

    def test_positive_x_field_prepares_minus(self):
        h0 = PauliTermHamiltonian.from_terms(1, [(0.7, "X")])
        gates = _ground_state_prep(h0, 1)
        assert gates == [Gate.rotation_y(0, np.pi), Gate.hadamard(0)]
        psi = run_ideal(CircuitProgram(1, tuple(gates)), basis_statevector(1))
        assert abs(abs(np.vdot(np.array([1, -1]) / np.sqrt(2), psi)) - 1.0) < 1e-12
        self.assert_ground_energy(h0, gates)

    def test_qubit_with_no_field_gets_no_gate(self):
        h0 = PauliTermHamiltonian.from_terms(3, [(0.4, "XII"), (-0.9, "IIX")])
        gates = _ground_state_prep(h0, 3)
        assert [(g.kind, g.qubits) for g in gates] == [("ry", (0,)), ("h", (0,)), ("h", (2,))]
        self.assert_ground_energy(h0, gates)
