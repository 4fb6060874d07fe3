"""Circuit builders: strongly entangling layers and Hamiltonian-variational
circuits, including the Rz-augmented and sparse-compiled variants.

Every builder is deterministic in its arguments (seed included) and reports
its gate count as the length of the emitted gate list, preparation gates
included. Which family uses which builder and Hamiltonians is decided in
``harness.build_program`` alone.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import AnsatzError, InvalidDistributionError, InvalidSizeError, ShapeError
from .hamiltonians import PauliTermHamiltonian
from .simulator import CircuitProgram, Gate, NoiseSpec

PARAMETER_MODES = ("random", "vqe")

_TWO_PI = 2.0 * np.pi


def build_sel_circuit(n: int, n_layers: int, seed: int = 0) -> CircuitProgram:
    """Strongly entangling layers: Rz-Ry-Rz on every qubit, then a CNOT ring.

    Rotation angles are drawn uniformly from [-2pi, 2pi]; the ring applies
    CNOT(i, i+1 mod N) for every i, so one layer contributes 4N gates.
    """
    if n < 2:
        raise InvalidSizeError(f"the CNOT ring needs at least 2 qubits, got {n}")
    if n_layers < 1:
        raise InvalidSizeError(f"need at least 1 layer, got {n_layers}")
    angles = np.random.default_rng(seed).uniform(-_TWO_PI, _TWO_PI, size=(n_layers, n, 3))
    rotations = [(Gate.rotation_z(q, 0.0), Gate.rotation_y(q, 0.0)) for q in range(n)]
    ring = [Gate.cnot(q, (q + 1) % n) for q in range(n)]
    gates = []
    for layer in angles.tolist():
        for (rz, ry), (first, middle, last) in zip(rotations, layer):
            gates += (rz.with_angle(first), ry.with_angle(middle), rz.with_angle(last))
        gates += ring
    return CircuitProgram(n_qubits=n, gates=tuple(gates), noise=NoiseSpec(0.0))


def _ground_state_prep(h0: PauliTermHamiltonian, n: int) -> list[Gate]:
    """Gates preparing the ground state of the trivial Hamiltonian from |0...0>.

    Supports the two shapes that occur in practice: a diagonal Hamiltonian
    (ground state is a computational basis state) and a pure single-qubit
    X field (product of |+> or |-> states).
    """
    if not h0.terms:
        return []
    if all(pauli.is_diagonal() for _, pauli in h0.terms):
        index = int(np.argmin(h0.diagonal_vector()))
        return [
            Gate.rotation_y(q, np.pi)
            for q in range(n)
            if (index >> (n - 1 - q)) & 1
        ]
    if all(set(p.ops) <= {"I", "X"} and p.weight == 1 for _, p in h0.terms):
        coeff_by_qubit = {p.support[0]: c for c, p in h0.terms}
        gates = []
        for q in range(n):
            if q not in coeff_by_qubit:
                continue
            if coeff_by_qubit[q] > 0:
                gates.append(Gate.rotation_y(q, np.pi))  # |0> -> |1>, then H|1> = |->
            gates.append(Gate.hadamard(q))
        return gates
    raise AnsatzError(
        "ground-state preparation supports only diagonal or single-qubit X-field Hamiltonians"
    )


@functools.lru_cache(maxsize=64)
def _term_gates(h: PauliTermHamiltonian) -> tuple[tuple[float, Gate], ...]:
    """Coefficient and angle-0 Gate template of each non-identity term of h (not a phase)."""
    return tuple((c, Gate.pauli_exponential(p, 0.0)) for c, p in h.terms if p.weight > 0)


@functools.lru_cache(maxsize=64)
def _sparse_terms(h1: PauliTermHamiltonian) -> tuple:
    """Read-only probabilities, total * sign and Gate template of each non-identity term of h1."""
    terms = _term_gates(h1)
    weights = np.array([abs(c) for c, _ in terms])
    total = float(weights.sum())
    if not terms or total <= 0.0:
        raise InvalidDistributionError("all sampling weights are zero")
    probabilities, signed_totals = weights / total, total * np.sign([c for c, _ in terms])
    probabilities.flags.writeable = signed_totals.flags.writeable = False
    return probabilities, signed_totals, tuple(gate for _, gate in terms)


def build_sparse_hva_layer(
    h1: PauliTermHamiltonian, k_terms: int, seed: int, angle: float | None = None
) -> list[Gate]:
    """One sparse-compiled layer: k_terms Pauli exponentials sampled from h1.

    Terms are drawn with replacement with probability proportional to
    |coefficient|. With ``angle`` given (the layer's evolution angle), each
    sampled term gets the sparse-compilation angle
    angle * sum_l |h_l| * sign(h) / k_terms, so the layer approaches
    exp(-i * angle * H1) as k_terms grows. With ``angle=None`` every
    sampled exponential gets an independent angle uniform in [-2pi, 2pi].
    """
    if k_terms < 1:
        raise InvalidSizeError(f"need at least 1 sampled term, got {k_terms}")
    probabilities, signed_totals, templates = _sparse_terms(h1)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(templates), size=k_terms, p=probabilities)
    if angle is None:
        thetas = rng.uniform(-_TWO_PI, _TWO_PI, size=k_terms)
    else:
        thetas = angle * signed_totals[chosen] / k_terms
    return [templates[i].with_angle(theta) for i, theta in zip(chosen.tolist(), thetas.tolist())]


def build_hva_circuit(
    h0: PauliTermHamiltonian,
    h1: PauliTermHamiltonian,
    n_layers: int,
    parameter_mode: str = "random",
    seed: int = 0,
    sparse_terms: int | None = None,
    rz_layer: bool = False,
) -> CircuitProgram:
    """Hamiltonian-variational circuit alternating trotterised H0 and H1 steps.

    The width is ``h0.n_qubits``. Layer k of L applies exp(-i beta_k H0)
    then exp(-i gamma_k H1), each split into one exponential per Pauli term
    in canonical term order. In vqe mode the schedule is gamma_k = k/L,
    beta_k = 1 - k/L (a discretised adiabatic sweep); in random mode every
    exponential gets an independent angle uniform in [-2pi, 2pi]. The
    initial state is the ground state of h0, prepared by explicit (noisy,
    counted) basis rotations. With ``sparse_terms`` given, each H1 step is
    replaced by that many terms sampled by ``build_sparse_hva_layer``; with
    ``rz_layer`` each layer ends with one Rz per qubit (angle 0 in vqe
    mode).
    """
    if parameter_mode not in PARAMETER_MODES:
        raise AnsatzError(
            f"unknown parameter mode {parameter_mode!r}, expected one of {PARAMETER_MODES}"
        )
    if n_layers < 1:
        raise InvalidSizeError(f"need at least 1 layer, got {n_layers}")
    n = h0.n_qubits
    if h1.n_qubits != n:
        raise ShapeError(f"h0 is on {n} qubits but h1 on {h1.n_qubits}")
    if not h1.terms:
        raise AnsatzError("the non-trivial Hamiltonian part has no terms")
    random_mode = parameter_mode == "random"
    rng = np.random.default_rng(seed)
    layer_seeds = rng.integers(0, 2**63, size=n_layers)
    gates = _ground_state_prep(h0, n)

    def angles(scheduled: list[float]) -> list[float]:
        return rng.uniform(-_TWO_PI, _TWO_PI, len(scheduled)).tolist() if random_mode else scheduled

    def trotter_step(h: PauliTermHamiltonian, weight: float) -> None:
        terms = _term_gates(h)
        thetas = angles([weight * c for c, _ in terms])
        gates.extend(gate.with_angle(theta) for (_, gate), theta in zip(terms, thetas))

    for k in range(1, n_layers + 1):
        gamma = k / n_layers
        trotter_step(h0, 1.0 - gamma)
        if sparse_terms is None:
            trotter_step(h1, gamma)
        else:
            gates.extend(
                build_sparse_hva_layer(
                    h1, sparse_terms, int(layer_seeds[k - 1]), None if random_mode else gamma
                )
            )
        if rz_layer:
            gates.extend(Gate.rotation_z(q, theta) for q, theta in enumerate(angles([0.0] * n)))
    return CircuitProgram(n_qubits=n, gates=tuple(gates), noise=NoiseSpec(0.0))
