"""Alternative routes to a row, used to show the gate is neither vacuous
nor stricter than the float floor.

``reordered_run_circuit`` is an exact noisy kernel that differs from the
package's only in arithmetic order: each gate contracts the column axes
before the row axes, and the depolarising channel is applied as the Pauli
sum (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z) rather than as a
mix with the partial trace. ``residual_commutator_abs`` is the
residual-variance route 2 sqrt(||rho psi - F psi||^2) to C_abs.
"""

from __future__ import annotations

import math

import numpy as np

# Z rho Z flips the sign of the (0, 1) and (1, 0) entries of a qubit block.
_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _contract(tensor: np.ndarray, mat: np.ndarray, axes: list[int]) -> np.ndarray:
    k = len(axes)
    mat_t = mat.reshape((2,) * (2 * k))
    out = np.tensordot(tensor, mat_t, axes=(axes, list(range(k, 2 * k))))
    return np.moveaxis(out, list(range(tensor.ndim - k, tensor.ndim)), axes)


def _pauli_twirl(tensor: np.ndarray, qubit: int, n: int, p: float) -> np.ndarray:
    block = np.moveaxis(tensor, (qubit, n + qubit), (0, 1))
    sign = _SIGN.reshape((2, 2) + (1,) * (2 * n - 2))
    flipped = block[::-1, ::-1]  # X rho X; Y rho Y is the same with signs
    out = (1.0 - 0.75 * p) * block + 0.25 * p * (flipped + sign * flipped + sign * block)
    return np.moveaxis(out, (0, 1), (qubit, n + qubit))


def reordered_run_circuit(program, density_matrix_type):
    """The program's noisy output state, by a reordered exact kernel."""
    n = program.n_qubits
    d = 2**n
    state = np.zeros((d, d), dtype=complex)
    state[0, 0] = 1.0
    t = state.reshape((2,) * (2 * n))
    for gate in program.gates:
        mat = gate.matrix()
        t = _contract(t, mat.conj(), [n + q for q in gate.qubits])
        t = _contract(t, mat, list(gate.qubits))
        p = program.noise.per_qubit_replace_rate(len(gate.qubits))
        for q in gate.qubits:
            t = _pauli_twirl(t, q, n, p)
    m = np.ascontiguousarray(t).reshape(d, d)
    return density_matrix_type(n, 0.5 * (m + m.conj().T))


def residual_commutator_abs(rho: np.ndarray, psi: np.ndarray) -> float:
    w = rho @ psi
    residual = w - np.vdot(psi, w).real * psi
    return 2.0 * math.sqrt(np.vdot(residual, residual).real)
