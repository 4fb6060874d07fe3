"""Brute-force reference implementations, deliberately independent of the
package internals: gates are built as full 2^N x 2^N matrices, each angled
gate in the closed form cos(t) I - i sin(t) P with P a Kronecker product of
2 x 2 Paulis, and the noise is applied as a literal Kraus sum.
"""

import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
PAULI = {"X": X, "Y": Y, "Z": Z}


def embed(ops_by_qubit, n):
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, ops_by_qubit.get(q, I2))
    return out


def full_gate_unitary(gate, n):
    """The gate's unitary on n qubits. A rotation is exp(-i angle P / 2) and a
    Pauli exponential exp(-i angle P), each as cos(t) I - i sin(t) P."""
    if gate.kind == "h":
        return embed({gate.qubits[0]: H}, n)
    if gate.kind == "cnot":
        control, target = gate.qubits
        return embed({control: P0}, n) + embed({control: P1, target: X}, n)
    if gate.kind in ("rx", "ry", "rz"):
        letters, t = gate.kind[1].upper(), 0.5 * gate.angle
    elif gate.kind == "pauli_exp":
        letters, t = gate.pauli, gate.angle
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    generator = embed({q: PAULI[c] for q, c in zip(gate.qubits, letters)}, n)
    return math.cos(t) * embed({}, n) - 1j * math.sin(t) * generator


def depolarising_kraus(qubit, rate, n):
    """Kraus operators of a uniform X/Y/Z error at the given probability."""
    ops = [np.sqrt(1.0 - rate) * embed({}, n)]
    for pauli in (X, Y, Z):
        ops.append(np.sqrt(rate / 3.0) * embed({qubit: pauli}, n))
    return ops


def depolarising_pair_map(rate):
    """The partial-replace channel at ``rate`` on a qubit's (row, column) index
    pair, flattened as 2 * row + column: rho's diagonal moves towards its mean
    and the coherences shrink by 1 - rate."""
    stay = 1.0 - 0.5 * rate
    swap = 1.0 - stay
    coherence = 1.0 - rate
    return np.array(
        [
            [stay, 0.0, 0.0, swap],
            [0.0, coherence, 0.0, 0.0],
            [0.0, 0.0, coherence, 0.0],
            [swap, 0.0, 0.0, stay],
        ]
    )


def pauli_transfer_matrix(u, rate=0.0):
    """T S T^-1 for the superoperator S = D^(x k) (U (x) U*) of a k-qubit gate
    U followed by ``depolarising_pair_map(rate)`` on each qubit; row P of T
    takes a row-major vec(rho) to tr(P rho), Paulis in the order I, X, Y, Z
    per qubit, qubit 0 most significant."""
    k = len(u).bit_length() - 1
    sup = np.kron(u, u.conj()).reshape((2,) * (2 * k) + (-1,))
    noise = depolarising_pair_map(rate).reshape(2, 2, 2, 2)
    for q in range(k):
        sup = np.tensordot(noise, sup, axes=([2, 3], [q, k + q]))
        sup = np.moveaxis(sup, (0, 1), (q, k + q))
    sup = sup.reshape(4**k, 4**k)
    paulis = [
        embed({q: PAULI[c] for q, c in enumerate(ops) if c != "I"}, k)
        for ops in itertools.product("IXYZ", repeat=k)
    ]
    t = np.array([p.T.reshape(-1) for p in paulis])
    return t @ sup @ t.conj().T / 2**k


def kraus_run(program, rho):
    """Literal Kraus-sum evolution of a density matrix through the program."""
    n = program.n_qubits
    rho = np.array(rho, dtype=complex)
    eps = program.noise.per_gate_error
    for gate in program.gates:
        u = full_gate_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        if eps > 0.0:
            rate = 1.0 - (1.0 - eps) ** (1.0 / len(gate.qubits))
            for q in gate.qubits:
                kraus = depolarising_kraus(q, rate, n)
                rho = sum(k @ rho @ k.conj().T for k in kraus)
    return rho


def statevector_run(program, psi):
    psi = np.array(psi, dtype=complex)
    for gate in program.gates:
        psi = full_gate_unitary(gate, program.n_qubits) @ psi
    return psi


def hamiltonian_matrix(hamiltonian):
    """Dense matrix of a Pauli-term Hamiltonian, one Kronecker product per term."""
    n = hamiltonian.n_qubits
    out = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, pauli in hamiltonian.terms:
        out += coeff * embed({q: PAULI[pauli.ops[q]] for q in pauli.support}, n)
    return out


def commutator_trace_norm(rho, psi):
    """Trace norm of [|psi><psi|, rho], the eigenvalue sum of i[|psi><psi|, rho]."""
    rho = np.asarray(getattr(rho, "data", rho), dtype=complex)
    half = np.outer(psi, np.conj(psi)) @ rho
    return float(np.abs(np.linalg.eigvalsh(1j * (half - half.conj().T))).sum())


def exact_eigenvalues(matrix, digits=20):
    """The eigenvalues of a Hermitian matrix of doubles in descending order,
    computed in extended precision and then rounded: a double-precision
    eigensolver is off by about eps_mach * ||matrix|| in each of them. Where
    numpy's longdouble is the x87 80-bit format (eps 1.1e-19) that is
    ``extended_eigenvalues``, elsewhere mpmath at ``digits`` digits."""
    if np.finfo(np.longdouble).eps > 1e-18:  # longdouble is double here
        return np.sort([float(v) for v in mpmath_eigenvalues(matrix, digits)])[::-1]
    return extended_eigenvalues(matrix).astype(float)


def mpmath_eigenvalues(matrix, digits=20):
    """The eigenvalues of a Hermitian matrix as mpmath numbers, from ``eighe``
    at ``digits`` digits."""
    import mpmath

    with mpmath.workdps(digits):
        return mpmath.eighe(mpmath.matrix(np.asarray(matrix).tolist()), eigvals_only=True)


def extended_eigenvalues(matrix):
    """The eigenvalues of a Hermitian matrix in descending order, as longdoubles:
    Householder reflections take it to tridiagonal form in np.clongdouble,
    then bisection on Sturm counts finds all eigenvalues at once."""
    a = np.array(matrix, dtype=np.clongdouble)
    n = len(a)
    off = np.zeros(n - 1, dtype=np.longdouble)  # |T[k + 1, k]|
    for k in range(n - 1):
        x = a[k + 1 :, k]
        norm = np.sqrt((x.real**2 + x.imag**2).sum())
        off[k] = norm
        if k == n - 2 or norm == 0:
            continue
        # H = I - 2 v v^H maps x to -phase norm e_1, and H A H = A - 2 v w^H - 2 w v^H
        v = x.copy()
        v[0] += (x[0] / abs(x[0]) if x[0] != 0 else 1) * norm
        v /= np.sqrt((v.real**2 + v.imag**2).sum())
        rest = a[k + 1 :, k + 1 :]
        p = rest @ v
        w = p - (v.conj() @ p) * v
        rest -= 2 * (np.outer(v, w.conj()) + np.outer(w, v.conj()))
    return _sturm_bisection(a.diagonal().real.copy(), off)[::-1]


def _sturm_bisection(diagonal, off):
    """The eigenvalues, ascending, of the symmetric tridiagonal matrix with this
    diagonal and off-diagonal, each bisected until its interval is 1e-22 of the
    Gershgorin bound or has no longdouble inside. The k-th lies below x where
    more than k pivots of T - x I = L D L^T are negative (Sylvester's law of
    inertia)."""
    n, squares = len(diagonal), off**2
    radius = np.r_[off, 0] + np.r_[0, off]
    lo, hi = np.full(n, (diagonal - radius).min()), np.full(n, (diagonal + radius).max())
    tol = 1e-22 * max(abs(lo[0]), abs(hi[0]))
    pivmin = np.finfo(np.longdouble).tiny * max(1, squares.max(initial=0))
    index = np.arange(n)
    while True:
        mid = (lo + hi) / 2
        if not ((hi - lo > tol) & (lo < mid) & (mid < hi)).any():
            return mid
        count, pivot = np.zeros(n, dtype=int), 0
        for i in range(n):
            pivot = diagonal[i] - mid - (squares[i - 1] / pivot if i else 0)
            pivot[np.abs(pivot) < pivmin] = -pivmin
            count += pivot < 0
        below = count > index
        hi, lo = np.where(below, mid, hi), np.where(below, lo, mid)
