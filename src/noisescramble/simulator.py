"""Dense density-matrix simulation of noisy circuits.

The density matrix is held as a rank-2N tensor, N row axes then N column
axes, and gates are small-matrix contractions on it, which keeps a
10-qubit, multi-thousand-gate sweep in the seconds-to-minutes range without
any sparse machinery. Noise is a fixed policy: after each ideal gate, an
independent single-qubit depolarising channel acts on every support qubit
at a rate chosen so the probability that the whole gate is error-free is
exactly 1 - epsilon.

One walk over the program (``_evolve``) builds each gate's matrix once and
feeds it both to the ideal state vector and to the fused kernel for the
noisy state; ``run_circuit`` and ``run_ideal`` are wrappers over it. Pauli
strings' signed permutations and ``_apply_matrix``'s axis orders are
cached. The fused kernel turns each noisy gate on k <= 2 qubits into one
superoperator D(p)^(x k) o (U (x) U*) on the gate's (row, column) axis
pairs and fuses consecutive gates into one map while their joint support
has at most two qubits, moving a gate back past ops on other qubits. A gate
on three or more qubits applies U to the rows and U* to the columns; its
per-qubit noise maps start new fusable ops. Fusion only composes linear
maps and commutes maps on disjoint qubits, so it changes results by
rounding alone. Each fused op is applied as soon as no later gate can merge
into it, so the kernel holds O(N) small maps however long the circuit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGateError, InvalidRateError, InvalidStateError, ShapeError
from .hamiltonians import PauliString

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_IDENTITIES: dict[int, np.ndarray] = {}  # read-only, by dimension, for _pauli_tables

# Re-symmetrise the evolving matrix about this often, in program gates, to
# suppress float drift.
_RESYMMETRISE_EVERY = 100


@dataclass(frozen=True)
class Gate:
    """One circuit element: a rotation, Hadamard, CNOT or Pauli-string exponential.

    ``qubits`` lists the support in the order the gate matrix expects it;
    for a CNOT that is (control, target), for a Pauli exponential the
    non-identity positions of the generator in ascending order.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    pauli: str | None = None

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise InvalidGateError(f"repeated qubit in support {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError(f"negative qubit index in {self.qubits}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise InvalidGateError(f"non-finite angle {self.angle!r}")

    @classmethod
    def rotation_x(cls, qubit: int, angle: float) -> "Gate":
        return cls("rx", (int(qubit),), float(angle))

    @classmethod
    def rotation_y(cls, qubit: int, angle: float) -> "Gate":
        return cls("ry", (int(qubit),), float(angle))

    @classmethod
    def rotation_z(cls, qubit: int, angle: float) -> "Gate":
        return cls("rz", (int(qubit),), float(angle))

    @classmethod
    def hadamard(cls, qubit: int) -> "Gate":
        return cls("h", (int(qubit),))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        if control == target:
            raise InvalidGateError("CNOT control and target must differ")
        return cls("cnot", (int(control), int(target)))

    @classmethod
    def pauli_exponential(cls, pauli, angle: float) -> "Gate":
        """exp(-i * angle * P) for a Pauli string P (full angle, no half)."""
        ops = PauliString(str(pauli)).ops
        support = tuple(i for i, c in enumerate(ops) if c != "I")
        if not support:
            raise InvalidGateError("identity Pauli string generates only a global phase")
        return cls("pauli_exp", support, float(angle), "".join(ops[i] for i in support))

    def matrix(self) -> np.ndarray:
        """Unitary on the support qubits, dimension 2^len(qubits)."""
        if self.kind == "rx":
            c, s = np.cos(self.angle / 2), np.sin(self.angle / 2)
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if self.kind == "ry":
            c, s = np.cos(self.angle / 2), np.sin(self.angle / 2)
            return np.array([[c, -s], [s, c]], dtype=complex)
        if self.kind == "rz":
            phase = np.exp(-0.5j * self.angle)
            return np.array([[phase, 0], [0, np.conj(phase)]], dtype=complex)
        if self.kind == "h":
            return _HADAMARD.copy()
        if self.kind == "cnot":
            return _CNOT.copy()
        if self.kind == "pauli_exp":
            identity, flat, odd = _pauli_tables(self.pauli)
            coef = -1j * (1, 1j, -1, -1j)[self.pauli.count("Y") % 4] * math.sin(self.angle)
            u = math.cos(self.angle) * identity
            u.reshape(-1)[flat] += np.array([coef, -coef])[odd]
            return u
        raise InvalidGateError(f"unknown gate kind {self.kind!r}")


@functools.lru_cache(maxsize=None)
def _pauli_tables(pauli: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables for cos(t) Id - i sin(t) P: Id, and P as a signed permutation.

    P maps |j> to i^(#Y) (-1)^|j & zy| |j ^ xy>, where xy (zy) marks the
    qubits carrying X or Y (Z or Y), qubit 0 in the most significant bit.
    The tables are Id (shared by all strings of one weight), the flat
    positions (j ^ xy, j) of P's entries, and whether each is negated.
    """
    xy = int("".join("1" if c in "XY" else "0" for c in pauli), 2)
    zy = int("".join("1" if c in "YZ" else "0" for c in pauli), 2)
    dim = 2 ** len(pauli)
    j = np.arange(dim)
    odd = np.array([(i & zy).bit_count() % 2 for i in range(dim)])
    tables = (_IDENTITIES.setdefault(dim, np.eye(dim, dtype=complex)), (j ^ xy) * dim + j, odd)
    for table in tables:
        table.setflags(write=False)
    return tables


@dataclass(frozen=True)
class NoiseSpec:
    """Per-gate depolarising error budget.

    ``per_gate_error`` is the probability that a gate suffers any error.
    It is split across the q support qubits as independent single-qubit
    error events at rate eps_q = 1 - (1 - eps)^(1/q), which makes the
    per-gate no-error probability exactly 1 - eps. An error event applies
    one of X, Y, Z uniformly at random; as a channel that is the
    partial-replace map at rate 4 eps_q / 3 (full replacement by Id/2
    happens at eps_q = 3/4, beyond which the channel over-rotates towards
    the uniform Pauli mixture).
    """

    per_gate_error: float = 0.0

    def __post_init__(self):
        eps = self.per_gate_error
        if not (math.isfinite(eps) and 0.0 <= eps <= 1.0):
            raise InvalidRateError(f"per-gate error {eps!r} outside [0, 1]")

    def per_qubit_error_rate(self, n_support: int) -> float:
        """Probability that one support qubit suffers an X, Y or Z error."""
        eps = self.per_gate_error
        if eps == 0.0:
            return 0.0
        if eps == 1.0:
            return 1.0
        return -math.expm1(math.log1p(-eps) / n_support)

    def per_qubit_replace_rate(self, n_support: int) -> float:
        """The equivalent partial-replace rate, 4/3 of the error rate."""
        return 4.0 * self.per_qubit_error_rate(n_support) / 3.0


@dataclass(frozen=True)
class CircuitProgram:
    """An ordered gate list plus its noise annotation.

    Every gate counts once towards the gate count, including state
    preparation rotations emitted by the ansatz builders.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    noise: NoiseSpec = NoiseSpec(0.0)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise InvalidGateError(f"need at least 1 qubit, got {self.n_qubits}")
        for gate in self.gates:
            if max(gate.qubits) >= self.n_qubits:
                raise InvalidGateError(
                    f"gate {gate.kind} on {gate.qubits} exceeds {self.n_qubits} qubits"
                )

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def with_noise(self, per_gate_error: float) -> "CircuitProgram":
        return dataclasses.replace(self, noise=NoiseSpec(per_gate_error))


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian unit-trace matrix of a (possibly mixed) N-qubit state."""

    n_qubits: int
    data: np.ndarray

    def __post_init__(self):
        d = 2**self.n_qubits
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (d, d):
            raise ShapeError(f"expected shape {(d, d)}, got {data.shape}")
        object.__setattr__(self, "data", data)
        if np.abs(data - data.conj().T).max() > 1e-12:
            raise InvalidStateError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(data).real - 1.0) > 1e-10 or abs(np.trace(data).imag) > 1e-10:
            raise InvalidStateError(f"trace {np.trace(data)!r} differs from 1 beyond 1e-10")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @classmethod
    def basis_state(cls, n_qubits: int) -> "DensityMatrix":
        """The pure state |0...0><0...0|."""
        d = 2**n_qubits
        data = np.zeros((d, d), dtype=complex)
        data[0, 0] = 1.0
        return cls(n_qubits, data)


def _check_vector(psi: np.ndarray, dim: int | None = None) -> np.ndarray:
    """The state vector flattened, checked to be normalised and, given ``dim``, of that size."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if dim is not None and psi.size != dim:
        raise ShapeError(f"state vector has dimension {psi.size}, expected {dim}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise InvalidStateError("state vector is not normalised within 1e-10")
    return psi


@functools.lru_cache(maxsize=None)
def _axis_orders(axes: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose moving ``axes`` to the front, and its inverse."""
    order = (*axes, *[a for a in range(ndim) if a not in axes])
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract a 2^k x 2^k matrix into the given k axes of a qubit tensor."""
    order, inverse = _axis_orders(axes, tensor.ndim)
    moved = tensor.transpose(order)
    out = (mat @ moved.reshape(mat.shape[1], -1)).reshape(moved.shape)
    return out.transpose(inverse)


# Superoperators act on a qubit's (row, column) index pair, flattened as
# 2 * row + column; a map on two qubits uses the pair order r1 c1 r2 c2.
_ID_MAP = np.eye(4)


def _depolarising_map(rate: float) -> np.ndarray:
    """The partial-replace channel (1 - p) rho + p tr(rho) Id/2 as a 4x4 map.

    Valid (CPTP) for p in [0, 4/3]; p above 1 realises the uniform-Pauli
    error channel. The populations keep ``stay`` and swap ``1 - stay``,
    which sum to one exactly in floating point, so rounding does not bias
    the trace.
    """
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


def _pair_product(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """first (x) second for two single-qubit maps, in pair order."""
    return (first.reshape(4, 1, 4, 1) * second.reshape(1, 4, 1, 4)).reshape(16, 16)


def _unitary_map(mat: np.ndarray) -> np.ndarray:
    """rho -> U rho U^dagger as a 4^k x 4^k map, in pair order."""
    k = mat.shape[0].bit_length() - 1
    rows = mat.reshape((2, 1) * (2 * k))
    cols = mat.conj().reshape((1, 2) * (2 * k))
    return (rows * cols).reshape(4**k, 4**k)


def _noisy_gate_map(mat: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """D^(x k) o (U (x) U*) for a gate on k <= 2 qubits, in pair order.

    Each D is applied to its own qubit's rows rather than as one product
    D (x) D, whose rounded entries would bias the trace at every gate.
    """
    out = _unitary_map(mat)
    if len(out) == 4:
        return noise @ out
    out = (noise @ out.reshape(4, 64)).reshape(16, 16)
    return (noise @ out.reshape(4, 4, 16)).reshape(16, 16)


def _on_support(mat: np.ndarray, qubits, target) -> np.ndarray:
    """A map on ``qubits`` rewritten as a map on the qubit pair ``target``."""
    if qubits == target:
        return mat
    if len(qubits) == 2:  # the same pair, listed in the other order
        return mat.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
    if qubits[0] == target[0]:
        return _pair_product(mat, _ID_MAP)
    return _pair_product(_ID_MAP, mat)


class _Op:
    """One step of the fused kernel.

    On at most two qubits, ``matrix`` is a superoperator in pair order; on
    three or more it is a bare gate unitary. ``gates`` counts the program
    gates folded in.
    """

    __slots__ = ("qubits", "matrix", "gates", "order", "sealed")

    def __init__(self, qubits, matrix, gates, order):
        self.qubits = qubits
        self.matrix = matrix
        self.gates = gates
        self.order = order
        self.sealed = False

    def absorb(self, qubits, matrix, gates) -> None:
        """Compose a later map into this op; their joint support has <= 2 qubits."""
        target = self.qubits if len(self.qubits) >= len(qubits) else qubits
        self.matrix = _on_support(matrix, qubits, target) @ _on_support(
            self.matrix, self.qubits, target
        )
        self.qubits = target
        self.gates += gates

    def apply(self, tensor: np.ndarray, n: int) -> np.ndarray:
        if len(self.qubits) <= 2:  # on the (row, column) axis pairs, r1 c1 r2 c2
            axes = tuple([axis for q in self.qubits for axis in (q, n + q)])
            return _apply_matrix(tensor, self.matrix, axes)
        # U rho U^dagger: U on the row axes, then U* on the column axes
        tensor = _apply_matrix(tensor, self.matrix, self.qubits)
        return _apply_matrix(tensor, self.matrix.conj(), tuple([n + q for q in self.qubits]))


def _fused_ops(program: CircuitProgram, matrices):
    """Yield the program's noisy gates as fused ops, in an order that is exact.

    ``matrices`` yields the gates' unitaries in order. A gate on k <= 2
    qubits becomes the map D(p)^(x k) o (U (x) U*), where D is the per-qubit
    depolarising channel. It is composed into the latest op touching its
    support when their joint support has at most two qubits; the ops after
    that one act on other qubits, so the gate commutes past them. A wider
    gate becomes a bare unitary op followed by one D map per support qubit,
    and later gates fuse into those maps.

    Once every qubit of an op has a later op, no later gate can merge into
    it: it is yielded, after the earlier held ops it overlaps, which are
    sealed against later merges. Every op still held is then the latest on
    one of its qubits, so at most 2n ops are held at any time.
    """
    noise = program.noise
    noise_maps = {}
    pending: list[_Op] = []
    latest: list[_Op | None] = [None] * program.n_qubits
    order = 0
    for gate, mat in zip(program.gates, matrices):
        k = len(gate.qubits)
        if k not in noise_maps:
            noise_maps[k] = _depolarising_map(noise.per_qubit_replace_rate(k))
        if k <= 2:
            steps = [(gate.qubits, _noisy_gate_map(mat, noise_maps[k]), 1)]
        else:
            steps = [(gate.qubits, mat, 1)]
            if noise.per_gate_error > 0.0:
                steps += [((q,), noise_maps[k], 0) for q in gate.qubits]
        superseded = False
        for qubits, matrix, gates in steps:
            owners = [latest[q] for q in qubits if latest[q] is not None]
            owner = max(owners, key=lambda op: op.order, default=None)
            if (
                owner is not None
                and not owner.sealed
                and len(set(owner.qubits).union(qubits)) <= 2
            ):
                owner.absorb(qubits, matrix, gates)
            else:
                order += 1
                owner = _Op(qubits, matrix, gates, order)
                pending.append(owner)
            for q in qubits:
                superseded = superseded or latest[q] not in (None, owner)
                latest[q] = owner
        if superseded:
            kept, ready, needed = [], [], set()
            for op in reversed(pending):
                if needed.isdisjoint(op.qubits) and any(latest[q] is op for q in op.qubits):
                    kept.append(op)
                else:
                    op.sealed = True
                    ready.append(op)
                    needed.update(op.qubits)
            pending = kept[::-1]
            yield from reversed(ready)
    yield from pending


def _resymmetrise(tensor: np.ndarray, d: int, n: int) -> np.ndarray:
    m = np.ascontiguousarray(tensor).reshape(d, d)
    m = 0.5 * (m + m.conj().T)
    return m.reshape((2,) * (2 * n))


def _evolve(program: CircuitProgram, initial: DensityMatrix | None, psi: np.ndarray | None):
    """The noisy output state and the ideal output vector, from one walk over the gates.

    Each gate's matrix is built once, applied to ``psi`` and fed to the fused
    kernel that evolves ``initial``. A start state given as None stays None.
    """
    n = program.n_qubits
    if initial is not None and initial.n_qubits != n:
        raise ShapeError(f"program has {n} qubits, state has {initial.n_qubits}")
    if psi is not None:
        psi = _check_vector(psi, 2**n).reshape((2,) * n)

    def matrices():
        nonlocal psi
        for gate in program.gates:
            mat = gate.matrix()
            if psi is not None:
                psi = _apply_matrix(psi, mat, gate.qubits)
            yield mat

    rho = None
    if initial is None:
        for _ in matrices():
            pass
    else:
        d, t = initial.dim, initial.data.reshape((2,) * (2 * n))
        # Counted in program gates; an op is applied whole, so the state is
        # Hermitian whenever it is resymmetrised.
        unsymmetrised = 0
        for op in _fused_ops(program, matrices()):
            t = op.apply(t, n)
            unsymmetrised += op.gates
            if unsymmetrised >= _RESYMMETRISE_EVERY:
                t = _resymmetrise(t, d, n)
                unsymmetrised = 0
        rho = DensityMatrix(n, _resymmetrise(t, d, n).reshape(d, d))
    return rho, None if psi is None else psi.reshape(-1)


def run_circuit(program: CircuitProgram, initial: DensityMatrix) -> DensityMatrix:
    """Evolve a density matrix through the program's noisy gates in order.

    Each gate applies its ideal unitary; every support qubit then suffers
    an independent uniform X/Y/Z error with probability
    1 - (1 - eps)^(1/q), so the whole gate is error-free with probability
    exactly 1 - eps. With a zero error rate the output is the ideal
    (generally pure) state. The gates are applied as fused ops (see
    ``_fused_ops``), which changes the result only by rounding.
    """
    return _evolve(program, initial, None)[0]


def run_ideal(program: CircuitProgram, initial: np.ndarray) -> np.ndarray:
    """Noise-free state-vector simulation of the same gate sequence."""
    return _evolve(program, None, initial)[1]


def basis_statevector(n_qubits: int) -> np.ndarray:
    """The state vector |0...0>."""
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi
