"""Dense density-matrix simulation of noisy circuits.

Noise is a fixed policy: after each ideal gate, an independent
single-qubit depolarising channel acts on every support qubit at a rate
chosen so the probability that the whole gate is error-free is exactly
1 - epsilon.

``run_circuit`` evolves the noisy state as its real Pauli coefficients
c_P = tr(P rho), one axis of 4 per qubit in the order I, X, Y, Z. Every
noisy gate is a real Pauli transfer map in closed form: rotations and
Pauli exponentials turn each anticommuting Pauli towards -i P Q by cos and
sin of the angle, one matmul of (1, cos, sin) with three cached rows, H
and CNOT are cached signed permutations, and the noise scales each
non-identity factor by 1 - p. Row 0 of every map is exactly e_0, so the
trace is kept by construction. A single-qubit map waits on its qubit and
is folded into the next map there; a pair map takes in the maps waiting
on its qubits and joins the one open op if that op is on the same pair,
else it replaces it. Fusion only composes linear maps and commutes maps on
disjoint qubits, so it changes results by rounding alone. A Pauli
exponential on more qubits and its noise are one op that pairs
coefficients, never a dense 4^k map. The state enters the Pauli basis
once, directly as |0...0><0...0| by default, and leaves it once, as an
exactly Hermitian d x d matrix; memory peaks at two complex d x d
buffers, in that last conversion.
``run_ideal`` walks a state vector by cached register tables, with no gate
matrix: exp(-i t P) is cos(t) psi - i sin(t) P psi for P psi =
factor * sign * psi[source], or one coefficient per entry times psi for a
diagonal P; H is (X psi + Z psi) / sqrt(2), and a CNOT permutes entries.
A step acts on the last axis, so ``Gate.matrix`` is one step on the identity.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGateError, InvalidRateError, InvalidStateError, ShapeError
from .hamiltonians import PauliString

_SQRT_HALF = 1 / math.sqrt(2.0)
# Support size and whether an angle is needed, by gate kind; a Pauli
# exponential acts on as many qubits as its string has letters.
_KINDS = {
    "rx": (1, True),
    "ry": (1, True),
    "rz": (1, True),
    "h": (1, False),
    "cnot": (2, False),
    "pauli_exp": (0, True),
}
_AXES = {"rx": "X", "ry": "Y", "rz": "Z"}


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
        if not _are_indices(self.qubits):  # before the cache, where 0.0 and True hash as 0
            raise InvalidGateError(f"support {self.qubits!r} is not a tuple of integers")
        angled = _shape_check(self.kind, self.qubits, self.pauli)
        if (self.angle is not None) != angled:
            raise InvalidGateError(f"{self.kind} gate {'needs' if angled else 'takes no'} angle")
        if angled and not math.isfinite(self.angle):
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
        return cls("cnot", (int(control), int(target)))

    @classmethod
    def pauli_exponential(cls, pauli: PauliString | str, angle: float) -> "Gate":
        """exp(-i * angle * P) for a Pauli string P (full angle, no half)."""
        if isinstance(pauli, str):
            pauli = PauliString(pauli)
        support = pauli.support
        return cls("pauli_exp", support, float(angle), "".join(pauli.ops[i] for i in support))

    def with_angle(self, angle: float) -> "Gate":
        """This gate at another angle; only the angle is checked, the rest was at construction."""
        angle = float(angle)
        if self.angle is None or not math.isfinite(angle):
            raise InvalidGateError(f"{self.kind} gate cannot take angle {angle!r}")
        # the fields in __init__'s order, so the instance dict keeps sharing its keys
        gate, set_field = object.__new__(Gate), object.__setattr__
        set_field(gate, "kind", self.kind)
        set_field(gate, "qubits", self.qubits)
        set_field(gate, "angle", angle)
        set_field(gate, "pauli", self.pauli)
        return gate

    def matrix(self) -> np.ndarray:
        """Unitary on the support qubits, dimension 2^len(qubits): the state
        step applied to all rows of the identity at once, transposed."""
        k = len(self.qubits)
        rows = _apply_gate(np.eye(2**k, dtype=complex), self, tuple(range(k)), k)
        return np.ascontiguousarray(rows.T)


def _are_indices(values) -> bool:
    """Whether ``values`` is a tuple of Python or numpy integers, bools excluded."""
    return isinstance(values, tuple) and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values
    )


@functools.lru_cache(maxsize=1024)
def _shape_check(kind: str, qubits: tuple[int, ...], pauli: str | None) -> bool:
    """Whether a gate of this kind, support and string takes an angle; raises if they do not fit."""
    size, angled = _KINDS.get(kind, (None, False))
    if size is None:
        raise InvalidGateError(f"unknown gate kind {kind!r}")
    size = size or len(pauli or "")
    if not size or len(qubits) != size:
        raise InvalidGateError(f"support {qubits} does not fit a {kind} gate")
    if len(set(qubits)) != size:
        raise InvalidGateError(f"repeated qubit in support {qubits}")
    if any(q < 0 for q in qubits):
        raise InvalidGateError(f"negative qubit index in {qubits}")
    return angled


@functools.lru_cache(maxsize=256)
def _pauli_action(pauli: str, qubits: tuple[int, ...], n: int) -> tuple:
    """Read-only tables with (P psi)[j] = factor sign[j] psi[source[j]] for
    ``pauli`` on ``qubits`` of n: source is j ^ xy (None if xy = 0), sign is
    (-1)^|j & zy| and factor (-i)^(#Y), where xy (zy) marks the qubits
    carrying X or Y (Z or Y), qubit 0 in the most significant bit."""
    j = np.arange(2**n)
    xy, odd = 0, np.zeros(2**n, dtype=bool)
    for q, letter in zip(qubits, pauli):
        bit = 1 << (n - 1 - q)
        if letter in "XY":
            xy |= bit
        if letter in "YZ":
            odd ^= (j & bit) != 0
    source, sign = (j ^ xy if xy else None), np.where(odd, -1.0, 1.0)
    for table in (source, sign) if xy else (sign,):
        table.setflags(write=False)
    return source, sign, (1, -1j, -1, 1j)[pauli.count("Y") % 4]


@functools.lru_cache(maxsize=256)
def _cnot_source(control: int, target: int, n: int) -> np.ndarray:
    """The read-only permutation with (CNOT psi)[j] = psi[source[j]]: the
    target bit of j flips where its control bit is 1."""
    j = np.arange(2**n)
    source = j ^ ((j >> (n - 1 - control)) & 1) << (n - 1 - target)
    source.setflags(write=False)
    return source


def _apply_gate(psi: np.ndarray, gate: Gate, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """The gate, on ``qubits`` of n, applied by register tables to the last
    axis of psi, any (..., 2^n) array: exp(-i t P) is cos(t) psi - i sin(t)
    P psi, built in place in a new array. Each coefficient is the first
    operand of its product, so a stack's rows round as the vectors alone."""
    if gate.kind == "cnot":
        return psi.take(_cnot_source(*qubits, n), axis=-1)
    if gate.kind == "h":
        out = psi.take(_pauli_action("X", qubits, n)[0], axis=-1)
        out += _pauli_action("Z", qubits, n)[1] * psi
        out *= _SQRT_HALF
        return out
    if gate.kind == "pauli_exp":
        pauli, t = gate.pauli, gate.angle
    else:  # rx, ry or rz: exp(-i angle P / 2)
        pauli, t = _AXES[gate.kind], gate.angle / 2
    source, sign, factor = _pauli_action(pauli, qubits, n)
    coefficient = sign * (-1j * factor * math.sin(t))
    if source is None:  # diagonal P: one coefficient per entry, no gather
        coefficient += math.cos(t)
        return coefficient * psi
    out = psi.take(source, axis=-1)
    np.multiply(coefficient, out, out=out)
    out += math.cos(t) * psi
    return out


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
        if not _are_indices((self.n_qubits,)) or self.n_qubits < 1:
            raise InvalidGateError(f"need a width of at least 1 qubit, got {self.n_qubits!r}")
        for gate in self.gates:
            if max(gate.qubits) >= self.n_qubits:
                raise InvalidGateError(
                    f"gate {gate.kind} on {gate.qubits} exceeds {self.n_qubits} qubits"
                )

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def with_noise(self, per_gate_error: float) -> "CircuitProgram":
        """This program at another error rate; only the rate is checked, the gates were already."""
        program = copy.copy(self)
        object.__setattr__(program, "noise", NoiseSpec(per_gate_error))
        return program


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian unit-trace matrix of a (possibly mixed) N-qubit state.

    ``data`` is read-only, so the checks made here stay true: a read-only
    complex array is kept as given, and any other input is copied.
    """

    n_qubits: int
    data: np.ndarray

    def __post_init__(self):
        d = 2**self.n_qubits
        data = self.data
        if not (isinstance(data, np.ndarray) and data.dtype == complex and not data.flags.writeable):
            data = np.array(data, dtype=complex)
            data.flags.writeable = False
        if data.shape != (d, d):
            raise ShapeError(f"expected shape {(d, d)}, got {data.shape}")
        object.__setattr__(self, "data", data)
        _check_hermitian(data, 1e-12)
        if not (abs(np.trace(data).real - 1.0) <= 1e-10 and abs(np.trace(data).imag) <= 1e-10):
            raise InvalidStateError(f"trace {np.trace(data)!r} differs from 1 beyond 1e-10")

    @classmethod
    def basis_state(cls, n_qubits: int) -> "DensityMatrix":
        """The pure state |0...0><0...0|."""
        d = 2**n_qubits
        data = np.zeros((d, d), dtype=complex)
        data[0, 0] = 1.0
        data.flags.writeable = False
        return cls(n_qubits, data)


def _check_hermitian(data: np.ndarray, tol: float) -> None:
    """Raise unless |data - data^dagger| <= tol entrywise (NaN fails), 64 rows at a time."""
    rows = range(0, data.shape[0], 64)
    drift = np.max([np.abs(data[i : i + 64] - data[:, i : i + 64].T.conj()).max() for i in rows])
    if not drift <= tol:
        raise InvalidStateError(f"matrix is not Hermitian within {tol:.0e}")


def _check_vector(psi: np.ndarray, dim: int | None = None) -> np.ndarray:
    """The state vector flattened, checked to be normalised and, given ``dim``, of that size."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if dim is not None and psi.size != dim:
        raise ShapeError(f"state vector has dimension {psi.size}, expected {dim}")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:  # NaN fails too
        raise InvalidStateError("state vector is not normalised within 1e-10")
    return psi


@functools.lru_cache(maxsize=None)
def _axis_orders(axes: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose moving ``axes`` to the front, and its inverse."""
    order = (*axes, *[a for a in range(ndim) if a not in axes])
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


# Pauli coefficients c_P = tr(P rho) have one axis of 4 per qubit, in the
# order I, X, Y, Z. On one qubit, Pauli a times Pauli b is i^_PHASE[a, b]
# times Pauli a ^ b.
_PHASE = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]])
_ID_MAP = np.eye(4)
# Per qubit, from rho's 2 x 2 block, flattened as 2 * row + column, to (I, X, Y, Z).
_TO_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_FROM_PAULI = 0.5 * _TO_PAULI.conj().T
_ZERO_STATE = np.array([1.0, 0.0, 0.0, 1.0])  # |0><0| = (I + Z) / 2
# H = X Ry(pi/2) and CNOT = exp(-i pi/4 Z_c) exp(-i pi/4 X_t) exp(i pi/4 Z_c X_t),
# up to global phases, as Pauli rotations exp(-i phi P / 2), the first
# applied last, each given as (P, (1, cos phi, sin phi)); their product is
# exactly the signed permutation.
_CLIFFORDS = {
    "h": (("X", (1, -1, 0)), ("Y", (1, 0, 1))),
    "cnot": (("ZI", (1, 0, 1)), ("IX", (1, 0, 1)), ("ZX", (1, 0, -1))),
}


@functools.lru_cache(maxsize=256)
def _rotation_rows(pauli: str, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i phi P / 2) for a Pauli string P, then the noise at ``rate``, as
    (1, cos(phi), sin(phi)) @ rows, and the partner table; both read-only.

    A Pauli Q that commutes with P is fixed. One that anticommutes becomes
    cos(phi) Q + sin(phi) (-i P Q), where -i P Q = s R for the Pauli R at
    flat index ``partner[Q]`` and a sign s = +-1, so c_Q becomes
    cos(phi) c_Q - s sin(phi) c_R. The noise scales each row by 1 - rate
    per non-identity factor. The rows are these fixed, rotating and mixing
    parts, as flattened transfer matrices on at most two qubits and as
    [diagonal | off] of ``_Op``'s tables on more. No column has two nonzero
    rows, so each entry of a map is one rounded product.
    """
    codes = ["IXYZ".index(c) for c in pauli]
    phase = functools.reduce(lambda acc, a: np.add.outer(acc, _PHASE[a]), codes, 0).ravel() % 4
    partner = np.arange(4 ** len(pauli)) ^ int("".join(map(str, codes)), 4)
    one = np.array([1.0, 1.0 - rate, 1.0 - rate, 1.0 - rate])
    scale = functools.reduce(np.multiply.outer, [one] * len(pauli)).ravel()
    anti = phase % 2
    fixed, rotating, mixing = scale * (1 - anti), scale * anti, scale * anti * (phase - 2)
    if len(pauli) <= 2:
        rows = np.stack([np.diag(fixed), np.diag(rotating), np.diag(mixing)[:, partner]])
    else:
        rows = np.block([[fixed, 0 * scale], [rotating, 0 * scale], [0 * scale, mixing]])
    rows = rows.reshape(3, -1)
    for table in (rows, partner):
        table.setflags(write=False)
    return rows, partner


def _rotation_map(pauli: str, rate: float, trig):
    """The map of exp(-i phi P / 2) and noise for trig = (1, cos(phi), sin(phi)),
    as ``_rotation_rows`` lays it out: a transfer matrix, or ``_Op``'s tables."""
    rows, partner = _rotation_rows(pauli, rate)
    flat, m = np.dot(trig, rows), len(partner)  # np.dot: less overhead than @ here
    return flat.reshape(m, m) if len(pauli) <= 2 else (flat[:m], flat[m:], partner)


@functools.lru_cache(maxsize=64)
def _clifford_ptm(kind: str, reverse: bool, rate: float) -> np.ndarray:
    """The noisy transfer matrix of H or CNOT, in the pair order (target,
    control) with ``reverse``."""
    rotations = [_rotation_map(p[::-1] if reverse else p, 0, trig) for p, trig in _CLIFFORDS[kind]]
    noise = _rotation_map("I" * len(_CLIFFORDS[kind][0][0]), rate, (1, 1, 0))
    mat = noise @ functools.reduce(np.matmul, rotations)
    mat.setflags(write=False)
    return mat


_CHUNK = 256  # gates per cos and sin call: amortises it, and memory stays flat in depth


def _noisy_maps(program: CircuitProgram):
    """Yield each gate's support and its map with the noise, in gate order; a
    CNOT's support and map are in ascending pair order. Every map fixes c_I:
    its row 0 is exactly e_0."""
    gates, noise = program.gates, program.noise
    rates = {k: noise.per_qubit_replace_rate(k) for k in range(1, program.n_qubits + 1)}
    for start in range(0, len(gates), _CHUNK):
        chunk = gates[start : start + _CHUNK]
        # phi of exp(-i phi P / 2): a rotation's angle, twice a Pauli exponential's
        phis = np.array([(g.angle or 0.0) * (2.0 if g.pauli else 1.0) for g in chunk])
        trigs = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)], axis=1)
        for gate, trig in zip(chunk, trigs):
            qubits, rate = gate.qubits, rates[len(gate.qubits)]
            if gate.kind not in _CLIFFORDS:
                yield qubits, _rotation_map(gate.pauli or _AXES[gate.kind], rate, trig)
            elif len(qubits) == 2 and qubits[0] > qubits[1]:
                yield qubits[::-1], _clifford_ptm(gate.kind, True, rate)
            else:
                yield qubits, _clifford_ptm(gate.kind, False, rate)


def _pair_product(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """first (x) second for two single-qubit maps, in pair order."""
    return (first.reshape(4, 1, 4, 1) * second.reshape(1, 4, 1, 4)).reshape(16, 16)


class _Op:
    """One step of the fused kernel, on the Pauli coefficients of ``qubits``.

    On at most two qubits, ``matrix`` is a transfer matrix in pair order; on
    three or more it is a Pauli exponential's tables (diagonal, off,
    partner): coefficient Q becomes diagonal[Q] c_Q + off[Q] c_partner[Q].
    """

    __slots__ = ("qubits", "matrix")

    def __init__(self, qubits, matrix):
        self.qubits = qubits
        self.matrix = matrix

    def apply(self, state: np.ndarray) -> np.ndarray:
        k, first = len(self.qubits), self.qubits[0]
        if self.qubits == tuple(range(first, first + k)):  # adjacent: no transpose
            inverse, moved = None, state.reshape(4**first, 4**k, -1)
        else:
            order, inverse = _axis_orders(self.qubits, state.ndim)
            moved = state.transpose(order).reshape(1, 4**k, -1)
        if k > 2:
            diagonal, off, partner = self.matrix
            out = diagonal[:, None] * moved + off[:, None] * moved[:, partner]
        elif moved.shape[2] == 1:  # the last qubits: one matmul beats a broadcast one
            out = moved.reshape(-1, 4**k) @ self.matrix.T
        else:
            out = np.matmul(self.matrix, moved)
        out = out.reshape(state.shape)
        return out if inverse is None else out.transpose(inverse)


def _fused_ops(program: CircuitProgram):
    """Yield the program's noisy gates as fused ops, in an order that is exact.

    Each gate and its noise is one map on its support's Pauli coefficients,
    from ``_noisy_maps``: (1, cos, sin) times cached rows for a rotation. A
    single-qubit map waits on its qubit and is folded into the next map
    there; it only moves past maps on other qubits, which commute with it.
    A pair map takes in the maps waiting on its two qubits, then joins the
    one open op if it is on the same pair, or yields the open op and becomes
    it. A wider map yields the open op if they share a qubit, then the maps
    waiting on its qubits, then itself. At the end the open op is yielded,
    then the maps still waiting. So at most n + 1 maps are held between gates.
    """
    waiting: dict[int, np.ndarray] = {}
    open_op = None
    for qubits, matrix in _noisy_maps(program):
        k = len(qubits)
        if k == 1:
            q = qubits[0]
            waiting[q] = matrix @ waiting[q] if q in waiting else matrix
        elif k == 2:
            a, b = qubits
            if a in waiting or b in waiting:
                matrix = matrix @ _pair_product(waiting.pop(a, _ID_MAP), waiting.pop(b, _ID_MAP))
            if open_op is not None and open_op.qubits == qubits:
                open_op.matrix = matrix @ open_op.matrix
            else:
                if open_op is not None:
                    yield open_op
                open_op = _Op(qubits, matrix)
        else:
            if open_op is not None and not set(qubits).isdisjoint(open_op.qubits):
                yield open_op
                open_op = None
            yield from (_Op((q,), waiting.pop(q)) for q in qubits if q in waiting)
            yield _Op(qubits, matrix)
    if open_op is not None:
        yield open_op
    yield from (_Op((q,), matrix) for q, matrix in waiting.items())


def _per_qubit(x: np.ndarray, mat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``mat`` applied on every qubit's axis of 4, two qubits per pass; each
    pass moves the leading qubits last, so the axes end in their first order.
    The passes write x, as a C-contiguous complex array (in place if it is
    one), and one more buffer in turn; returns the result and that buffer."""
    x = np.ascontiguousarray(x, dtype=complex)
    free = np.empty_like(x)
    for m in [np.kron(mat, mat)] * (n // 2) + [mat] * (n % 2):
        np.matmul(x.reshape(len(m), -1).T, m.T, out=free.reshape(-1, len(m)))
        x, free = free, x
    return x, free


def _to_pauli(initial: DensityMatrix) -> np.ndarray:
    """The Pauli coefficients of a density matrix, one axis of 4 per qubit."""
    n, data = initial.n_qubits, initial.data
    pairs = data.reshape((2,) * (2 * n)).transpose([q + n * j for q in range(n) for j in (0, 1)])
    return _per_qubit(pairs.copy(), _TO_PAULI, n)[0].real.reshape((4,) * n)


def _from_pauli(x: np.ndarray, n: int) -> np.ndarray:
    """The d x d density matrix with Pauli coefficients x, built in x (if it
    is C-contiguous and complex) and one more buffer. It is exactly
    Hermitian: an entry and its mirror add the same terms, scaled by
    conjugate factors (0, or a power of two times +-1 or +-i), which round
    alike."""
    x, free = _per_qubit(x, _FROM_PAULI, n)
    pairs = x.reshape((2,) * (2 * n)).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    np.copyto(free.reshape(pairs.shape), pairs)
    return free.reshape(2**n, 2**n)


def run_circuit(program: CircuitProgram, initial: DensityMatrix | None = None) -> DensityMatrix:
    """Evolve a density matrix, by default |0...0><0...0|, through the noisy gates in order.

    Each gate applies its ideal unitary; every support qubit then suffers
    an independent uniform X/Y/Z error with probability
    1 - (1 - eps)^(1/q), so the whole gate is error-free with probability
    exactly 1 - eps. With a zero error rate the output is the ideal
    (generally pure) state. The gates are applied as fused ops (see
    ``_fused_ops``), which changes the result only by rounding. The default
    start needs no d x d matrix; memory peaks at ``_from_pauli``'s two buffers.
    """
    n = program.n_qubits
    if initial is None:
        x = functools.reduce(np.multiply.outer, [_ZERO_STATE] * n, 1.0)
    elif initial.n_qubits != n:
        raise ShapeError(f"program has {n} qubits, state has {initial.n_qubits}")
    else:
        x = _to_pauli(initial)
    for op in _fused_ops(program):
        x = op.apply(x)
    x = np.ascontiguousarray(x, dtype=complex)  # frees the real state for the second buffer
    x = _from_pauli(x, n)  # frees the spent buffer before the check
    x.flags.writeable = False  # the only reference: DensityMatrix keeps it uncopied
    return DensityMatrix(n, x)


def run_ideal(program: CircuitProgram, initial: np.ndarray) -> np.ndarray:
    """Noise-free state-vector simulation of the same gate sequence."""
    n = program.n_qubits
    psi = _check_vector(initial, 2**n)
    for gate in program.gates:
        psi = _apply_gate(psi, gate, gate.qubits, n)
    return psi


def basis_statevector(n_qubits: int) -> np.ndarray:
    """The state vector |0...0>."""
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi
