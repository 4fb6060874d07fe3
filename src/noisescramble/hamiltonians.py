"""Pauli strings and the problem Hamiltonians used by the circuit builders.

Conventions used throughout the package: qubit 0 is the leftmost tensor
factor, i.e. the most significant bit of a computational-basis index, so
the string "XZI" applies X to qubit 0 and Z to qubit 1 of a 3-qubit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import HamiltonianParseError, InvalidSizeError, ShapeError


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators, e.g. "IXZY"."""

    ops: str

    def __post_init__(self):
        if not self.ops:
            raise ValueError("empty Pauli string")
        bad = sorted(set(self.ops) - set("IXYZ"))
        if bad:
            raise ValueError(f"invalid Pauli symbols {bad!r} in {self.ops!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.ops)

    @property
    def weight(self) -> int:
        return sum(1 for c in self.ops if c != "I")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.ops) if c != "I")

    def is_diagonal(self) -> bool:
        """True when the operator is diagonal in the computational basis."""
        return all(c in "IZ" for c in self.ops)

    def __str__(self) -> str:
        return self.ops


@dataclass(frozen=True)
class PauliTermHamiltonian:
    """A weighted sum of Pauli strings, H = sum_k h_k P_k.

    ``terms`` is kept canonical by :meth:`from_terms`: duplicates merged,
    exact zeros dropped, entries sorted by their Pauli string.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    @classmethod
    def from_terms(cls, n_qubits: int, terms) -> "PauliTermHamiltonian":
        merged: dict[str, float] = {}
        for coeff, pauli in terms:
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff!r}")
            if isinstance(pauli, str):
                pauli = PauliString(pauli)
            if pauli.n_qubits != n_qubits:
                raise ShapeError(
                    f"Pauli string {pauli.ops!r} has length {pauli.n_qubits}, expected {n_qubits}"
                )
            merged[pauli.ops] = merged.get(pauli.ops, 0.0) + coeff
        canonical = tuple(
            (coeff, PauliString(ops)) for ops, coeff in sorted(merged.items()) if coeff != 0.0
        )
        return cls(n_qubits=n_qubits, terms=canonical)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def diagonal_part(self) -> "PauliTermHamiltonian":
        """Terms built only from {I, Z}."""
        return PauliTermHamiltonian(
            self.n_qubits, tuple(t for t in self.terms if t[1].is_diagonal())
        )

    def offdiagonal_part(self) -> "PauliTermHamiltonian":
        """Terms containing at least one X or Y."""
        return PauliTermHamiltonian(
            self.n_qubits, tuple(t for t in self.terms if not t[1].is_diagonal())
        )

    def diagonal_vector(self) -> np.ndarray:
        """Diagonal of the dense matrix, valid only for diagonal Hamiltonians."""
        d = 2**self.n_qubits
        idx = np.arange(d)
        diag = np.zeros(d)
        for coeff, pauli in self.terms:
            if not pauli.is_diagonal():
                raise ShapeError(f"term {pauli.ops!r} is not diagonal")
            signs = np.ones(d)
            for q in pauli.support:
                bit = (idx >> (self.n_qubits - 1 - q)) & 1
                signs *= 1.0 - 2.0 * bit
            diag += coeff * signs
        return diag


def _single_site(n: int, q: int, op: str) -> PauliString:
    return PauliString("".join(op if i == q else "I" for i in range(n)))


def _two_site(n: int, q: int, op: str) -> PauliString:
    return PauliString("".join(op if i in (q, q + 1) else "I" for i in range(n)))


def build_xxx_hamiltonian(n_qubits: int, seed: int):
    """Heisenberg chain split into a trivial and a coupling part.

    The trivial part is a random on-site Z field, sum_k Delta_k Z_k with
    Delta_k drawn uniformly from [-1, 1]; the coupling part is the
    unit-strength open-chain XX + YY + ZZ nearest-neighbour interaction.
    Returns the pair (field, couplings).
    """
    if n_qubits < 2:
        raise InvalidSizeError(f"need at least 2 qubits, got {n_qubits}")
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(-1.0, 1.0, size=n_qubits)
    h0 = PauliTermHamiltonian.from_terms(
        n_qubits, [(deltas[q], _single_site(n_qubits, q, "Z")) for q in range(n_qubits)]
    )
    h1_terms = []
    for q in range(n_qubits - 1):
        for op in ("X", "Y", "Z"):
            h1_terms.append((1.0, _two_site(n_qubits, q, op)))
    h1 = PauliTermHamiltonian.from_terms(n_qubits, h1_terms)
    return h0, h1


def build_tfi_hamiltonian(n_qubits: int, seed: int, with_rz_extension: bool = False):
    """Transverse-field Ising pair: H0 = -sum_i X_i, H1 = -sum_i J_i Z_i Z_{i+1}.

    On-site fields are constant (strength 1); the couplings J_i are drawn
    uniformly from [-1, 1]. ``with_rz_extension`` does not change the terms,
    it only marks that the circuit built on top will insert extra per-layer
    Rz gates (their generator is deliberately not part of the Hamiltonian).
    """
    if n_qubits < 2:
        raise InvalidSizeError(f"need at least 2 qubits, got {n_qubits}")
    rng = np.random.default_rng(seed)
    couplings = rng.uniform(-1.0, 1.0, size=n_qubits - 1)
    h0 = PauliTermHamiltonian.from_terms(
        n_qubits, [(-1.0, _single_site(n_qubits, q, "X")) for q in range(n_qubits)]
    )
    h1 = PauliTermHamiltonian.from_terms(
        n_qubits,
        [(-couplings[q], _two_site(n_qubits, q, "Z")) for q in range(n_qubits - 1)],
    )
    return h0, h1


def load_hamiltonian_file(path) -> PauliTermHamiltonian:
    """Read a Hamiltonian from a text file, one ``<float> <pauli-string>`` per line.

    Blank lines are skipped and ``#`` starts a comment. All strings must
    share one length. Terms are returned canonically sorted; the
    diagonal/off-diagonal split is available through
    :meth:`PauliTermHamiltonian.diagonal_part` and
    :meth:`PauliTermHamiltonian.offdiagonal_part`.
    """
    text = Path(path).read_text(encoding="utf-8")
    n_qubits = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise HamiltonianParseError(
                f"line {lineno}: expected '<coefficient> <pauli-string>', got {raw!r}"
            )
        try:
            coeff = float(parts[0])
        except ValueError:
            raise HamiltonianParseError(f"line {lineno}: bad coefficient {parts[0]!r}") from None
        if not math.isfinite(coeff):
            raise HamiltonianParseError(f"line {lineno}: non-finite coefficient {parts[0]!r}")
        try:
            pauli = PauliString(parts[1])
        except ValueError as exc:
            raise HamiltonianParseError(f"line {lineno}: {exc}") from None
        if n_qubits is None:
            n_qubits = pauli.n_qubits
        elif pauli.n_qubits != n_qubits:
            raise ShapeError(
                f"line {lineno}: string length {pauli.n_qubits} differs from earlier length {n_qubits}"
            )
        terms.append((coeff, pauli))
    if n_qubits is None:
        return PauliTermHamiltonian(n_qubits=0, terms=())
    return PauliTermHamiltonian.from_terms(n_qubits, terms)
