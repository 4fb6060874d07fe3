"""Spectral analysis of noisy states against their noise-free targets.

Everything here is a pure function of (rho, psi_ideal): the
sorted spectrum, the eigenvalue-uniformity and commutator-norm metrics,
white-noise reference states, trace distances and bias bounds, and the
arrowhead form whose secular equation reproduces the spectrum. A row's
report reduces rho once: a reflector takes psi to e_1, LAPACK's ``zhetrd``
takes the result to a real tridiagonal T by a unitary that fixes e_1, and
``dsterf`` reads spec(rho) off T and spec(rho - rho_wn) off T with its
diagonal shifted by -lambda_1 e_1 e_1^T - (1 - lambda_1)/d.

Norm convention: ``trace_distance`` returns the full trace norm
sum_k |eig_k(a - b)| without the factor 1/2. The one place a half enters
is :func:`white_noise_distance_identity`, which works with total-variation
(halved) quantities on both sides so the identity it checks is exact.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateStateError,
    InvalidObservableError,
    InvalidRateError,
    InvalidStateError,
    PoleError,
    ShapeError,
)
from .simulator import DensityMatrix, _check_hermitian, _check_vector

_PURITY_TOL = 1e-12  # above 1 - this, the dominant eigenvalue counts as 1
_CLAMP_TOL = 1e-10  # negative eigenvalues down to -this are rounding, clamped to 0
# lambda_1 - F is a difference of two O(1) numbers; below this it is rounding
_GAP_FLOOR = 1e2 * np.finfo(float).eps
# entries per row block (64 KiB) of the in-place reflection, which takes two such blocks
_BLOCK = 4096


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.data
    return np.asarray(state, dtype=complex)


def fidelity(rho, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a pure target state."""
    mat = _as_matrix(rho)
    psi = _check_vector(psi, mat.shape[0])
    return float(np.vdot(psi, mat @ psi).real)


@dataclass
class SpectralDecomposition:
    """Eigenvalues in descending order."""

    eigenvalues: np.ndarray


def eigendecompose(rho, psi_id: np.ndarray | None = None) -> SpectralDecomposition:
    """Descending spectrum of a density matrix, with no eigenvectors.

    Tiny negative eigenvalues (within 1e-10 of zero) are clamped
    to zero and the spectrum renormalised to unit sum. A raw array must be
    Hermitian within 1e-10; a ``DensityMatrix`` was checked when made, and
    its data is read-only. ``psi_id``, when given, is only checked to be a
    normalised vector of matching size.
    """
    return SpectralDecomposition(_spectrum(np.linalg.eigvalsh(_checked_matrix(rho, psi_id))))


def _checked_matrix(rho, psi_id: np.ndarray | None = None) -> np.ndarray:
    """rho's matrix, checked as ``eigendecompose`` says."""
    mat = _as_matrix(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    if not isinstance(rho, DensityMatrix):
        _check_hermitian(mat, 1e-10)
    if psi_id is not None:
        _check_vector(psi_id, mat.shape[0])
    return mat


def _spectrum(vals: np.ndarray) -> np.ndarray:
    if vals[0] < -_CLAMP_TOL:
        raise InvalidStateError(f"eigenvalue {vals[0]:.3e} below -{_CLAMP_TOL:.0e}")
    vals = np.clip(vals[::-1], 0.0, None)
    return vals / vals.sum()


def eigenvalue_uniformity(decomposition) -> float:
    """Half the l1 distance between the non-dominant spectrum and uniform.

    The non-dominant eigenvalues are renormalised by 1 - lambda_1 and
    compared against the uniform distribution over the d - 1 error slots.
    Zero means the error spectrum is exactly flat, i.e. global white noise.
    """
    lam = np.asarray(getattr(decomposition, "eigenvalues", decomposition), dtype=float)
    lam1 = lam[0]
    if lam1 >= 1.0 - _PURITY_TOL:
        raise DegenerateStateError(
            "dominant eigenvalue is 1 within tolerance, uniformity undefined"
        )
    p_err = lam[1:] / (1.0 - lam1)
    return float(0.5 * np.abs(p_err - 1.0 / (lam.size - 1)).sum())


def trace_distance(a, b) -> float:
    """Full trace norm of the difference, sum of absolute eigenvalues."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ShapeError(f"shape mismatch {ma.shape} vs {mb.shape}")
    diff = ma - mb
    _check_hermitian(diff, 1e-10)
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def commutator_matrix(rho, psi_id: np.ndarray) -> np.ndarray:
    """The Hermitian matrix i[|psi><psi|, rho]."""
    mat = _as_matrix(rho)
    psi = _check_vector(psi_id, mat.shape[0])
    w = mat @ psi
    return 1j * (np.outer(psi, w.conj()) - np.outer(w, psi.conj()))


def variance(rho, psi_id: np.ndarray) -> float:
    """<psi| rho^2 |psi> - F^2 as ||rho psi - F psi||^2, which does not cancel near a pure state."""
    mat = _as_matrix(rho)
    psi = _check_vector(psi_id, mat.shape[0])
    w = mat @ psi
    residual = w - np.vdot(psi, w).real * psi
    return float(np.vdot(residual, residual).real)


@dataclass
class WhiteNoiseState:
    """eta |psi><psi| + (1 - eta) Id/d, the global-depolarising reference."""

    eta: float
    data: np.ndarray


def build_white_noise_state(psi: np.ndarray, eta: float) -> WhiteNoiseState:
    """Mix a pure state with the maximally mixed state at weight eta."""
    if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
        raise InvalidRateError(f"eta {eta!r} outside [0, 1]")
    psi = _check_vector(psi)
    d = psi.size
    data = eta * np.outer(psi, psi.conj()) + (1.0 - eta) * np.eye(d) / d
    return WhiteNoiseState(eta=float(eta), data=data)


def bias_bound(observable: np.ndarray, rho, psi_id: np.ndarray, eta: float) -> tuple[float, float]:
    """Rescaling bias of a traceless observable and its trace-distance bound.

    bias  = tr[O rho]/eta - <psi|O|psi>
    bound = ||O||_inf * ||rho - rho_wn(eta)||_1 / eta

    and |bias| <= bound holds for every valid input.
    """
    obs = np.asarray(observable, dtype=complex)
    mat = _as_matrix(rho)
    if obs.shape != mat.shape:
        raise ShapeError(f"observable shape {obs.shape} does not match state {mat.shape}")
    if not np.abs(obs - obs.conj().T).max() <= 1e-10:  # NaN fails too
        raise InvalidObservableError("observable is not Hermitian within 1e-10")
    if not abs(np.trace(obs)) <= 1e-10:
        raise InvalidObservableError(f"observable trace {np.trace(obs)!r} is not 0 within 1e-10")
    if not eta > 0.0:
        raise InvalidRateError(f"eta must be positive, got {eta!r}")
    psi = _check_vector(psi_id, mat.shape[0])
    ideal_value = float(np.vdot(psi, obs @ psi).real)
    bias = float(np.trace(obs @ mat).real) / eta - ideal_value
    wn = build_white_noise_state(psi, eta)
    op_norm = float(np.abs(np.linalg.eigvalsh(obs)).max())
    bound = op_norm * trace_distance(mat, wn.data) / eta
    return bias, bound


@dataclass
class ArrowheadForm:
    """Unitary conjugation of rho with the ideal-state fidelity in the corner.

    ``transform @ rho @ transform^dagger`` equals the arrowhead matrix with
    corner ``corner``, non-negative first row/column ``offdiag`` and
    non-negative diagonal ``diag``; all other entries vanish.
    """

    corner: float
    offdiag: np.ndarray
    diag: np.ndarray
    transform: np.ndarray


def arrowhead_transform(rho, psi_id: np.ndarray) -> ArrowheadForm:
    """Rotate rho into its non-negative arrowhead form around the ideal state.

    The first basis vector is the ideal state and the rest come from the
    Householder reflector that takes it to e_1; the orthogonal complement
    is rotated into the eigenbasis of the complementary block and phases
    are absorbed so the border entries come out real and non-negative.
    """
    rotated = np.array(_as_matrix(rho))
    v = _reflect(rotated, _check_vector(psi_id, rotated.shape[0]))
    phase = -v[0] / abs(v[0])  # H0 psi = phase e_1, undone on the first column
    corner = float(rotated[0, 0].real)
    block_vals, block_vecs = np.linalg.eigh(rotated[1:, 1:])
    order = np.argsort(-block_vals, kind="stable")
    block_vals = block_vals[order]
    block_vecs = block_vecs[:, order]
    border = block_vecs.conj().T @ rotated[1:, 0] * phase
    magnitudes = np.abs(border)
    phases = np.where(magnitudes > 1e-15, border / np.where(magnitudes > 1e-15, magnitudes, 1.0), 1.0)
    transform = np.zeros_like(rotated)
    transform[0, 0] = np.conj(phase)
    transform[1:, 1:] = block_vecs.conj().T * np.conj(phases)[:, None]
    transform -= 2.0 * np.outer(transform @ v, v.conj())  # transform @ H0
    return ArrowheadForm(
        corner=max(corner, 0.0),
        offdiag=magnitudes,
        diag=np.clip(block_vals, 0.0, None),
        transform=transform,
    )


def secular_residual(form: ArrowheadForm, x: float) -> float:
    """P(x) = x - corner + sum_k offdiag_k^2 / (diag_k - x).

    Roots of P are the eigenvalues of the arrowhead matrix, hence of rho.
    Raises when x sits numerically on a pole of the sum.
    """
    diff = form.diag - x
    if diff.size and np.abs(diff).min() < 1e-12:
        raise PoleError(f"x={x!r} coincides with an arrowhead diagonal entry")
    return float(x - form.corner + np.sum(form.offdiag**2 / diff))


@dataclass
class GapBound:
    """Gap between the dominant eigenvalue and the fidelity, with its bound.

    ``bound`` is ||[rho_id, rho]||_inf^2 / (2 lambda_1 - 1); the chain of
    inequalities behind it needs lambda_1 > 1/2 and every arrowhead
    diagonal entry at most 1 - lambda_1, so ``bound_applicable`` reports
    whether the bound is actually in force for this state.
    """

    gap: float
    bound: float
    bound_applicable: bool


def dominant_eigenvalue_gap(rho, psi_id: np.ndarray) -> GapBound:
    """lambda_1 - F together with its commutator-norm bound when applicable.

    Where the bound applies, the gap is the secular sum
    sum_k offdiag_k^2 / (lambda_1 - diag_k) of the arrowhead form, whose
    terms are all non-negative, so it keeps its relative precision however
    close rho is to pure. Elsewhere it is the difference lambda_1 - F of two
    O(1) numbers, and a difference below 1e2 * eps_mach (about 2e-14) is
    rounding noise, reported as 0.0.
    """
    mat = _as_matrix(rho)
    psi = _check_vector(psi_id, mat.shape[0])
    lam1 = float(eigendecompose(mat, psi).eigenvalues[0])
    gap = lam1 - fidelity(mat, psi)
    if gap < _GAP_FLOOR:
        gap = 0.0
    if lam1 <= 0.5 + 1e-9:
        return GapBound(gap=gap, bound=math.nan, bound_applicable=False)
    bound = variance(mat, psi) / (2.0 * lam1 - 1.0)
    form = arrowhead_transform(mat, psi)
    if form.diag.max() > 1.0 - lam1 + 1e-12:
        return GapBound(gap=gap, bound=bound, bound_applicable=False)
    # every diag_k <= 1 - lambda_1 < lambda_1, so lambda_1 is a secular root
    gap = float(np.sum(form.offdiag**2 / (lam1 - form.diag)))
    return GapBound(gap=gap, bound=bound, bound_applicable=True)


def white_noise_distance_identity(
    psi_id: np.ndarray, eta: float, rho_err
) -> tuple[float, float]:
    """Exact distance identity for a state mixed from ideal and error parts.

    For rho = eta |psi><psi| + (1 - eta) rho_err, the total-variation
    distance from the matching white-noise state equals (1 - eta) times
    the total-variation distance between the error spectrum and uniform:

        (1/2) ||rho - rho_wn||_1 = (1 - eta)/2 * sum_k |mu_k - 1/d|

    Both sides are returned; they agree to numerical precision with no
    approximation involved.
    """
    if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
        raise InvalidRateError(f"eta {eta!r} outside [0, 1]")
    err = _as_matrix(rho_err)
    psi = _check_vector(psi_id, err.shape[0])
    _check_hermitian(err, 1e-10)
    if abs(np.trace(err).real - 1.0) > 1e-8:
        raise InvalidStateError("error matrix trace differs from 1 beyond 1e-8")
    mu = np.linalg.eigvalsh(err)
    if mu[0] < -1e-10:
        raise InvalidStateError(f"error matrix eigenvalue {mu[0]:.3e} below -1e-10")
    rho = eta * np.outer(psi, psi.conj()) + (1.0 - eta) * err
    lhs = 0.5 * trace_distance(rho, build_white_noise_state(psi, eta).data)
    rhs = 0.5 * (1.0 - eta) * float(np.abs(mu - 1.0 / mu.size).sum())
    return lhs, rhs


@dataclass
class SpectralReport:
    """Every spectral quantity of one (noisy state, ideal state) pair.

    ``uniformity`` and ``commutator_rel`` are None for numerically pure
    states, with ``degenerate_reason`` saying why. ``commutator_abs`` is the
    trace norm of the rank-2 commutator, 2 sqrt(variance), with no
    diagonalisation. ``trace_dist_wn`` is the full trace norm against the
    white-noise state built with eta equal to the dominant eigenvalue.
    ``error_overlap`` is the ideal-state weight of the error component,
    available once an expected no-error probability has been supplied.
    """

    fidelity: float
    lambda1: float
    uniformity: float | None
    commutator_abs: float
    commutator_rel: float | None
    trace_dist_wn: float
    error_overlap: float | None = None
    degenerate_reason: str | None = None


def compute_spectral_report(
    rho, psi_id: np.ndarray, eta_estimate: float | None = None
) -> SpectralReport:
    """Assemble the full metric set for one simulated state; rho is copied, never written."""
    return _report(np.array(_checked_matrix(rho), order="C"), psi_id, eta_estimate)


def _reflect(work: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Overwrite Hermitian ``work`` with H0 work H0, a row block at a time,
    where H0 = 1 - 2 v v^dagger maps psi to a unit multiple of e_1; returns v."""
    v = np.array(psi, dtype=complex)
    v[0] += np.exp(1j * np.angle(psi[0]))  # psi[0]'s phase: no cancellation
    v /= np.linalg.norm(v)
    w = work @ v
    y = 2.0 * (w - np.vdot(v, w).real * v)
    v_bra, y_bra, rows = v.conj(), y.conj(), max(1, _BLOCK // v.size)
    for start in range(0, v.size, rows):
        block = np.outer(v[start : start + rows], y_bra)
        block += np.outer(y[start : start + rows], v_bra)
        work[start : start + rows] -= block
    return v


@functools.cache
def _lapack() -> tuple | None:
    """``zhetrd`` and ``dsterf`` from numpy's own OpenBLAS handle (its thread settings hold)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in (ctypes.CDLL(str(path)) for path in sorted(libs.glob("libscipy_openblas64_*.so"))):
        if hasattr(lib, "scipy_zhetrd_64_") and hasattr(lib, "scipy_dsterf_64_"):
            break
    else:
        return None
    zhetrd, dsterf, int64 = lib.scipy_zhetrd_64_, lib.scipy_dsterf_64_, ctypes.POINTER(ctypes.c_int64)
    real, cplx = (np.ctypeslib.ndpointer(dtype, flags="C,W") for dtype in (float, complex))
    # UPLO, N, A, LDA, D, E, TAU, WORK, LWORK, INFO, then UPLO's hidden length
    zhetrd.argtypes = [ctypes.c_char_p, int64, cplx, int64, real, real, cplx, cplx, int64, int64,
                       ctypes.c_size_t]
    dsterf.argtypes = [int64, real, real, int64]  # N, D, E, INFO
    zhetrd.restype = dsterf.restype = None
    return zhetrd, dsterf


def _reduce(work: np.ndarray):
    """T's diagonal (writable) and a function giving T's ascending spectrum by ``dsterf``,
    for the real tridiagonal T that ``zhetrd`` makes in place of C-ordered work, which
    LAPACK reads as conj(work); without the binding, T is work and the function ``eigvalsh``."""
    if _lapack() is None:
        return work.reshape(-1)[:: work.shape[0] + 1], lambda: np.linalg.eigvalsh(work.T)
    (zhetrd, dsterf), ref = _lapack(), ctypes.byref
    n, info, size = ctypes.c_int64(work.shape[0]), ctypes.c_int64(0), np.empty(1, complex)
    diag, off, tau = np.empty(n.value), np.empty(n.value), np.empty(n.value, complex)
    args = b"L", ref(n), work, ref(n), diag, off, tau
    zhetrd(*args, size, ref(ctypes.c_int64(-1)), ref(info), 1)  # workspace query: about 32 d
    buf = np.empty(int(size[0].real), complex)
    zhetrd(*args, buf, ref(ctypes.c_int64(buf.size)), ref(info), 1)
    if info.value:
        raise np.linalg.LinAlgError(f"zhetrd rejected its argument {-info.value}")

    def spectrum() -> np.ndarray:  # dsterf overwrites both inputs
        vals, sub = diag.copy(), off.copy()
        dsterf(ref(n), vals, sub, ref(info))
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return vals

    return diag, spectrum


def _report(work: np.ndarray, psi_id: np.ndarray, eta_estimate: float | None) -> SpectralReport:
    """The report of a checked density matrix, which it overwrites (a sweep row passes its
    own): F and the variance, then both spectra from one reduction of H0 rho H0."""
    d = work.shape[0]
    psi = _check_vector(psi_id, d)
    f = fidelity(work, psi)
    commutator_abs = 2.0 * math.sqrt(variance(work, psi))
    _reflect(work, psi)
    diag, spectrum = _reduce(work)
    eigenvalues = _spectrum(spectrum())
    lam1 = float(eigenvalues[0])
    degenerate = lam1 >= 1.0 - _PURITY_TOL
    uniformity = None if degenerate else eigenvalue_uniformity(eigenvalues)
    commutator_rel = None if degenerate else commutator_abs / (1.0 - lam1)
    diag -= (1.0 - lam1) / d  # T becomes the reduced rho - rho_wn
    diag[0] -= lam1
    dist_wn = float(np.abs(spectrum()).sum())
    error_overlap = None
    if eta_estimate is not None and eta_estimate < 1.0 - 1e-15:
        error_overlap = (f - eta_estimate) / (1.0 - eta_estimate)
    return SpectralReport(
        fidelity=f,
        lambda1=lam1,
        uniformity=uniformity,
        commutator_abs=commutator_abs,
        commutator_rel=commutator_rel,
        trace_dist_wn=dist_wn,
        error_overlap=error_overlap,
        degenerate_reason="noiseless" if degenerate else None,
    )
