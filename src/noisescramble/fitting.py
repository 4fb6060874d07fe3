"""Power-law fits of the scrambling metrics against circuit size.

The model is f(nu) = alpha * g(xi) / nu^beta with the error-rate prefactor
g(xi) = xi * e^(-xi) / (1 - e^(-xi)), where xi is the expected number of
gate errors in the whole circuit. Taking logs makes the model linear in
(log alpha, beta), so the fit is a closed-form least-squares regression in
log space; no iterative optimiser is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import FitError

_FLAT_TOL = 0.05  # relative alpha spread below which a scan counts as saturated


def error_rate_prefactor(circuit_error_rate: float) -> float:
    """g(xi) = xi e^(-xi) / (1 - e^(-xi)), continued to g(0) = 1."""
    xi = float(circuit_error_rate)
    if xi < 0.0 or not math.isfinite(xi):
        raise ValueError(f"circuit error rate must be non-negative, got {xi!r}")
    if xi == 0.0:
        return 1.0
    return xi * math.exp(-xi) / -math.expm1(-xi)


def scaling_model(nu, alpha: float, beta: float, circuit_error_rate) -> np.ndarray:
    """Evaluate alpha * g(xi) / nu^beta elementwise."""
    nu = np.asarray(nu, dtype=float)
    xi = np.broadcast_to(np.asarray(circuit_error_rate, dtype=float), nu.shape)
    g = np.array([error_rate_prefactor(x) for x in xi.ravel()]).reshape(nu.shape)
    return alpha * g / nu**beta


@dataclass(frozen=True)
class ScalingSample:
    """One averaged data point: metric value, and its standard error, at a circuit size."""

    nu: int
    circuit_error_rate: float
    value: float
    stderr: float = 0.0


@dataclass(frozen=True)
class ScalingFit:
    """Fitted (alpha, beta) with the root-mean-square log-space misfit."""

    alpha: float
    beta: float
    residual: float
    samples: tuple[ScalingSample, ...]

    def predict(self, nu, circuit_error_rate) -> np.ndarray:
        return scaling_model(nu, self.alpha, self.beta, circuit_error_rate)


def fit_scaling(samples) -> ScalingFit:
    """Least-squares fit of log value = log alpha + log g(xi) - beta log nu.

    Needs at least three samples with distinct nu and strictly positive
    values. The closed-form solution divides the error-rate prefactor out
    per sample, so alpha is reported free of it.
    """
    samples = tuple(samples)
    if any(s.value <= 0.0 or not math.isfinite(s.value) for s in samples):
        raise FitError("every sample value must be finite and positive")
    if len({s.nu for s in samples}) < 3:
        raise FitError("need samples at three or more distinct circuit sizes")
    if any(s.nu < 1 for s in samples):
        raise FitError("circuit sizes must be at least 1")
    x = np.array([math.log(s.nu) for s in samples])
    y = np.array(
        [math.log(s.value) - math.log(error_rate_prefactor(s.circuit_error_rate)) for s in samples]
    )
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    beta = -float(dx @ (y - y_mean)) / float(dx @ dx)
    intercept = y_mean + beta * x_mean
    residual = float(np.sqrt(np.mean((y - (intercept - beta * x)) ** 2)))
    return ScalingFit(
        alpha=math.exp(intercept), beta=beta, residual=residual, samples=samples
    )


@dataclass(frozen=True)
class AlphaScanTable:
    """(n_qubits, alpha, beta) rows for the qubit-count dependence of alpha."""

    rows: tuple[tuple[int, float, float], ...]
    saturated: bool


def alpha_by_qubits(fits: Mapping[int, ScalingFit]) -> AlphaScanTable:
    """Tabulate fitted prefactors per qubit count and flag a flat trend.

    The scan is marked saturated when the relative spread of alpha across
    all rows stays within 5%.
    """
    rows = tuple((n, fits[n].alpha, fits[n].beta) for n in sorted(fits))
    saturated = False
    if len(rows) >= 2:
        alphas = np.array([a for _, a, _ in rows])
        saturated = float(alphas.max() - alphas.min()) <= _FLAT_TOL * float(alphas.max())
    return AlphaScanTable(rows=rows, saturated=saturated)
