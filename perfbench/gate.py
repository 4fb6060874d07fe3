"""Correctness gate for sweep rows.

Every row is checked against invariants that hold for any seed; rows of the
default seed are also compared with the reference rows under reference/.
Tolerances come from the float floor, u = 2^-52, through one budget

    delta(nu, d) = 16 * sqrt(d) * (nu + d) * u

on the trace norm of the difference between the output states of two exact
implementations of the same noisy circuit (d = 2^n). Each of the nu gate
applications rounds every entry by about 2^k u <= 16 u of the state's scale
for a k <= 4 qubit gate; in trace norm that is at most sqrt(d) times the
Frobenius error of a unit-trace state, and the eigensolvers add a backward
error of order d u. On the workloads delta is 7e-12 to 1.5e-10: far below
what a wrong error rate moves (1.5x epsilon shifts F by about nu eps / 2,
at least 5e-7), and far above what a reordered exact kernel moves (|d rho|
of 1e-16 to 1e-14 per entry).

From delta, by Weyl and Lidskii (sum |d lambda_k| <= ||d rho||_1):

* F, lambda1: |change| <= delta.
* trace_dist_wn: both arguments move by <= 2 delta, so <= 4 delta.
* C_abs: ||[psi psi^+, d rho]||_1 <= 2 delta, plus 4 d u for the residual
  route 2 sqrt(||rho psi - F psi||^2), whose rounding is absolute, not
  relative to C_abs.
* W, C_rel divide by g = 1 - lambda1, which at eps = 1e-8 is about 1e-6:
  W moves by <= 2 delta / g (the spectrum and its renormalisation) and
  C_rel by <= (tol(C_abs) + C_rel delta) / g.
* eta_est = exp(nu log1p(-eps)) against (1 - eps)^nu differs by the
  rounding of 1 - eps amplified nu times: relative 4 nu u.
"""

from __future__ import annotations

import math

U = 2.0**-52

# The rows' columns at the reference commit, wall time excepted.
COLUMNS = (
    "family",
    "n_qubits",
    "epsilon",
    "nu",
    "seed",
    "uniformity",
    "commutator_rel",
    "commutator_abs",
    "fidelity",
    "lambda1",
    "trace_dist_wn",
    "eta_est",
    "reason",
)
_EXACT = ("family", "n_qubits", "epsilon", "nu", "seed", "reason")


def row_fields(row) -> dict:
    """The gated columns of a ``ResultRow``."""
    return {column: getattr(row, column) for column in COLUMNS}


def delta(nu: int, n_qubits: int) -> float:
    d = 2**n_qubits
    return 16.0 * math.sqrt(d) * (nu + d) * U


def no_error_probability(epsilon: float, nu: int) -> float:
    if epsilon == 0.0:
        return 1.0
    if epsilon >= 1.0:
        return 0.0
    return math.exp(nu * math.log1p(-epsilon))


def invariant_failures(row: dict, expected_nu: int) -> list[str]:
    """Checks that hold for every seed."""
    failures = []
    nu, epsilon = row["nu"], row["epsilon"]
    if nu != expected_nu:
        failures.append(f"nu {nu} != {expected_nu}")
    eta = no_error_probability(epsilon, nu)
    if not abs(row["eta_est"] - eta) <= 4 * nu * U * eta:
        failures.append(f"eta_est {row['eta_est']!r} != {eta!r}")
    tol = delta(nu, row["n_qubits"])
    f, lam1 = row["fidelity"], row["lambda1"]
    if not eta - tol <= f <= lam1 + tol:
        failures.append(f"F={f!r} outside [eta={eta!r}, lambda1={lam1!r}] +- {tol:.1e}")
    w, c_rel = row["uniformity"], row["commutator_rel"]
    if w is None or not 0.0 <= w <= 1.0:
        failures.append(f"W={w!r} outside [0, 1]")
    if c_rel is None or not c_rel >= 0.0:
        failures.append(f"C_rel={c_rel!r} not >= 0")
    return failures


def reference_ratios(row: dict, ref: dict) -> dict:
    """|row - ref| / tolerance for every float column; above 1 fails."""
    tol = delta(ref["nu"], ref["n_qubits"])
    gap = 1.0 - ref["lambda1"]
    tol_c_abs = 2 * tol + 4 * 2 ** ref["n_qubits"] * U
    tolerances = {
        "fidelity": tol,
        "lambda1": tol,
        "trace_dist_wn": 4 * tol,
        "commutator_abs": tol_c_abs,
        "uniformity": 2 * tol / gap,
        "commutator_rel": (tol_c_abs + ref["commutator_rel"] * tol) / gap,
    }
    ratios = {}
    for column, bound in tolerances.items():
        value = row[column]
        ratios[column] = math.inf if value is None else abs(value - ref[column]) / bound
    return ratios


def failures(row: dict, expected_nu: int, ref: dict | None = None) -> list[str]:
    """Every reason the row fails the gate; empty when it passes."""
    found = invariant_failures(row, expected_nu)
    if ref is not None:
        for column in _EXACT:
            if row[column] != ref[column]:
                found.append(f"{column} {row[column]!r} != reference {ref[column]!r}")
        for column, ratio in reference_ratios(row, ref).items():
            if not ratio <= 1.0:
                found.append(f"{column} off reference by {ratio:.3g}x its tolerance")
    return found
