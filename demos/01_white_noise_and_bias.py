"""White-noise states and why they are harmless: a guided tour.

A globally depolarised state mixes the ideal state with the maximally
mixed one. Its non-dominant spectrum is exactly flat, it commutes with the
ideal state, and any traceless expectation value can be recovered from it
by a single rescaling. This script verifies all three facts numerically
and then shows the bias bound at work on a state that is NOT white noise.
"""

import numpy as np

from noisescramble import (
    bias_bound,
    build_white_noise_state,
    compute_spectral_report,
    eigendecompose,
    eigenvalue_uniformity,
    fidelity,
    trace_distance,
)

rng = np.random.default_rng(1)

# a random 3-qubit pure state, mixed with Id/8 at weight eta
psi = rng.normal(size=8) + 1j * rng.normal(size=8)
psi /= np.linalg.norm(psi)
eta = 0.6
wn = build_white_noise_state(psi, eta)

print("== white-noise state, eta = 0.6, 3 qubits ==")
print(f"fidelity          : {fidelity(wn.data, psi):.6f}")
print(f"expected eta+(1-eta)/d: {eta + (1 - eta) / psi.size:.6f}")

decomposition = eigendecompose(wn.data, psi)
print(f"uniformity W      : {eigenvalue_uniformity(decomposition):.2e}  (exactly flat spectrum)")
absolute = compute_spectral_report(wn.data, psi).commutator_abs
print(f"commutator norm   : {absolute:.2e}  (ideal state is an eigenvector)")

# expectation-value rescaling: tr[O rho_wn]/eta recovers <psi|O|psi> exactly
z0 = np.kron(np.diag([1.0, -1.0]), np.eye(4)).astype(complex)
ideal = float(np.vdot(psi, z0 @ psi).real)
rescaled = float(np.trace(z0 @ wn.data).real) / eta
print(f"ideal <Z0>        : {ideal:+.6f}")
print(f"rescaled noisy    : {rescaled:+.6f}  (bias {abs(rescaled - ideal):.2e})")

# now a state that is genuinely not white noise: biased, but boundedly so
print("\n== non-white state: rescaling is biased, the bound still holds ==")
g = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
rho_err = g @ g.conj().T
rho_err /= np.trace(rho_err).real
rho = eta * np.outer(psi, psi.conj()) + (1 - eta) * rho_err

bias, bound = bias_bound(z0, rho, psi, eta)
print(f"bias              : {bias:+.6f}")
print(f"bound             : {bound:.6f}")
print(f"trace dist to wn  : {trace_distance(rho, wn.data):.6f}")
assert abs(bias) <= bound
print("bias within the trace-distance bound, as guaranteed")
