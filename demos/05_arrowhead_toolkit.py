"""The arrowhead form: reading a noisy state's spectrum analytically.

Any density matrix can be rotated so the ideal state sits in the corner
(carrying the fidelity F), bordered by non-negative couplings to the error
subspace. The eigenvalues are then roots of a scalar secular equation, and
the gap between the dominant eigenvalue and F is controlled by the
commutator norm. This script walks through the machinery on a worked
single-qubit example and then on a simulated noisy circuit.
"""

import numpy as np

from noisescramble import (
    DensityMatrix,
    arrowhead_transform,
    basis_statevector,
    build_sel_circuit,
    dominant_eigenvalue_gap,
    eigendecompose,
    fidelity,
    run_circuit,
    run_ideal,
    secular_residual,
)

# worked example: an equal mixture of |0><0| and |+><+|, ideal state |0>
plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
e0 = np.array([1, 0], dtype=complex)
rho = DensityMatrix(1, 0.5 * np.outer(e0, e0) + 0.5 * np.outer(plus, plus))

form = arrowhead_transform(rho, e0)
print("== worked 1-qubit example ==")
print(f"corner (fidelity) : {form.corner:.4f}")
print(f"border couplings  : {form.offdiag}")
print(f"error diagonal    : {form.diag}")

lam = eigendecompose(rho, e0).eigenvalues
print(f"eigenvalues       : {np.round(lam, 6)}")
for x in lam:
    print(f"  secular residual at {x:.6f}: {secular_residual(form, float(x)):+.1e}")

result = dominant_eigenvalue_gap(rho, e0)
print(f"gap lambda1 - F   : {result.gap:.5f}")
print(f"commutator bound  : {result.bound:.5f} (applicable: {result.bound_applicable})")
print("on this tiny, strongly biased state the bound's premises fail, and the")
print("implementation says so instead of asserting it")

# the same machinery on a simulated noisy circuit
print("\n== noisy 4-qubit circuit ==")
prog = build_sel_circuit(4, 3, seed=5).with_noise(5e-3)
noisy = run_circuit(prog, DensityMatrix.basis_state(4))
ideal = run_ideal(prog, basis_statevector(4))

form = arrowhead_transform(noisy, ideal)
lam = eigendecompose(noisy, ideal).eigenvalues
worst = max(abs(secular_residual(form, float(x))) for x in lam)
print(f"gates             : {prog.gate_count}")
print(f"fidelity          : {fidelity(noisy, ideal):.6f}")
print(f"dominant lambda1  : {lam[0]:.6f}")
print(f"worst |P(lambda)| : {worst:.1e}  (all {lam.size} eigenvalues are secular roots)")
result = dominant_eigenvalue_gap(noisy, ideal)
print(f"gap vs bound      : {result.gap:.2e} <= {result.bound:.2e} "
      f"(applicable: {result.bound_applicable})")
