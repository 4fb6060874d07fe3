"""The same circuit, two parameter regimes, two very different noise shapes.

A Hamiltonian-variational circuit for a Heisenberg chain is simulated at a
per-gate error rate of 1e-3, once with random gate parameters and once at
the adiabatic (VQE) schedule that approaches the ground state. With random
parameters the eigenvalue uniformity W decays with circuit size; at the
VQE parameters the state stays far from white noise, yet the commutator
norm stays small in both regimes, so purification-based mitigation keeps
working where the white-noise rescaling breaks down.

Runtime: about a minute.
"""

import numpy as np

from noisescramble import ExperimentConfig, run_sweep

print("        |   random parameters   |     VQE parameters")
print(" layers |      W         C      |      W         C")
for layers in (2, 4, 8, 16, 32):
    values = {}
    for mode in ("random", "vqe"):
        config = ExperimentConfig(
            family="HVA-XXX",
            n_qubits=6,
            epsilons=(1e-3,),
            layers=(layers,),
            parameter_mode=mode,
            seeds=tuple(range(6)),
            seed=3,
        )
        rows = run_sweep(config)
        values[mode] = (
            float(np.mean([r.uniformity for r in rows])),
            float(np.mean([r.commutator_rel for r in rows])),
        )
    rw, rc = values["random"]
    vw, vc = values["vqe"]
    print(f" {layers:6d} | {rw:8.4f}  {rc:8.5f} | {vw:8.4f}  {vc:8.5f}")

print("\nrandom parameters scramble noise (W falls); the VQE schedule does not,")
print("but the commutator norm stays an order of magnitude below W in both regimes")
