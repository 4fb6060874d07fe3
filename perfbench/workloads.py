"""The benchmark's workloads: fixed sweep grids over the public harness.

Each workload is one ``ExperimentConfig`` grid with one circuit seed per
grid point; the benchmark's ``--seed`` becomes the config ``seed``, from
which the harness derives every circuit. The grids stress different layers
(see the comments below), so a change to one layer should move one
workload and leave the others flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

# The seed whose rows are kept under reference/ and compared field by field.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # Gate count of a grid point with L layers is nu_prep + nu_per_layer * L.
    nu_prep: int
    nu_per_layer: int

    def expected_nu(self, n_layers: int) -> int:
        return self.nu_prep + self.nu_per_layer * n_layers


WORKLOADS = {
    w.name: w
    for w in (
        # The reference sweep: the noisy kernel is nearly all the work, so a
        # kernel or fusion change shows in full.
        Workload(
            name="sel7-deep",
            config=dict(
                family="SEL",
                n_qubits=7,
                epsilons=(1e-8,),
                layers=(4, 8, 16, 32, 64, 128),
                parameter_mode="random",
                seeds=(0,),
            ),
            nu_prep=0,
            nu_per_layer=4 * 7,
        ),
        # A 1024x1024 state with a short circuit: the spectral report and the
        # memory peak dominate, and the kernel works far beyond cache.
        Workload(
            name="sel10-wide",
            config=dict(
                family="SEL",
                n_qubits=10,
                epsilons=(1e-3,),
                layers=(1,),
                parameter_mode="random",
                seeds=(0,),
            ),
            nu_prep=0,
            nu_per_layer=4 * 10,
        ),
        # A 16x16 state with 3-4 qubit Pauli exponentials: per-gate Python
        # overhead, gate matrices and the ideal pass dominate.
        Workload(
            name="sparse4-mol",
            config=dict(
                family="HVA-SPARSE",
                n_qubits=4,
                epsilons=(1e-7,),
                layers=(4, 8, 16, 32, 64),
                parameter_mode="random",
                seeds=(0,),
                sparse_terms_per_layer=100,
                hamiltonian_file=str(DATA_DIR / "toy_molecule_4q.txt"),
            ),
            # Two Ry(pi) prepare the diagonal ground state; each layer has the
            # file's 10 non-identity diagonal terms plus 100 sampled terms.
            nu_prep=2,
            nu_per_layer=10 + 100,
        ),
    )
}
