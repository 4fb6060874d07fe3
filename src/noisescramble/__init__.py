"""noisescramble: how shallow parametrised circuits scramble local
depolarising gate noise into global white noise.

The package simulates noisy circuits as dense density matrices, measures
how close the output is to the global-depolarising (white noise) model via
the eigenvalue-uniformity and commutator-norm metrics, and fits the
power-law scaling of those metrics with circuit size.
"""

from .ansatz import (
    PARAMETER_MODES,
    build_hva_circuit,
    build_sel_circuit,
    build_sparse_hva_layer,
)
from .errors import (
    AnsatzError,
    ConfigError,
    DegenerateStateError,
    FitError,
    HamiltonianParseError,
    InvalidDistributionError,
    InvalidGateError,
    InvalidObservableError,
    InvalidRateError,
    InvalidSizeError,
    InvalidStateError,
    NoiseScrambleError,
    PoleError,
    ResourceError,
    ShapeError,
)
from .fitting import (
    AlphaScanTable,
    ScalingFit,
    ScalingSample,
    alpha_by_qubits,
    error_rate_prefactor,
    fit_scaling,
    scaling_model,
)
from .hamiltonians import (
    PauliString,
    PauliTermHamiltonian,
    build_tfi_hamiltonian,
    build_xxx_hamiltonian,
    load_hamiltonian_file,
)
from .harness import (
    EPSILON_PROXY,
    FAMILIES,
    ExperimentConfig,
    ResultRow,
    aggregate_and_fit,
    build_program,
    derive_seed,
    read_rows,
    run_sweep,
    write_rows,
)
from .metrics import (
    ArrowheadForm,
    GapBound,
    SpectralDecomposition,
    SpectralReport,
    WhiteNoiseState,
    arrowhead_transform,
    bias_bound,
    build_white_noise_state,
    commutator_matrix,
    compute_spectral_report,
    dominant_eigenvalue_gap,
    eigendecompose,
    eigenvalue_uniformity,
    fidelity,
    secular_residual,
    trace_distance,
    variance,
    white_noise_distance_identity,
)
from .simulator import (
    CircuitProgram,
    DensityMatrix,
    Gate,
    NoiseSpec,
    basis_statevector,
    run_circuit,
    run_ideal,
)

__version__ = "0.1.0"
