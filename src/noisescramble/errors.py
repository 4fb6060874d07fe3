"""Exception types shared across the package."""


class NoiseScrambleError(Exception):
    """Base class for every error raised by this package."""


class InvalidGateError(NoiseScrambleError):
    """Gate definition is malformed or references an out-of-range qubit."""


class InvalidRateError(NoiseScrambleError):
    """A probability parameter lies outside [0, 1]."""


class ShapeError(NoiseScrambleError):
    """Operands have incompatible dimensions."""


class InvalidSizeError(NoiseScrambleError):
    """A size parameter (qubit count, term count, ...) is too small."""


class InvalidStateError(NoiseScrambleError):
    """A matrix or vector does not satisfy the quantum-state invariants."""


class DegenerateStateError(NoiseScrambleError):
    """The state is (numerically) pure, so a relative metric is undefined."""


class InvalidObservableError(NoiseScrambleError):
    """The observable violates a precondition, e.g. it is not traceless."""


class InvalidDistributionError(NoiseScrambleError):
    """Sampling weights do not form a usable probability distribution."""


class HamiltonianParseError(NoiseScrambleError):
    """A Hamiltonian term file could not be parsed."""


class AnsatzError(NoiseScrambleError):
    """An ansatz specification cannot be realised as a circuit."""


class PoleError(NoiseScrambleError):
    """Evaluation point coincides with a pole of the secular function."""


class FitError(NoiseScrambleError):
    """The scaling fit has too few or unusable samples."""


class ResourceError(NoiseScrambleError):
    """The requested simulation would exceed the dense-matrix size limits."""


class ConfigError(NoiseScrambleError):
    """An experiment configuration file is missing fields or malformed."""
