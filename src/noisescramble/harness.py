"""Sweep orchestration: grids over (family, width, error rate, depth),
seed averaging, metric computation and CSV persistence.

Sweeps are deterministic: the seed of every row is a stable hash of the
configuration seed and the row's grid coordinates, so partial re-runs
reproduce identical numbers. Rows are written incrementally in a fixed
order; only the wall-time column varies between runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .ansatz import PARAMETER_MODES, build_hva_circuit, build_sel_circuit
from .errors import ConfigError, FitError, ResourceError, ShapeError
from .fitting import ScalingFit, ScalingSample, fit_scaling
from .hamiltonians import (
    PauliTermHamiltonian,
    build_tfi_hamiltonian,
    build_xxx_hamiltonian,
    load_hamiltonian_file,
)
from .metrics import compute_spectral_report
from .simulator import CircuitProgram, basis_statevector, run_circuit, run_ideal

FAMILIES = ("SEL", "HVA-XXX", "HVA-TFI", "HVA-TFI-RZ", "HVA-SPARSE")

CONFIG_SCHEMA_VERSION = 1
CSV_SCHEMA_VERSION = 1

# Dense density matrices only; 2^(2N) complex entries caps the width.
MAX_QUBITS = 12

# Stand-in for the zero-error limit of W and C, which a config's epsilon of 0
# means: their O(epsilon) bias there is below 1e-5 relative, and the
# spectrum is still well above float noise.
EPSILON_PROXY = 1e-8

# Types named by the annotation text of config and row fields, like "int".
_KINDS = {"str": str, "int": int, "float": float}


def read_json_object(path) -> dict:
    """The JSON object stored in a config file, or ConfigError if it holds anything else."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return payload


def _config_value(source: str, field, value):
    """A config value checked against its field's annotation text, like "tuple[int, ...]".

    Numbers exclude bools and, for an int, non-integral floats; a "| None"
    field also takes null. Anything else is a ConfigError naming the field.
    """
    kind, _, nullable = field.type.partition(" | ")
    if nullable and value is None:
        return None
    item = kind.removeprefix("tuple[").removesuffix(", ...]")
    if item == kind:
        return _config_item(source, field.name, value, kind)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{source}: {field.name} must be a list, got {value!r}")
    return tuple(_config_item(source, field.name, v, item) for v in value)


def _config_item(source: str, name: str, value, kind: str):
    if kind == "str":
        valid = isinstance(value, str)
    else:
        valid = isinstance(value, (int, float)) and not isinstance(value, bool)
        if valid and kind == "int" and isinstance(value, float):
            valid = value.is_integer()
    if not valid:
        raise ConfigError(f"{source}: {name} must hold {kind} values, got {value!r}")
    return _KINDS[kind](value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a circuit family crossed with error rates, depths and seeds."""

    family: str
    n_qubits: int
    epsilons: tuple[float, ...]
    layers: tuple[int, ...]
    parameter_mode: str = "random"
    seeds: tuple[int, ...] = tuple(range(10))
    seed: int = 0
    sparse_terms_per_layer: int = 100
    hamiltonian_file: str | None = None
    out: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.parameter_mode not in PARAMETER_MODES:
            raise ConfigError(f"unknown parameter mode {self.parameter_mode!r}")
        if self.family == "SEL" and self.parameter_mode != "random":
            raise ConfigError("parameter_mode must be 'random' for SEL, which has no vqe schedule")
        if self.sparse_terms_per_layer < 1:
            raise ConfigError(
                f"sparse_terms_per_layer must be at least 1, got {self.sparse_terms_per_layer}"
            )
        if not self.epsilons or not self.layers or not self.seeds:
            raise ConfigError("epsilons, layers and seeds must all be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if any(not (0.0 <= e <= 1.0) for e in self.epsilons):
            raise ConfigError("every epsilon must lie in [0, 1]")
        epsilons = dict.fromkeys(EPSILON_PROXY if e == 0.0 else e for e in self.epsilons)
        object.__setattr__(self, "epsilons", tuple(epsilons))
        if any(n < 1 for n in self.layers):
            raise ConfigError("every layer count must be at least 1")
        if self.family == "HVA-SPARSE" and self.hamiltonian_file is None:
            raise ConfigError("the sparse family needs a hamiltonian_file")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json_object(path), source=str(path))

    @classmethod
    def from_dict(cls, payload: dict, source: str = "config") -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError(f"{source}: expected a JSON object")
        version = payload.get("schema_version")
        if version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(
                f"{source}: schema_version {version!r} unsupported, expected {CONFIG_SCHEMA_VERSION}"
            )
        for field in ("family", "n_qubits", "epsilons", "layers"):
            if field not in payload:
                raise ConfigError(f"{source}: missing field {field!r}")
        by_name = {field.name: field for field in fields(cls)}
        values = {key: value for key, value in payload.items() if key != "schema_version"}
        if unknown := sorted(values.keys() - by_name.keys()):
            raise ConfigError(f"{source}: unknown fields {unknown}")
        return cls(**{key: _config_value(source, by_name[key], v) for key, v in values.items()})


@dataclass(frozen=True)
class ResultRow:
    """Metrics of one simulated grid point for one seed.

    The fields, in order, are the rows CSV columns named in ``CSV_HEADER``.
    """

    family: str
    n_qubits: int
    epsilon: float
    nu: int
    seed: int
    uniformity: float | None
    commutator_rel: float | None
    commutator_abs: float
    fidelity: float
    lambda1: float
    trace_dist_wn: float
    eta_est: float
    wall_time_seconds: float
    reason: str | None = None


_CSV_RENAMES = {
    "uniformity": "W",
    "commutator_rel": "C_rel",
    "commutator_abs": "C_abs",
    "fidelity": "F",
}
_ROW_FIELDS = fields(ResultRow)
CSV_HEADER = tuple(_CSV_RENAMES.get(field.name, field.name) for field in _ROW_FIELDS)


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary labelled grid coordinates."""
    text = "|".join(
        format(p, ".17g") if isinstance(p, float) else str(p) for p in parts
    )
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _no_error_probability(epsilon: float, nu: int) -> float:
    if epsilon >= 1.0:
        return 0.0
    return math.exp(nu * math.log1p(-epsilon))


def build_program(
    config: ExperimentConfig,
    n_layers: int,
    ansatz_seed: int,
    hamiltonian_seed: int,
    file_hamiltonian: PauliTermHamiltonian | None = None,
) -> CircuitProgram:
    """Construct the (noise-free) circuit for one grid point.

    The one place that maps a family to its Hamiltonians and builder call.
    """
    if config.family == "SEL":
        return build_sel_circuit(config.n_qubits, n_layers, ansatz_seed)
    if config.family == "HVA-XXX":
        h0, h1 = build_xxx_hamiltonian(config.n_qubits, hamiltonian_seed)
    elif config.family in ("HVA-TFI", "HVA-TFI-RZ"):
        h0, h1 = build_tfi_hamiltonian(config.n_qubits, hamiltonian_seed)
    else:  # HVA-SPARSE
        if file_hamiltonian is None:
            raise ConfigError("the sparse family needs a hamiltonian_file")
        if file_hamiltonian.n_qubits != config.n_qubits:
            raise ShapeError(
                f"hamiltonian file is on {file_hamiltonian.n_qubits} qubits, config says {config.n_qubits}"
            )
        h0 = file_hamiltonian.diagonal_part()
        h1 = file_hamiltonian.offdiagonal_part()
    return build_hva_circuit(
        h0, h1, n_layers, config.parameter_mode, ansatz_seed,
        sparse_terms=config.sparse_terms_per_layer if config.family == "HVA-SPARSE" else None,
        rz_layer=config.family == "HVA-TFI-RZ",
    )


def _compute_row(
    config: ExperimentConfig,
    epsilon: float,
    layer_index: int,
    n_layers: int,
    seed_index: int,
    file_hamiltonian: PauliTermHamiltonian | None,
) -> ResultRow:
    row_seed = derive_seed(
        config.seed, config.family, config.n_qubits, epsilon, layer_index, seed_index
    )
    program = build_program(
        config,
        n_layers,
        ansatz_seed=derive_seed(row_seed, "ansatz"),
        hamiltonian_seed=derive_seed(row_seed, "hamiltonian"),
        file_hamiltonian=file_hamiltonian,
    ).with_noise(epsilon)
    started = time.perf_counter()
    rho = run_circuit(program)
    psi = run_ideal(program, basis_statevector(config.n_qubits))
    eta_est = _no_error_probability(epsilon, program.gate_count)
    report = compute_spectral_report(rho, psi, eta_estimate=eta_est)
    elapsed = time.perf_counter() - started
    return ResultRow(
        family=config.family,
        n_qubits=config.n_qubits,
        epsilon=epsilon,
        nu=program.gate_count,
        seed=seed_index,
        uniformity=report.uniformity,
        commutator_rel=report.commutator_rel,
        commutator_abs=report.commutator_abs,
        fidelity=report.fidelity,
        lambda1=report.lambda1,
        trace_dist_wn=report.trace_dist_wn,
        eta_est=eta_est,
        wall_time_seconds=elapsed,
        reason=report.degenerate_reason,
    )


def run_sweep(config: ExperimentConfig, out_path=None) -> list[ResultRow]:
    """Simulate every (epsilon, depth, seed) grid point of a configuration.

    Rows are computed and returned in grid order and, when ``out_path`` is
    given, also written to that CSV as soon as each is done.
    """
    if config.n_qubits > MAX_QUBITS:
        raise ResourceError(
            f"{config.n_qubits} qubits needs a dense {4**config.n_qubits}-entry matrix; "
            f"the dense backend is capped at {MAX_QUBITS} qubits"
        )
    file_hamiltonian = None
    if config.family == "HVA-SPARSE":
        file_hamiltonian = load_hamiltonian_file(config.hamiltonian_file)
    grid = (
        _compute_row(config, epsilon, layer_index, n_layers, seed_index, file_hamiltonian)
        for epsilon in config.epsilons
        for layer_index, n_layers in enumerate(config.layers)
        for seed_index in config.seeds
    )
    return list(grid) if out_path is None else write_rows(out_path, grid)


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_field(field, text: str, path, column: str):
    """Inverse of ``_format_field``; ``field.type`` is annotation text, like "float | None"."""
    kind, _, nullable = field.type.partition(" | ")
    if nullable and not text:
        return None
    try:
        return _KINDS[kind](text)
    except ValueError:
        raise ConfigError(f"{path}: column {column}: {text!r} is not a valid {kind}") from None


def format_row(row: ResultRow) -> str:
    return ",".join(_format_field(getattr(row, field.name)) for field in _ROW_FIELDS)


def write_rows(path, rows) -> list[ResultRow]:
    """Write a rows CSV, flushing the header and then each row as it arrives; return the rows."""
    written = []
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# noisescramble-rows schema_version={CSV_SCHEMA_VERSION}\n")
        handle.write(",".join(CSV_HEADER) + "\n")
        handle.flush()
        for row in rows:
            handle.write(format_row(row) + "\n")
            handle.flush()
            written.append(row)
    return written


def read_rows(path) -> list[ResultRow]:
    """Parse a rows CSV written by this package back into ResultRow objects."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [line for line in lines if line and not line.startswith("#")]
    if not body:
        raise ConfigError(f"{path}: no header row found")
    header = tuple(body[0].split(","))
    if header != CSV_HEADER:
        raise ConfigError(f"{path}: unexpected header {header!r}")
    rows = []
    for line in body[1:]:
        texts = line.split(",")
        if len(texts) != len(CSV_HEADER):
            raise ConfigError(f"{path}: row has {len(texts)} fields, expected {len(CSV_HEADER)}")
        parsed = (
            _parse_field(field, text, path, column)
            for field, column, text in zip(_ROW_FIELDS, CSV_HEADER, texts)
        )
        rows.append(ResultRow(*parsed))
    return rows


def aggregate_and_fit(rows, metric_kind: str = "W") -> ScalingFit:
    """Seed-average one metric per circuit size, then fit the scaling model.

    The rows must all belong to a single (family, n_qubits, epsilon)
    configuration; rows whose metric is null (a numerically pure state, at
    a rate too small to move it) are skipped. The fit's samples are the
    seed means, by ascending size, with their standard errors.
    """
    rows = list(rows)
    if not rows:
        raise FitError("no rows to aggregate")
    keys = {(r.family, r.n_qubits, r.epsilon) for r in rows}
    if len(keys) != 1:
        raise FitError(f"rows span {len(keys)} configurations, expected exactly one")
    epsilon = rows[0].epsilon
    attribute = {"W": "uniformity", "C": "commutator_rel"}.get(metric_kind)
    if attribute is None:
        raise FitError(f"unknown metric kind {metric_kind!r}, expected 'W' or 'C'")
    by_nu: dict[int, list[float]] = {}
    for row in rows:
        value = getattr(row, attribute)
        if value is not None:
            by_nu.setdefault(row.nu, []).append(value)
    samples = []
    for nu in sorted(by_nu):
        values = by_nu[nu]
        mean = sum(values) / len(values)
        if len(values) > 1:
            spread = math.sqrt(
                sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            )
            stderr = spread / math.sqrt(len(values))
        else:
            stderr = 0.0
        samples.append(ScalingSample(nu, epsilon * nu, mean, stderr))
    return fit_scaling(samples)

