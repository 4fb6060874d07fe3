import dataclasses
import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

from noisescramble import (
    ConfigError,
    DensityMatrix,
    EPSILON_PROXY,
    ExperimentConfig,
    FitError,
    Gate,
    ResourceError,
    ResultRow,
    aggregate_and_fit,
    basis_statevector,
    build_program,
    build_white_noise_state,
    compute_spectral_report,
    derive_seed,
    eigenvalue_uniformity,
    load_hamiltonian_file,
    read_rows,
    run_circuit,
    run_ideal,
    run_sweep,
    scaling_model,
    trace_distance,
    write_rows,
)
from noisescramble import metrics, simulator
from noisescramble.cli import build_parser
from noisescramble.cli import main as cli_main
from noisescramble.harness import CONFIG_SCHEMA_VERSION

from .conftest import REPO_ROOT
from .oracles import kraus_run


PYTHON_CONFIG = dict(family="SEL", n_qubits=3, epsilons=(0.01,), layers=(1,))


def small_config(**overrides):
    base = dict(
        family="SEL",
        n_qubits=3,
        epsilons=(0.01,),
        layers=(1, 2, 4),
        parameter_mode="random",
        seeds=(0, 1, 2),
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def config_payload(config):
    """The JSON object of a config file that loads back as ``config``."""
    return {"schema_version": CONFIG_SCHEMA_VERSION, **dataclasses.asdict(config)}


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_payload(config)))
        assert ExperimentConfig.from_json(path) == config

    def test_schema_version_enforced(self, tmp_path):
        payload = config_payload(small_config())
        payload["schema_version"] = 99
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 1, "family": "SEL"}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError):
            small_config(seeds=(0, 0, 1))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            small_config(family="QAOA")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_qubits", 4.7),
            ("n_qubits", True),
            ("layers", [2.9, True]),
            ("layers", [2, True]),
            ("seeds", [0, 1.5]),
            ("seed", True),
            ("seed", 0.5),
            ("sparse_terms_per_layer", 2.5),
            ("epsilons", [True]),
            ("epsilons", ["0.5"]),
            ("epsilons", 0.5),
            ("layers", "12"),
            ("seeds", "01"),
            ("n_qubits", "5"),
            ("seed", "7"),
            ("sparse_terms_per_layer", None),
            ("hamiltonian_file", 5),
            ("out", True),
            ("out", 7),
            ("parameter_mode", 1),
            ("family", None),
            # well-typed but out of range; the payload's family is SEL,
            # which has no vqe schedule
            ("sparse_terms_per_layer", 0),
            ("parameter_mode", "vqe"),
            # fields the config does not have, which would be silently dropped
            ("seedz", [0, 1]),
            ("sparse_terms", 100),
            ("n_qubits_list", [3]),
        ],
    )
    def test_non_integers_rejected(self, field, value):
        payload = config_payload(small_config())
        payload[field] = value
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict(payload)

    def test_zero_epsilon_is_the_proxy_once(self):
        config = ExperimentConfig("SEL", 3, epsilons=(0.0, 1e-8, 0.01), layers=(1,))
        assert config.epsilons == (EPSILON_PROXY, 0.01)
        config = dataclasses.replace(config, epsilons=(0.01, 0.0, 0.01))
        assert config.epsilons == (0.01, EPSILON_PROXY)

    def test_integral_floats_accepted(self):
        payload = config_payload(small_config())
        payload.update(n_qubits=3.0, layers=[1.0, 2])
        config = ExperimentConfig.from_dict(payload)
        assert config.n_qubits == 3 and config.layers == (1, 2)
        assert all(type(v) is int for v in (config.n_qubits, *config.layers))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_qubits", 3.5),
            ("layers", (1.5,)),
            ("seeds", (0.5,)),
            ("n_qubits", True),
            ("seeds", (np.bool_(True),)),
            ("n_qubits", 0),
        ],
    )
    def test_config_built_in_python_is_typed(self, field, value):
        # the same checks as a config file, made before run_sweep sees the config
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{**PYTHON_CONFIG, field: value})

    def test_numpy_scalars_accepted(self):
        layers = (np.int32(1), np.float64(2.0))
        config = ExperimentConfig("SEL", np.int64(3), [np.float32(0.5)], layers, seeds=(np.uint8(0),))
        assert config == ExperimentConfig("SEL", 3, (0.5,), (1, 2), seeds=(0,))
        assert all(type(v) is int for v in (config.n_qubits, *config.layers, *config.seeds))
        assert type(config.epsilons[0]) is float

    def test_type_errors_from_a_file_name_the_file(self):
        payload = config_payload(small_config())
        payload["layers"] = [1.5]
        with pytest.raises(ConfigError, match=r"^scan\.json: layers"):
            ExperimentConfig.from_dict(payload, source="scan.json")


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "SEL", 6, 0.01, 0, 0) == derive_seed(1, "SEL", 6, 0.01, 0, 0)

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, "SEL", 6, 0.01, 0, 0)
        assert derive_seed(2, "SEL", 6, 0.01, 0, 0) != base
        assert derive_seed(1, "SEL", 6, 0.02, 0, 0) != base
        assert derive_seed(1, "SEL", 6, 0.01, 1, 0) != base


class TestRunSweep:
    def test_row_count(self):
        rows = run_sweep(small_config())
        assert len(rows) == 1 * 3 * 3

    def test_noiseless_rows_are_null_with_reason(self):
        # 1 - 1e-300 rounds to 1, so rho stays exactly pure
        rows = run_sweep(small_config(epsilons=(1e-300,), layers=(1,), seeds=(0,)))
        (row,) = rows
        assert row.uniformity is None
        assert row.commutator_rel is None
        assert row.reason == "noiseless"
        assert row.eta_est == 1.0

    def test_deterministic_apart_from_wall_time(self):
        rows_a = run_sweep(small_config())
        rows_b = run_sweep(small_config())
        for a, b in zip(rows_a, rows_b):
            assert a.uniformity == b.uniformity
            assert a.fidelity == b.fidelity
            assert a.commutator_abs == b.commutator_abs
            assert a.nu == b.nu

    def test_infeasible_width_rejected_before_simulation(self):
        with pytest.raises(ResourceError):
            run_sweep(small_config(n_qubits=13))

    def test_sparse_family_requires_file(self):
        with pytest.raises(ConfigError, match="hamiltonian_file"):
            small_config(family="HVA-SPARSE", n_qubits=4)

    def test_library_rows_equal_cli_rows(self, tmp_path):
        payload = config_payload(small_config(layers=(1, 2), seeds=(0,)))
        payload["epsilons"] = [0.0, 0.01, 0.0]
        config_path, out = tmp_path / "config.json", tmp_path / "rows.csv"
        config_path.write_text(json.dumps(payload))
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
        library, cli = run_sweep(ExperimentConfig.from_json(config_path)), read_rows(out)
        assert [row.epsilon for row in library] == [EPSILON_PROXY] * 2 + [0.01] * 2
        assert [dataclasses.replace(row, wall_time_seconds=0.0) for row in library] == [
            dataclasses.replace(row, wall_time_seconds=0.0) for row in cli
        ]

    def test_sparse_family_with_bundled_file(self):
        config = small_config(
            family="HVA-SPARSE",
            n_qubits=4,
            layers=(1,),
            seeds=(0,),
            sparse_terms_per_layer=20,
            hamiltonian_file=str(REPO_ROOT / "demos" / "data" / "toy_molecule_4q.txt"),
        )
        (row,) = run_sweep(config)
        assert row.nu >= 20

    def test_streaming_write(self, tmp_path):
        out = tmp_path / "rows.csv"
        rows = run_sweep(small_config(layers=(1,), seeds=(0, 1)), out_path=out)
        parsed = read_rows(out)
        assert len(parsed) == len(rows) == 2
        assert parsed[0].uniformity == pytest.approx(rows[0].uniformity)


def _grid_programs(config):
    """(epsilon, seed index, noisy program) of each sweep row, in run_sweep's order."""
    file_hamiltonian = None
    if config.hamiltonian_file is not None:
        file_hamiltonian = load_hamiltonian_file(config.hamiltonian_file)
    for epsilon in config.epsilons:
        for layer_index, n_layers in enumerate(config.layers):
            for seed_index in config.seeds:
                row_seed = derive_seed(
                    config.seed, config.family, config.n_qubits, epsilon, layer_index, seed_index
                )
                program = build_program(
                    config,
                    n_layers,
                    ansatz_seed=derive_seed(row_seed, "ansatz"),
                    hamiltonian_seed=derive_seed(row_seed, "hamiltonian"),
                    file_hamiltonian=file_hamiltonian,
                )
                yield epsilon, seed_index, program.with_noise(epsilon)


class TestOneEvolutionPass:
    """run_sweep's rows equal the calls made one by one, and a row builds no
    gate matrix and checks rho once."""

    @staticmethod
    def _rows_from_separate_calls(config):
        """The sweep's rows, from run_circuit, run_ideal and the report called one by one."""
        n = config.n_qubits
        rows = []
        for epsilon, seed_index, program in _grid_programs(config):
            rho = run_circuit(program, DensityMatrix.basis_state(n))
            psi = run_ideal(program, basis_statevector(n))
            eta = math.exp(program.gate_count * math.log1p(-epsilon))
            report = compute_spectral_report(rho, psi, eta_estimate=eta)
            rows.append(
                ResultRow(
                    config.family, n, epsilon, program.gate_count, seed_index,
                    report.uniformity, report.commutator_rel, report.commutator_abs,
                    report.fidelity, report.lambda1, report.trace_dist_wn, eta,
                    0.0, report.degenerate_reason,
                )
            )
        return rows

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(
                family="HVA-SPARSE",
                n_qubits=4,
                layers=(1, 3),
                sparse_terms_per_layer=30,
                hamiltonian_file=str(REPO_ROOT / "perfbench" / "data" / "toy_molecule_4q.txt"),
            ),
            dict(family="SEL", n_qubits=4, layers=(2, 5)),
        ],
        ids=["sparse4", "sel4"],
    )
    def test_rows_equal_separate_calls_exactly(self, overrides):
        config = small_config(epsilons=(1e-8, 1e-3), seeds=(0, 1), **overrides)
        if config.family == "HVA-SPARSE":
            program = build_program(
                config, 1, 0, 0, load_hamiltonian_file(config.hamiltonian_file)
            )
            assert {3, 4} <= {len(gate.qubits) for gate in program.gates}
        rows = [dataclasses.replace(row, wall_time_seconds=0.0) for row in run_sweep(config)]
        expected = self._rows_from_separate_calls(config)
        assert len(rows) == 2 * 2 * 2
        assert rows == expected

    @staticmethod
    def _sparse_row_config():
        return small_config(
            family="HVA-SPARSE",
            n_qubits=4,
            layers=(2,),
            seeds=(0,),
            sparse_terms_per_layer=30,
            hamiltonian_file=str(REPO_ROOT / "perfbench" / "data" / "toy_molecule_4q.txt"),
        )

    def test_rows_equal_the_public_report_across_row_blocks(self):
        # at n=9 the row's report builds rho - rho_wn in rho's buffer in 32
        # row blocks; the public report builds it in a copy
        config = small_config(n_qubits=9, epsilons=(1e-3, 1e-8), layers=(1,), seeds=(0,))
        rows = run_sweep(config)
        assert len(rows) == 2
        for row, (_, _, program) in zip(rows, _grid_programs(config)):
            psi = run_ideal(program, basis_statevector(9))
            report = compute_spectral_report(run_circuit(program), psi)
            names = ("fidelity", "lambda1", "uniformity", "commutator_abs", "commutator_rel")
            for name in (*names, "trace_dist_wn"):
                assert getattr(row, name) == getattr(report, name), name
            assert row.reason == report.degenerate_reason

    @pytest.mark.parametrize("eps", [1e-3, 1e-8])
    def test_wide_white_noise_distance_matches_the_white_noise_state(self, eps):
        # n=10, the two-stage route, against rho_wn built whole and subtracted
        # and against scipy's spectrum of rho
        config = small_config(n_qubits=10, epsilons=(eps,), layers=(1,), seeds=(0,))
        (row,) = run_sweep(config)
        ((_, _, program),) = _grid_programs(config)
        rho = run_circuit(program)
        white = build_white_noise_state(run_ideal(program, basis_statevector(10)), row.lambda1)
        assert row.trace_dist_wn == pytest.approx(trace_distance(rho, white.data), rel=1e-10)
        lam = scipy.linalg.eigvalsh(rho.data)[::-1]
        assert row.lambda1 == pytest.approx(lam[0], rel=1e-10)
        # W sums d - 1 eigenvalues over 1 - lambda_1 (3e-7 at eps 1e-8), so a
        # rounding of eps_mach in each moves it by up to this floor; there both
        # reductions read W 4.5e-9 off scipy's, and rel 1e-10 holds at eps 1e-3
        floor = 0.5 * 1024 * np.finfo(float).eps / (1.0 - row.lambda1)
        assert row.uniformity == pytest.approx(eigenvalue_uniformity(lam), rel=1e-10, abs=floor)

    def test_row_path_builds_no_gate_matrix(self, monkeypatch):
        # both walks run from cached tables: rho from closed-form transfer
        # maps, psi from register permutations and phases
        calls = []
        original = Gate.matrix

        def counting(gate):
            calls.append(gate)
            return original(gate)

        monkeypatch.setattr(Gate, "matrix", counting)
        (row,) = run_sweep(self._sparse_row_config())
        assert row.nu > 0
        assert calls == []

    def test_row_checks_rho_for_hermiticity_once(self, monkeypatch):
        # run_circuit's DensityMatrix checks rho; the report does not again
        checked = []
        original = simulator._check_hermitian

        def counting(data, tol):
            checked.append(data.shape)
            return original(data, tol)

        monkeypatch.setattr(simulator, "_check_hermitian", counting)
        monkeypatch.setattr(metrics, "_check_hermitian", counting)
        (row,) = run_sweep(self._sparse_row_config())
        assert row.uniformity is not None
        assert checked == [(16, 16)]


class TestTinyRate:
    """At the rates the sweeps run, 1 - lambda1 is about 1e-6: the rows'
    small quantities must match the literal Kraus-sum evolution."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(family="SEL", n_qubits=6, layers=(16,)),
            dict(
                family="HVA-SPARSE",
                n_qubits=4,
                layers=(8,),
                hamiltonian_file=str(REPO_ROOT / "perfbench" / "data" / "toy_molecule_4q.txt"),
            ),
        ],
        ids=["sel6", "sparse4"],
    )
    def test_rows_match_kraus_oracle(self, overrides):
        config = small_config(epsilons=(1e-8, 1e-7), seeds=(0,), **overrides)
        rows = run_sweep(config)
        n = config.n_qubits
        for row, (epsilon, _, program) in zip(rows, _grid_programs(config), strict=True):
            rho = kraus_run(program, DensityMatrix.basis_state(n).data)
            report = compute_spectral_report(
                DensityMatrix(n, rho), run_ideal(program, basis_statevector(n))
            )
            assert row.epsilon == epsilon and 1.0 - row.lambda1 > 1e-7
            for got, expected in (
                (1.0 - row.lambda1, 1.0 - report.lambda1),
                (row.uniformity, report.uniformity),
                (row.commutator_rel, report.commutator_rel),
            ):
                assert abs(got / expected - 1.0) <= 1e-7, (epsilon, got, expected)


class TestSweepTrends:
    def test_uniformity_declines_for_random_sel_at_tiny_rate(self):
        config = small_config(
            n_qubits=5, epsilons=(EPSILON_PROXY,), layers=(4, 8, 16, 32),
            seeds=tuple(range(5)), seed=77,
        )
        rows = run_sweep(config)
        by_nu = {}
        for row in rows:
            by_nu.setdefault(row.nu, []).append(row.uniformity)
        means = [float(np.mean(by_nu[nu])) for nu in sorted(by_nu)]
        assert all(b < a for a, b in zip(means, means[1:]))


class TestZeroNoiseProxy:
    def test_proxy_rate_is_at_the_zero_noise_limit(self):
        """W and C_rel at EPSILON_PROXY match the linear extrapolation to epsilon = 0.

        Both metrics carry an O(epsilon) bias; on this program it is 4.4e-6
        relative at 1e-8 and 4.4e-5 at 1e-7. One fixed circuit is noised at
        each rate, since a sweep's row seeds hash the epsilon.
        """
        config = small_config(n_qubits=7, layers=(32,), seeds=(0,))
        program = build_program(config, 32, ansatz_seed=0, hamiltonian_seed=0)

        def metrics(epsilon):
            noisy = program.with_noise(epsilon)
            rho = run_circuit(noisy, DensityMatrix.basis_state(7))
            report = compute_spectral_report(rho, run_ideal(noisy, basis_statevector(7)))
            return np.array([report.uniformity, report.commutator_rel])

        limit = (10 * metrics(1e-9) - metrics(1e-8)) / 9
        np.testing.assert_allclose(metrics(EPSILON_PROXY), limit, rtol=1e-5, atol=0)


class TestCsvRoundTrip:
    def test_write_and_read(self, tmp_path):
        rows = run_sweep(small_config(layers=(1, 2), seeds=(0,)))
        path = tmp_path / "rows.csv"
        write_rows(path, rows)
        text = path.read_text()
        assert text.startswith("# noisescramble-rows schema_version=1\n")
        header = text.splitlines()[1]
        assert header.split(",")[:6] == ["family", "n_qubits", "epsilon", "nu", "seed", "W"]
        parsed = read_rows(path)
        for original, loaded in zip(rows, parsed):
            assert loaded.nu == original.nu
            assert loaded.fidelity == original.fidelity  # 17 digits round-trips floats
            assert loaded.uniformity == original.uniformity

    def test_null_fields_round_trip(self, tmp_path):
        rows = run_sweep(small_config(epsilons=(1e-300,), layers=(1,), seeds=(0,)))
        path = tmp_path / "rows.csv"
        write_rows(path, rows)
        (loaded,) = read_rows(path)
        assert loaded.uniformity is None
        assert loaded.reason == "noiseless"

    def test_every_field_round_trips(self, tmp_path):
        rows = run_sweep(small_config(epsilons=(1e-300, 0.01), layers=(1, 2), seeds=(0, 1)))
        assert {row.reason for row in rows} == {None, "noiseless"}
        path = tmp_path / "rows.csv"
        write_rows(path, rows)
        assert path.read_text().splitlines()[1] == (
            "family,n_qubits,epsilon,nu,seed,W,C_rel,C_abs,F,lambda1,"
            "trace_dist_wn,eta_est,wall_time_seconds,reason"
        )
        assert read_rows(path) == rows

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, run_sweep(small_config(layers=(1,), seeds=(0,))))
        text = path.read_text()
        path.write_text(text[: text.rindex(",")] + "\n")
        with pytest.raises(ConfigError):
            read_rows(path)

    def test_malformed_number_is_a_cli_error(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        write_rows(path, run_sweep(small_config(layers=(1,), seeds=(0,))))
        lines = path.read_text().splitlines()
        lines[2] = "SEL,x" + lines[2][len("SEL,3"):]
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["fit", "--rows", str(path), "--out", str(tmp_path / "fit.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_qubits" in err

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_rows(path)


class TestAggregateAndFit:
    def test_seed_means_and_fit(self):
        config = small_config(
            epsilons=(1e-7,), layers=(2, 4, 8, 16), seeds=tuple(range(5)), n_qubits=4
        )
        rows = run_sweep(config)
        fit = aggregate_and_fit(rows, "W")
        assert [s.nu for s in fit.samples] == sorted({row.nu for row in rows})
        assert len(fit.samples) == 4
        for sample in fit.samples:
            values = [row.uniformity for row in rows if row.nu == sample.nu]
            assert len(values) == 5
            assert sample.value == sum(values) / 5
            assert sample.stderr == pytest.approx(np.std(values, ddof=1) / math.sqrt(5))
        assert fit.alpha > 0
        assert 0.0 < fit.beta < 1.5

    def test_mixed_groups_rejected(self):
        rows = run_sweep(small_config(epsilons=(0.01, 0.02), layers=(1, 2, 4), seeds=(0,)))
        with pytest.raises(FitError):
            aggregate_and_fit(rows, "W")

    def test_unknown_metric_rejected(self):
        rows = run_sweep(small_config(layers=(1, 2, 4), seeds=(0,)))
        with pytest.raises(FitError):
            aggregate_and_fit(rows, "purity")

    def test_insufficient_sizes_propagates(self):
        rows = run_sweep(small_config(layers=(1,), seeds=(0, 1)))
        with pytest.raises(FitError):
            aggregate_and_fit(rows, "W")


class TestCli:
    def test_metrics_demo_config(self, capsys):
        code = cli_main(
            ["metrics", "--config", str(REPO_ROOT / "demos" / "configs" / "metrics_demo.json")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "F=" in out and "W=" in out and "C_rel=" in out

    @staticmethod
    def _assert_metrics_prints_first_sweep_row(config, tmp_path, capsys):
        assert cli_main(["metrics", "--config", config]) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        first = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert len(printed) == 11
        for key, value in printed.items():
            assert value == first[key], key
        return printed

    def test_metrics_prints_first_sweep_row(self, tmp_path, capsys):
        config = str(REPO_ROOT / "demos" / "configs" / "metrics_demo.json")
        self._assert_metrics_prints_first_sweep_row(config, tmp_path, capsys)

    def test_metrics_simulates_zero_epsilon_like_sweep(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        payload = config_payload(small_config(layers=(2,), seeds=(0,)))
        payload["epsilons"] = [0.0, 0.01]
        config_path.write_text(json.dumps(payload))
        printed = self._assert_metrics_prints_first_sweep_row(str(config_path), tmp_path, capsys)
        assert float(printed["epsilon"]) == EPSILON_PROXY
        assert not printed["W"].startswith("nan")

    def test_fit_round_trip_fixture(self, tmp_path, capsys):
        # exact W of the scaling model with alpha = 2, beta = 1/2 at eps = 1e-3
        rows_path, out = tmp_path / "rows.csv", tmp_path / "fit.csv"
        write_rows(rows_path, [
            ResultRow("SEL", 4, 1e-3, nu, 0, w, w, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0)
            for nu in (10, 100, 1000, 10000)
            for w in [float(scaling_model(nu, 2.0, 0.5, 1e-3 * nu))]
        ])
        code = cli_main(
            [
                "fit",
                "--rows",
                str(rows_path),
                "--out",
                str(out),
                "--metric",
                "W",
            ]
        )
        assert code == 0
        fields = out.read_text().splitlines()[1].split(",")
        alpha, beta = float(fields[4]), float(fields[5])
        assert abs(alpha - 2.0) < 1e-9
        assert abs(beta - 0.5) < 1e-9

    def test_sweep_rejects_non_integral_width(self, tmp_path, capsys):
        payload = config_payload(small_config())
        payload["n_qubits"] = 4.7
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_qubits" in err
        assert not out.exists()

    def test_sweep_rejects_boolean_csv_path(self, tmp_path, capsys):
        payload = config_payload(small_config())
        payload["out"] = True  # open(True) would write to file descriptor 1
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        assert cli_main(["sweep", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and ": out " in captured.err
        assert captured.out == ""

    def test_sweep_deterministic_csv(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_payload(small_config(layers=(1, 2), seeds=(0, 1)))))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out_b)]) == 0
        wall_column = 12
        for line_a, line_b in zip(out_a.read_text().splitlines(), out_b.read_text().splitlines()):
            fields_a, fields_b = line_a.split(","), line_b.split(",")
            if len(fields_a) > wall_column and not line_a.startswith(("#", "family")):
                fields_a[wall_column] = fields_b[wall_column] = ""
            assert fields_a == fields_b

    def test_sweep_epsilon_proxy_substitution(self, tmp_path):
        payload = config_payload(small_config(layers=(1,), seeds=(0,)))
        payload["epsilons"] = [0.0, EPSILON_PROXY, 0.01]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
        proxy_row, noisy_row = read_rows(out)
        assert (proxy_row.epsilon, noisy_row.epsilon) == (EPSILON_PROXY, 0.01)
        assert proxy_row.uniformity is not None and proxy_row.commutator_rel is not None

    @pytest.mark.parametrize(
        "update, named",
        [
            ({"seedz": [0, 1]}, "seedz"),
            ({"family": "HVA-SPARSE", "n_qubits": 4}, "hamiltonian_file"),
        ],
    )
    def test_sweep_rejects_config_before_writing(self, tmp_path, capsys, update, named):
        payload = config_payload(small_config())
        payload.update(update)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "alpha-scan"])
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_rejected(self, tmp_path, capsys, command, seeds):
        payload = config_payload(small_config())
        payload["n_qubits_list"] = [3]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = [command, "--config", str(config_path), "--out", str(out), "--seeds", seeds]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seeds" in err
        assert not out.exists()

    def test_fit_emits_plot_data(self, tmp_path):
        rows_path = tmp_path / "rows.csv"
        write_rows(
            rows_path,
            run_sweep(small_config(epsilons=(1e-7,), layers=(1, 2, 4), seeds=(0, 1))),
        )
        plot_dir = tmp_path / "plots"
        code = cli_main(
            [
                "fit",
                "--rows",
                str(rows_path),
                "--out",
                str(tmp_path / "fit.csv"),
                "--metric",
                "W",
                "--plot-data",
                str(plot_dir),
            ]
        )
        assert code == 0
        points = list(plot_dir.glob("*_points.csv"))
        curves = list(plot_dir.glob("*_curve.csv"))
        assert len(points) == 1 and len(curves) == 1
        assert points[0].read_text().splitlines()[0] == "nu,mean,stderr,fit_value"

    def test_alpha_scan(self, tmp_path, capsys):
        payload = config_payload(small_config(layers=(2, 4, 8), seeds=(0, 1)))
        payload["n_qubits_list"] = [3, 4]
        payload["epsilons"] = [0.0]
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "scan"
        assert cli_main(["alpha-scan", "--config", str(config_path), "--out", str(out_dir)]) == 0
        for metric in ("W", "C"):
            table = (out_dir / f"alpha_scan_{metric}.csv").read_text().splitlines()
            assert table[0] == "n_qubits,alpha,beta"
            assert len(table) == 3
        assert {row.epsilon for row in read_rows(out_dir / "rows_n3.csv")} == {EPSILON_PROXY}

    def test_alpha_scan_rejects_two_epsilons(self, tmp_path, capsys):
        payload = config_payload(small_config(epsilons=(0.0, 0.01)))
        payload["n_qubits_list"] = [3, 4]
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "scan"
        assert cli_main(["alpha-scan", "--config", str(config_path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epsilon" in err
        assert not out_dir.exists()

    def test_alpha_scan_rejects_config_that_is_not_a_json_object(self, tmp_path, capsys):
        config_path = tmp_path / "scan.json"
        for text in ("{bad", "[1]"):
            config_path.write_text(text)
            code = cli_main(["alpha-scan", "--config", str(config_path), "--out", str(tmp_path)])
            assert code == 1
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "qubit_counts", [5, [4, "x"], [0]], ids=["int", "non-int-entry", "zero-entry"]
    )
    def test_alpha_scan_rejects_malformed_qubit_list(self, tmp_path, capsys, qubit_counts):
        payload = config_payload(small_config())
        payload["n_qubits_list"] = qubit_counts
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(payload))
        code = cli_main(["alpha-scan", "--config", str(config_path), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("widths", [[3, 4.5], [3, 0], [3, True]])
    def test_alpha_scan_checks_every_width_before_the_first_sweep(
        self, tmp_path, capsys, widths
    ):
        payload = config_payload(small_config())
        payload["n_qubits_list"] = widths
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "scan"
        assert cli_main(["alpha-scan", "--config", str(config_path), "--out", str(out_dir)]) == 1
        assert f"{config_path}: n_qubits_list: n_qubits" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli_main(["metrics", "--config", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


def test_readme_command_line_flags_exist(capsys):
    """Every --flag in README's "Command line" section is an option of the command it is under."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = build_parser()
    options = {}
    command = None
    named = 0
    for line in section.splitlines():
        match = re.match(r"(?:noisescramble |- `)([a-z-]+)", line)
        if match:
            command = match.group(1)
        elif not line.startswith(" "):
            command = None
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line):
            assert command is not None, f"{flag} is not written under a command: {line!r}"
            if command not in options:
                with pytest.raises(SystemExit):
                    parser.parse_args([command, "--help"])
                options[command] = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
            assert flag in options[command], f"{command} has no {flag}"
            named += 1
    assert named > 0
