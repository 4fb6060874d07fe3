import json

import numpy as np
import pytest

from noisescramble import (
    ConfigError,
    EPSILON_PROXY_C,
    EPSILON_PROXY_W,
    ExperimentConfig,
    FitError,
    ResourceError,
    aggregate_and_fit,
    derive_seed,
    read_rows,
    run_sweep,
    substitute_zero_epsilons,
    write_rows,
)
from noisescramble.cli import main as cli_main

from .conftest import REPO_ROOT


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


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_json(path) == config

    def test_schema_version_enforced(self, tmp_path):
        payload = small_config().to_dict()
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

    def test_zero_epsilon_substitution(self):
        config = small_config(epsilons=(0.0, 0.01))
        both = substitute_zero_epsilons(config, "both")
        assert both.epsilons == (EPSILON_PROXY_W, EPSILON_PROXY_C, 0.01)
        w_only = substitute_zero_epsilons(config, "W")
        assert w_only.epsilons == (EPSILON_PROXY_W, 0.01)


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
        rows = run_sweep(small_config(epsilons=(0.0,), layers=(1,), seeds=(0,)))
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
        with pytest.raises(ConfigError):
            run_sweep(small_config(family="HVA-SPARSE", n_qubits=4))

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


class TestSweepTrends:
    def test_uniformity_declines_for_random_sel_at_tiny_rate(self):
        config = small_config(
            n_qubits=5, epsilons=(EPSILON_PROXY_W,), layers=(4, 8, 16, 32),
            seeds=tuple(range(5)), seed=77,
        )
        rows = run_sweep(config)
        by_nu = {}
        for row in rows:
            by_nu.setdefault(row.nu, []).append(row.uniformity)
        means = [float(np.mean(by_nu[nu])) for nu in sorted(by_nu)]
        assert all(b < a for a, b in zip(means, means[1:]))


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
        rows = run_sweep(small_config(epsilons=(0.0,), layers=(1,), seeds=(0,)))
        path = tmp_path / "rows.csv"
        write_rows(path, rows)
        (loaded,) = read_rows(path)
        assert loaded.uniformity is None
        assert loaded.reason == "noiseless"

    def test_every_field_round_trips(self, tmp_path):
        rows = run_sweep(small_config(epsilons=(0.0, 0.01), layers=(1, 2), seeds=(0, 1)))
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
        fit, summaries = aggregate_and_fit(rows, "W")
        assert len(summaries) == 4
        assert all(s.n_seeds == 5 for s in summaries)
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

    def test_metrics_prints_first_sweep_row(self, tmp_path, capsys):
        config = str(REPO_ROOT / "demos" / "configs" / "metrics_demo.json")
        assert cli_main(["metrics", "--config", config]) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        first = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert len(printed) == 11
        for key, value in printed.items():
            assert value == first[key], key

    def test_fit_round_trip_fixture(self, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        code = cli_main(
            [
                "fit",
                "--rows",
                str(REPO_ROOT / "demos" / "data" / "synthetic_scaling.csv"),
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

    def test_sweep_deterministic_csv(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(layers=(1, 2), seeds=(0, 1)).to_dict()))
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
        config = small_config(epsilons=(0.0,), layers=(1,), seeds=(0,))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "rows.csv"
        assert (
            cli_main(
                ["sweep", "--config", str(config_path), "--out", str(out), "--metric", "W"]
            )
            == 0
        )
        (row,) = read_rows(out)
        assert row.epsilon == EPSILON_PROXY_W
        assert row.uniformity is not None

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
        payload = small_config(layers=(2, 4, 8), seeds=(0, 1)).to_dict()
        payload["n_qubits_list"] = [3, 4]
        payload["epsilons"] = [0.0]
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "scan"
        code = cli_main(
            ["alpha-scan", "--config", str(config_path), "--out", str(out_dir), "--metric", "W"]
        )
        assert code == 0
        table = (out_dir / "alpha_scan_W.csv").read_text().splitlines()
        assert table[0] == "n_qubits,alpha,beta"
        assert len(table) == 3
        assert (out_dir / "rows_n3.csv").exists()

    def test_alpha_scan_rejects_config_that_is_not_a_json_object(self, tmp_path, capsys):
        config_path = tmp_path / "scan.json"
        for text in ("{bad", "[1]"):
            config_path.write_text(text)
            code = cli_main(["alpha-scan", "--config", str(config_path), "--out", str(tmp_path)])
            assert code == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli_main(["metrics", "--config", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err
