"""Command-line entry points: sweep, metrics, fit and alpha-scan."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import NoiseScrambleError
from .harness import (
    CSV_HEADER,
    EPSILON_PROXY_C,
    EPSILON_PROXY_W,
    ExperimentConfig,
    aggregate_and_fit,
    format_row,
    read_json_object,
    read_rows,
    run_sweep,
    substitute_zero_epsilons,
)
from .fitting import alpha_by_qubits


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seeds", type=int, default=None, help="replace the config seed list with range(N)")
    parser.add_argument("--epsilon-proxy-w", type=float, default=EPSILON_PROXY_W,
                        help="stand-in error rate for the zero-noise limit of W")
    parser.add_argument("--epsilon-proxy-c", type=float, default=EPSILON_PROXY_C,
                        help="stand-in error rate for the zero-noise limit of C")
    parser.add_argument("--metric", choices=("W", "C", "both"), default="both")


def _load_config(args, payload: dict | None = None) -> ExperimentConfig:
    """The ``--config`` file (or its already-read ``payload``) with ``--seeds`` applied."""
    if payload is None:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig.from_dict(payload, source=str(args.config))
    if args.seeds:
        config = replace(config, seeds=tuple(range(args.seeds)))
    return config


def _cmd_sweep(args) -> int:
    config = substitute_zero_epsilons(
        _load_config(args), args.metric, args.epsilon_proxy_w, args.epsilon_proxy_c
    )
    out = args.out or config.out
    if out is None:
        raise NoiseScrambleError("no output path: pass --out or set 'out' in the config")
    rows = run_sweep(config, out_path=out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_metrics(args) -> int:
    """Print the CSV fields of the config's first grid row, as ``sweep`` would write it."""
    config = _load_config(args)
    (row,) = run_sweep(
        replace(
            config,
            epsilons=config.epsilons[:1],
            layers=config.layers[:1],
            seeds=config.seeds[:1],
        )
    )
    columns = dict(zip(CSV_HEADER, format_row(row).split(",")))
    for label in ("family", "n_qubits", "epsilon", "nu", "F", "lambda1",
                  "W", "C_rel", "C_abs", "trace_dist_wn", "eta_est"):
        value = columns[label]
        print(f"{label}={value}" if value else f"{label}=nan ({row.reason})")
    return 0


def _group_rows(rows):
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row.family, row.n_qubits, row.epsilon), []).append(row)
    return groups


def _cmd_fit(args) -> int:
    rows = read_rows(args.rows)
    metrics = ("W", "C") if args.metric == "both" else (args.metric,)
    lines = ["family,n_qubits,epsilon,metric,alpha,beta,residual,n_points"]
    for (family, n_qubits, epsilon), group in sorted(_group_rows(rows).items()):
        for metric in metrics:
            fit, summaries = aggregate_and_fit(group, metric)
            lines.append(
                f"{family},{n_qubits},{epsilon:.17g},{metric},"
                f"{fit.alpha:.17g},{fit.beta:.17g},{fit.residual:.17g},{len(summaries)}"
            )
            if args.plot_data:
                _write_plot_data(args.plot_data, family, n_qubits, epsilon, metric, fit, summaries)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def _write_plot_data(directory, family, n_qubits, epsilon, metric, fit, summaries) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{family}_n{n_qubits}_eps{epsilon:g}_{metric}".replace("/", "-")
    points = ["nu,mean,stderr,fit_value"]
    for summary in summaries:
        fitted = float(fit.predict(summary.nu, epsilon * summary.nu))
        points.append(
            f"{summary.nu},{summary.mean:.17g},{summary.stderr:.17g},{fitted:.17g}"
        )
    (directory / f"{stem}_points.csv").write_text("\n".join(points) + "\n", encoding="utf-8")
    nus = np.geomspace(min(s.nu for s in summaries), max(s.nu for s in summaries), 50)
    curve = ["nu,fit_value"]
    for nu in nus:
        curve.append(f"{nu:.17g},{float(fit.predict(nu, epsilon * nu)):.17g}")
    (directory / f"{stem}_curve.csv").write_text("\n".join(curve) + "\n", encoding="utf-8")


def _cmd_alpha_scan(args) -> int:
    payload = read_json_object(args.config)
    qubit_counts = payload.pop("n_qubits_list", None)
    if not qubit_counts:
        raise NoiseScrambleError("alpha-scan config needs a non-empty 'n_qubits_list'")
    payload.setdefault("n_qubits", qubit_counts[0])
    base = _load_config(args, payload)
    metric = "W" if args.metric == "both" else args.metric
    proxy = args.epsilon_proxy_w if metric == "W" else args.epsilon_proxy_c
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fits = {}
    for n_qubits in qubit_counts:
        config = replace(base, n_qubits=int(n_qubits), epsilons=(proxy,))
        rows_path = out_dir / f"rows_n{n_qubits}.csv"
        rows = run_sweep(config, out_path=rows_path)
        fit, _ = aggregate_and_fit(rows, metric)
        fits[int(n_qubits)] = fit
        print(f"n={n_qubits}: alpha={fit.alpha:.6g} beta={fit.beta:.6g}")
    table = alpha_by_qubits(fits)
    lines = ["n_qubits,alpha,beta"]
    for n_qubits, alpha, beta in table.rows:
        lines.append(f"{n_qubits},{alpha:.17g},{beta:.17g}")
    (out_dir / f"alpha_scan_{metric}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"trend: {'saturated' if table.saturated else 'varying'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisescramble",
        description="Noisy-circuit sweeps and spectral scrambling metrics",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("sweep", help="run an experiment config and write a rows CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None)
    _add_common_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    metrics = commands.add_parser("metrics", help="one circuit, one spectral report")
    metrics.add_argument("--config", required=True)
    metrics.set_defaults(handler=_cmd_metrics, seeds=None)

    fit = commands.add_parser("fit", help="fit the scaling model to a rows CSV")
    fit.add_argument("--rows", required=True, help="rows CSV produced by sweep")
    fit.add_argument("--out", required=True, help="fit table CSV to write")
    fit.add_argument("--metric", choices=("W", "C", "both"), default="both")
    fit.add_argument("--plot-data", default=None, help="directory for per-figure data files")
    fit.set_defaults(handler=_cmd_fit)

    scan = commands.add_parser("alpha-scan", help="sweep + fit over a list of qubit counts")
    scan.add_argument("--config", required=True, help="config with an extra n_qubits_list field")
    scan.add_argument("--out", required=True, help="output directory")
    _add_common_flags(scan)
    scan.set_defaults(handler=_cmd_alpha_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NoiseScrambleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
