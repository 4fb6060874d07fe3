"""Command-line entry points: sweep, metrics, fit and alpha-scan."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NoiseScrambleError
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    aggregate_and_fit,
    format_row,
    read_json_object,
    read_rows,
    run_sweep,
)
from .fitting import alpha_by_qubits


def _load_config(args, payload: dict | None = None) -> ExperimentConfig:
    """The ``--config`` file (or its already-read ``payload``) with ``--seeds`` applied."""
    if args.seeds is not None and args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    if payload is None:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig.from_dict(payload, source=str(args.config))
    if args.seeds is None:
        return config
    return replace(config, seeds=tuple(range(args.seeds)))


def _cmd_sweep(args) -> int:
    config = _load_config(args)
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
    for label, value in zip(CSV_HEADER, format_row(row).split(",")):
        if label not in ("seed", "wall_time_seconds", "reason"):
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
            fit = aggregate_and_fit(group, metric)
            lines.append(
                f"{family},{n_qubits},{epsilon:.17g},{metric},"
                f"{fit.alpha:.17g},{fit.beta:.17g},{fit.residual:.17g},{len(fit.samples)}"
            )
            if args.plot_data:
                _write_plot_data(args.plot_data, family, n_qubits, epsilon, metric, fit)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def _write_plot_data(directory, family, n_qubits, epsilon, metric, fit) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{family}_n{n_qubits}_eps{epsilon:g}_{metric}".replace("/", "-")
    points = ["nu,mean,stderr,fit_value"] + [
        f"{s.nu},{s.value:.17g},{s.stderr:.17g},{float(fit.predict(s.nu, epsilon * s.nu)):.17g}"
        for s in fit.samples
    ]
    (directory / f"{stem}_points.csv").write_text("\n".join(points) + "\n", encoding="utf-8")
    nus = np.geomspace(fit.samples[0].nu, fit.samples[-1].nu, 50)
    curve = ["nu,fit_value"] + [f"{x:.17g},{float(fit.predict(x, epsilon * x)):.17g}" for x in nus]
    (directory / f"{stem}_curve.csv").write_text("\n".join(curve) + "\n", encoding="utf-8")


def _cmd_alpha_scan(args) -> int:
    payload = read_json_object(args.config)
    qubit_counts = payload.pop("n_qubits_list", None)
    if not (isinstance(qubit_counts, list) and qubit_counts):
        raise ConfigError(
            f"{args.config}: n_qubits_list must be a non-empty list, got {qubit_counts!r}"
        )
    payload.setdefault("n_qubits", qubit_counts[0])
    base = _load_config(args, payload)
    if len(base.epsilons) != 1:
        raise ConfigError(
            f"{args.config}: alpha-scan fits one error rate, got epsilons {list(base.epsilons)}"
        )
    try:  # every width is checked before the first sweep writes anything
        configs = [replace(base, n_qubits=n) for n in qubit_counts]
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: n_qubits_list: {exc}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = ("W", "C") if args.metric == "both" else (args.metric,)
    fits = {metric: {} for metric in metrics}
    for config in configs:
        n_qubits = config.n_qubits
        rows = run_sweep(config, out_path=out_dir / f"rows_n{n_qubits}.csv")
        for metric, by_qubits in fits.items():
            fit = aggregate_and_fit(rows, metric)
            by_qubits[n_qubits] = fit
            print(f"n={n_qubits} {metric}: alpha={fit.alpha:.6g} beta={fit.beta:.6g}")
    for metric, by_qubits in fits.items():
        table = alpha_by_qubits(by_qubits)
        lines = ["n_qubits,alpha,beta"] + [f"{n},{a:.17g},{b:.17g}" for n, a, b in table.rows]
        (out_dir / f"alpha_scan_{metric}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{metric} trend: {'saturated' if table.saturated else 'varying'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisescramble",
        description="Noisy-circuit sweeps and spectral scrambling metrics",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    seeds_help = "replace the config seed list with range(N)"
    metric_choices = ("W", "C", "both")

    sweep = commands.add_parser("sweep", help="run an experiment config and write a rows CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--seeds", type=int, default=None, help=seeds_help)
    sweep.set_defaults(handler=_cmd_sweep)

    metrics = commands.add_parser("metrics", help="one circuit, one spectral report")
    metrics.add_argument("--config", required=True)
    metrics.set_defaults(handler=_cmd_metrics, seeds=None)

    fit = commands.add_parser("fit", help="fit the scaling model to a rows CSV")
    fit.add_argument("--rows", required=True, help="rows CSV produced by sweep")
    fit.add_argument("--out", required=True, help="fit table CSV to write")
    fit.add_argument("--metric", choices=metric_choices, default="both")
    fit.add_argument("--plot-data", default=None, help="directory for per-figure data files")
    fit.set_defaults(handler=_cmd_fit)

    scan = commands.add_parser("alpha-scan", help="sweep + fit over a list of qubit counts")
    scan.add_argument("--config", required=True, help="config with an extra n_qubits_list field")
    scan.add_argument("--out", required=True, help="output directory")
    scan.add_argument("--seeds", type=int, default=None, help=seeds_help)
    scan.add_argument("--metric", choices=metric_choices, default="both")
    scan.set_defaults(handler=_cmd_alpha_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (NoiseScrambleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
