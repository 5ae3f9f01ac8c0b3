"""Command-line front end: simulate | identify | compare | sweep.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime error.
All emitted files are UTF-8 and reproducible byte-for-byte for a given
configuration and seed, whatever the locale.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace
from pathlib import Path

from .config import SCHEMA, emit_config, parse_config, parse_configs
from .controller import PidGains
from .errors import ConfigError, InputDomainError, TraceDomainError
from .harness import (
    MetricsReport,
    RunMode,
    comparison_text,
    compute_metrics,
    run_closed_loop,
    run_fixed_qp,
    summary_line,
    write_metrics_json,
    write_text,
    write_trace_csv,
)
from .sysid import MIN_RESPONSE_LENGTH, estimate_order, run_impulse


# The flags that set a configuration key, and the key each sets.
_FLAG_KEYS = (("seed", "plant.disturbance.seed"), ("mode", "mode"))


def _overrides(args: argparse.Namespace) -> list[str]:
    # The --set values, then the flags as assignments, which so win over them.
    flags = [(key, getattr(args, flag)) for flag, key in _FLAG_KEYS]
    return args.overrides + [f"{key}={value}" for key, value in flags if value is not None]


def _check_out(out: Path) -> None:
    """Fail before any run when ``--out`` cannot become a directory."""
    existing = next((p for p in (out, *out.parents) if p.exists() or p.is_symlink()), out)
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")


def _out_dir(args: argparse.Namespace) -> Path:
    """Create ``--out`` once a command has all it will write, so a failed
    run leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_for_mode(config):
    # The one place that reads config.mode.
    if config.mode is RunMode.CONTROLLED:
        return run_closed_loop(config)
    return run_fixed_qp(config)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _overrides(args))
    records = _run_for_mode(config)
    metrics = compute_metrics(records, config.objective)
    out = _out_dir(args)
    write_trace_csv(records, out / "trace.csv")
    write_metrics_json(metrics, out / "metrics.json")
    print(summary_line(config.mode, len(records), metrics))
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _overrides(args))
    if config.n_frames < MIN_RESPONSE_LENGTH:
        raise ConfigError(
            f"n_frames={config.n_frames} is too short for identify: "
            f"the impulse needs at least {MIN_RESPONSE_LENGTH} frames"
        )
    qp_range, plant = config.qp_range, config.plant
    if qp_range.qp_min >= qp_range.qp_max:
        raise ConfigError(
            f"range.qp_min={qp_range.qp_min} must be below "
            f"range.qp_max={qp_range.qp_max} for identify: the impulse steps "
            f"from one to the other"
        )
    try:
        experiment = run_impulse(plant, qp_range, config.n_frames)
    except TraceDomainError as exc:
        # A trace table that spans only part of the QP range fails here, on
        # the first frame whose driven QP it lacks, before any write.
        raise ConfigError(
            f"range.qp_min={qp_range.qp_min} or range.qp_max={qp_range.qp_max} "
            f"is not covered by plant.trace_path={plant.trace_path}: {exc}"
        ) from exc
    estimate = estimate_order(experiment.response)
    pole = "none" if estimate.pole is None else f"{estimate.pole:.6f}"
    report = (
        f"order = {estimate.order}\n"
        f"pole = {pole}\n"
        f"residual = {estimate.fit_residual:.6f}\n"
    )
    response_lines = ["frame,error_db"] + [
        f"{t},{value:.6f}" for t, value in enumerate(experiment.response)
    ]
    out = _out_dir(args)
    write_text(report, out / "identify_report.txt")
    write_text("\n".join(response_lines) + "\n", out / "impulse_response.csv")
    print(report, end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _overrides(args))
    controlled = compute_metrics(run_closed_loop(config), config.objective)
    baseline = compute_metrics(run_fixed_qp(config), config.objective)
    text = comparison_text(controlled, baseline)
    out = _out_dir(args)
    write_text(text, out / "comparison.txt")
    write_metrics_json(controlled, out / "metrics_controlled.json")
    write_metrics_json(baseline, out / "metrics_fixed.json")
    print(text, end="")
    return 0


def _parse_grid(grid_args: list[str]) -> dict[str, list[str]]:
    axes: dict[str, list[str]] = {}
    for spec in grid_args:
        if "=" not in spec:
            raise ConfigError(f"--grid expects KEY=V1,V2,..., got {spec!r}")
        key, _, raw_values = spec.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"--grid: unknown key {key!r}")
        if key in axes:
            raise ConfigError(f"--grid: key {key!r} given twice")
        values = [v.strip() for v in raw_values.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"--grid: no values for key {key!r}")
        axes[key] = values
    return axes


def _run_key(config) -> str:
    """The configuration as ``emit_config`` writes it: equal keys give
    equal metrics."""
    if config.mode is not RunMode.CONTROLLED:
        # A fixed-QP run holds the anchor QP, so no gain or frame kind
        # reaches it, and the objective weight enters only its records'
        # error column: its metrics read none of these fields.
        config = replace(
            config,
            gains=PidGains(),
            kind_pattern="inter",
            objective=replace(config.objective, lambda_=1.0),
        )
    return emit_config(config)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.grid:
        raise ConfigError("sweep requires at least one --grid axis")
    axes = _parse_grid(args.grid)
    for flag, key in _FLAG_KEYS:
        if key in axes and getattr(args, flag) is not None:
            raise ConfigError(f"--grid: key {key!r} is also set by --{flag}")
    keys = list(axes)
    # duplicate grid points are dropped
    points = list(dict.fromkeys(itertools.product(*axes.values())))
    overrides = _overrides(args)
    configs = parse_configs(
        args.config, [overrides + [f"{k}={v}" for k, v in zip(keys, combo)] for combo in points]
    )
    # Each distinct run is run once; only its metrics are kept.
    runs: dict[str, MetricsReport] = {}
    header = keys + list(MetricsReport._fields)
    rows = [",".join(header)]
    for combo, config in zip(points, configs):
        run_key = _run_key(config)
        if run_key not in runs:
            runs[run_key] = compute_metrics(_run_for_mode(config), config.objective)
        cells = list(combo) + [f"{value:.6f}" for value in runs[run_key]]
        rows.append(",".join(cells))
    out = _out_dir(args)
    write_text("\n".join(rows) + "\n", out / "sweep.csv")
    print(f"sweep: {len(points)} grid points over {', '.join(keys)}")
    return 0


_COMMANDS = (
    ("simulate", "run one experiment and emit trace.csv + metrics.json", _cmd_simulate),
    ("identify", "impulse-response order estimation of the configured plant", _cmd_identify),
    ("compare", "run controlled and fixed-QP on one config and tabulate both", _cmd_compare),
    ("sweep", "run a parameter grid and emit one metrics row per point", _cmd_sweep),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpcontrol",
        description="Closed-loop QP quality control simulator and analysis tools.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in _COMMANDS:
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(func=handler)
        sub.add_argument("--config", type=Path, help="configuration file")
        sub.add_argument(
            "--out", type=Path, default=Path("."), help="output directory (created if absent)"
        )
        sub.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path configuration override, repeatable",
        )
        sub.add_argument("--seed", type=int, help="plant.disturbance.seed override")
        sub.add_argument(
            "--mode", choices=[m.value for m in RunMode], help="run mode override"
        )
        if name == "sweep":
            sub.add_argument(
                "--grid",
                action="append",
                default=[],
                metavar="KEY=V1,V2,...",
                help="grid axis over a config key, repeatable (Cartesian product)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputDomainError, TraceDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; n_frames may be too large", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
