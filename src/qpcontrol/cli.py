"""Command-line front end: simulate | identify | compare | sweep.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime error.
All emitted files are reproducible byte-for-byte for a given configuration
and seed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .config import (
    FIXED_QP_METRICS_UNREAD,
    SCHEMA,
    emit_config,
    parse_config,
    parse_configs,
)
from .errors import (
    ConfigError,
    ConfigInvariantError,
    DegenerateInputError,
    InputDomainError,
    SequencingError,
    TraceDomainError,
    UnknownConfigKey,
)
from .harness import (
    MetricsReport,
    RunMode,
    compare,
    comparison_text,
    compute_metrics,
    run_closed_loop,
    run_fixed_qp,
    summary_line,
    write_metrics_json,
    write_trace_csv,
)
from .plant import PlantKind
from .sysid import estimate_order, run_impulse


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="configuration file")
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
    sub.add_argument(
        "--seed", type=int, default=None, help="plant.disturbance.seed override"
    )
    sub.add_argument(
        "--mode",
        choices=[m.value for m in RunMode],
        default=None,
        help="run mode override",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpcontrol",
        description="Closed-loop QP quality control simulator and analysis tools.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run one experiment and emit trace.csv + metrics.json"
    )
    _add_common_options(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    identify = subparsers.add_parser(
        "identify", help="impulse-response order estimation of the configured plant"
    )
    _add_common_options(identify)
    identify.set_defaults(func=_cmd_identify)

    compare_cmd = subparsers.add_parser(
        "compare", help="run controlled and fixed-QP on one config and tabulate both"
    )
    _add_common_options(compare_cmd)
    compare_cmd.set_defaults(func=_cmd_compare)

    sweep = subparsers.add_parser(
        "sweep", help="run a parameter grid and emit one metrics row per point"
    )
    _add_common_options(sweep)
    sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="grid axis over a config key, repeatable (Cartesian product)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def _flag_overrides(args: argparse.Namespace) -> list[str]:
    # Applied last: the dedicated flags win over --set and a grid point.
    overrides = []
    if args.seed is not None:
        overrides.append(f"plant.disturbance.seed={args.seed}")
    if args.mode is not None:
        overrides.append(f"mode={args.mode}")
    return overrides


def _load_config(args: argparse.Namespace):
    return parse_config(args.config, [*args.overrides, *_flag_overrides(args)])


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
    config = _load_config(args)
    records = _run_for_mode(config)
    metrics = compute_metrics(records, config.objective)
    out = _out_dir(args)
    write_trace_csv(records, out / "trace.csv")
    write_metrics_json(metrics, out / "metrics.json")
    print(summary_line(config.mode, len(records), metrics))
    return 0


def _check_impulse_coverage(config) -> None:
    """The impulse drives range.qp_min at frame 0 and range.qp_max after it,
    so a trace table must span each QP where it is driven. A table that
    spans only part of the range is valid input for the other commands."""
    plant = config.plant
    if plant.kind is not PlantKind.TRACE_DRIVEN:
        return
    qp_range = config.qp_range
    driven = [("range.qp_min", qp_range.qp_min)]
    driven += [("range.qp_max", qp_range.qp_max)] * (config.n_frames - 1)
    for t, (key, qp) in enumerate(driven):
        try:
            plant.trace.lookup(t, qp)
        except TraceDomainError as exc:
            raise ConfigInvariantError(
                f"{key}={qp} is not covered by "
                f"plant.trace_path={plant.trace_path}: {exc}"
            ) from exc


def _cmd_identify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    _check_impulse_coverage(config)
    experiment = run_impulse(config.plant, config.qp_range, config.n_frames)
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
    (out / "identify_report.txt").write_text(report)
    (out / "impulse_response.csv").write_text("\n".join(response_lines) + "\n")
    print(report, end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    controlled = compute_metrics(run_closed_loop(config), config.objective)
    baseline = compute_metrics(run_fixed_qp(config), config.objective)
    report = compare(controlled, baseline)
    text = comparison_text(report)
    out = _out_dir(args)
    (out / "comparison.txt").write_text(text)
    write_metrics_json(controlled, out / "metrics_controlled.json")
    write_metrics_json(baseline, out / "metrics_fixed.json")
    print(text, end="")
    return 0


def _parse_grid(grid_args: list[str]) -> list[tuple[str, list[str]]]:
    axes: list[tuple[str, list[str]]] = []
    for spec in grid_args:
        if "=" not in spec:
            raise UnknownConfigKey(f"--grid expects KEY=V1,V2,..., got {spec!r}")
        key, _, raw_values = spec.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise UnknownConfigKey(f"--grid: unknown key {key!r}")
        values = [v.strip() for v in raw_values.split(",") if v.strip()]
        if not values:
            raise UnknownConfigKey(f"--grid: no values for key {key!r}")
        axes.append((key, values))
    return axes


def _run_key(config) -> str:
    """The configuration as ``emit_config`` writes it, less the keys a
    fixed-QP run's metrics never read: equal keys give equal metrics."""
    text = emit_config(config)
    if config.mode is RunMode.CONTROLLED:
        return text
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if line.partition(" = ")[0] not in FIXED_QP_METRICS_UNREAD
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.grid:
        print("error: sweep requires at least one --grid axis", file=sys.stderr)
        return 2
    axes = _parse_grid(args.grid)
    keys = [key for key, _ in axes]
    # duplicate grid points are dropped
    points = list(dict.fromkeys(itertools.product(*(values for _, values in axes))))
    flags = _flag_overrides(args)
    point_overrides = [
        [f"{key}={value}" for key, value in zip(keys, combo)] + flags for combo in points
    ]
    configs = parse_configs(args.config, args.overrides, point_overrides)
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
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    print(f"sweep: {len(points)} grid points over {', '.join(keys)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        InputDomainError,
        DegenerateInputError,
        TraceDomainError,
        SequencingError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
