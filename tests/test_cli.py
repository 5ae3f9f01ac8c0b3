"""CLI tests: subcommand behaviour, file emission, exit codes."""

import builtins
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpcontrol import cli
from qpcontrol.cli import build_parser, main
from qpcontrol.config import SCHEMA, parse_config
from qpcontrol.plant import _memo_column
from qpcontrol.harness import (
    MetricsReport,
    RunMode,
    compute_metrics,
    run_closed_loop,
    run_fixed_qp,
)
from qpcontrol.plant import DisturbanceKind, PlantKind, TraceTable
from trace_rows import TRACE_TEXT


# Per config key, overrides that break one of its invariants.
INVALID_VALUES = {
    "objective.lambda": ["objective.lambda=2"],
    "gains.kp": ["gains.kp=-1"],
    "range.qp_min": ["range.qp_min=52"],
    "plant.psnr_slope": ["plant.psnr_slope=0"],
    "plant.inertia": ["plant.inertia=1"],
    "plant.disturbance.period": [
        "plant.disturbance.kind=sinusoid",
        "plant.disturbance.period=0",
    ],
    "kind_pattern": ["kind_pattern=x"],
    "n_frames": ["n_frames=0"],
}


# ``main`` under a 256 MiB address-space cap; prints the peak RSS in KiB
# and exits with main's code. The peak is VmHWM, this image's own: on Linux
# ru_maxrss also keeps the high-water mark of the image before exec, which
# for a subprocess is the test runner's.
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, 256 * 2**20))
from qpcontrol.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run_cli(*args):
    return main([str(a) for a in args])


def as_set(overrides):
    return [arg for override in overrides for arg in ("--set", override)]


def deny_reads(monkeypatch, path):
    """Make opening ``path`` fail as it does for a file without read
    permission; chmod cannot show this, as root reads through mode bits."""
    real_open = builtins.open

    def guarded_open(file, *args, **kwargs):
        if os.fspath(file) == os.fspath(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(file))
        return real_open(file, *args, **kwargs)

    for module in (builtins, io):  # whichever name a reader opens by
        monkeypatch.setattr(module, "open", guarded_open)


def impulse_trace(path, psnrs):
    """Write a table whose frame t reads ``psnrs[t]`` at QPs 0 and 51, so the
    default impulse sees exactly these PSNRs; return the overrides that
    run it."""
    rows = (f"{t},0,{p!r},1000\n{t},51,{p!r},1000\n" for t, p in enumerate(psnrs))
    path.write_text("frame,qp,psnr_db,bits\n" + "".join(rows))
    return as_set(
        [
            "plant.kind=trace_driven",
            f"plant.trace_path={path}",
            f"n_frames={len(psnrs)}",
        ]
    )


def counted_runs(monkeypatch):
    """Record the name of each run function the CLI calls."""
    runs = []
    for name in ("run_closed_loop", "run_fixed_qp", "run_impulse"):
        run = getattr(cli, name)

        def counted(*args, name=name, run=run):
            runs.append(name)
            return run(*args)

        monkeypatch.setattr(cli, name, counted)
    return runs


class TestSimulate:
    def test_default_run_writes_trace_and_metrics(self, tmp_path, capsys):
        assert run_cli("simulate", "--out", tmp_path) == 0
        trace = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "frame,qp,psnr_db,bits,error,o"
        assert len(trace) == 301
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) == {
            "avg_psnr",
            "control_error_db",
            "control_error_pct",
            "quality_fluc_db",
            "bitrate_mean",
            "bit_fluc",
        }
        assert "300 frames" in capsys.readouterr().out

    def test_different_seeds_differ(self, tmp_path):
        common = [
            "--set", "plant.disturbance.kind=seeded_noise",
            "--set", "plant.disturbance.amplitude=0.5",
        ]
        run_cli("simulate", "--out", tmp_path / "a", *common, "--seed", "1")
        run_cli("simulate", "--out", tmp_path / "b", *common, "--seed", "2")
        assert (tmp_path / "a/trace.csv").read_text() != (
            tmp_path / "b/trace.csv"
        ).read_text()

    def test_fixed_mode_holds_the_anchor(self, tmp_path):
        assert run_cli("simulate", "--out", tmp_path, "--mode", "fixed") == 0
        rows = (tmp_path / "trace.csv").read_text().strip().split("\n")[1:]
        assert {row.split(",")[1] for row in rows} == {"32"}

    def test_config_file_is_honoured(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_frames = 12\n")
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path) == 0
        rows = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert len(rows) == 13


class TestIdentify:
    def test_first_order_plant_reports_one_pole(self, tmp_path, capsys):
        assert run_cli("identify", "--out", tmp_path, "--set", "n_frames=64") == 0
        report = (tmp_path / "identify_report.txt").read_text()
        assert "order = 1" in report
        assert "pole = 0.500" in report
        response = (tmp_path / "impulse_response.csv").read_text().strip().split("\n")
        assert response[0] == "frame,error_db"
        assert len(response) == 65
        assert "order = 1" in capsys.readouterr().out

    def test_zero_order_plant_reports_zero_poles(self, tmp_path):
        assert (
            run_cli(
                "identify",
                "--out", tmp_path,
                "--set", "plant.kind=zero_order",
                "--set", "n_frames=64",
            )
            == 0
        )
        report = (tmp_path / "identify_report.txt").read_text()
        assert "order = 0" in report
        assert "pole = none" in report

    def test_the_impulse_run_looks_up_each_frame_once(self, tmp_path, monkeypatch):
        lookups = []
        lookup = TraceTable.lookup

        def counted(table, frame_index, qp):
            lookups.append(frame_index)
            return lookup(table, frame_index, qp)

        monkeypatch.setattr(TraceTable, "lookup", counted)
        overrides = impulse_trace(tmp_path / "trace.csv", [40.0] + [30.0] * 63)
        assert run_cli("identify", "--out", tmp_path / "out", *overrides) == 0
        assert lookups == list(range(64))

    def test_too_few_frames_exit_two_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("identify", "--out", out, "--set", "n_frames=4") == 2
        assert (
            "error: n_frames=4 is too short for identify: "
            "the impulse needs at least 8 frames"
        ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("qp_min", [30, 51])
    def test_an_empty_impulse_exits_two_naming_both_keys_before_the_run(
        self, tmp_path, capsys, monkeypatch, qp_min
    ):
        runs = counted_runs(monkeypatch)
        out = tmp_path / "out"
        overrides = [f"range.qp_min={qp_min}", f"range.qp_max={qp_min}"]
        assert run_cli("identify", "--out", out, *as_set(overrides)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: range.qp_min={qp_min} must be below ")
        assert f"range.qp_max={qp_min}" in err
        assert runs == []
        assert not out.exists()

    def test_a_settled_level_past_the_float_range_exits_three(self, tmp_path, capsys):
        psnrs = [0.0] * 48 + [-1e308] + [0.7e308] * 15
        overrides = impulse_trace(tmp_path / "trace.csv", psnrs)
        out = tmp_path / "out"
        assert run_cli("identify", "--out", out, *overrides) == 3
        assert "settled psnr sums past the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_a_near_max_response_is_fitted(self, tmp_path):
        psnrs = [1e308, 1e308, 1e308, -1e308, 0.0, 0.0, 0.0, 0.0]
        overrides = impulse_trace(tmp_path / "trace.csv", psnrs)
        assert run_cli("identify", "--out", tmp_path / "out", *overrides) == 0
        assert (tmp_path / "out" / "identify_report.txt").read_text().startswith(
            "order = "
        )


class TestCompare:
    def test_emits_table_and_metrics(self, tmp_path, capsys):
        code = run_cli(
            "compare",
            "--out", tmp_path,
            "--set", "plant.disturbance.kind=sinusoid",
            "--set", "plant.disturbance.amplitude=1.0",
            "--set", "plant.disturbance.period=30",
        )
        assert code == 0
        table = (tmp_path / "comparison.txt").read_text()
        assert "fixed_qp" in table and "controlled" in table
        assert "quality fluctuation reduction:" in table
        controlled = json.loads((tmp_path / "metrics_controlled.json").read_text())
        fixed = json.loads((tmp_path / "metrics_fixed.json").read_text())
        assert controlled["quality_fluc_db"] < fixed["quality_fluc_db"]
        assert "reduction" in capsys.readouterr().out

    def test_constant_fixed_qp_quality_has_zero_fluctuation(self, tmp_path):
        code = run_cli(
            "compare",
            "--out", tmp_path,
            "--set", "plant.kind=zero_order",
            "--set", "plant.psnr_intercept=50.1",
        )
        assert code == 0
        fixed = json.loads((tmp_path / "metrics_fixed.json").read_text())
        assert fixed["quality_fluc_db"] == 0.0
        assert fixed["bit_fluc"] == 0.0

    def test_zero_baseline_fluctuation_reports_minus_inf(self, tmp_path, capsys):
        # the fixed-QP PSNR is constant, the controlled one is not
        code = run_cli(
            "compare",
            "--out", tmp_path,
            "--set", "plant.kind=zero_order",
            "--set", "plant.psnr_intercept=50.1",
        )
        assert code == 0
        line = "quality fluctuation reduction: -inf%\n"
        assert capsys.readouterr().out.endswith(line)
        assert (tmp_path / "comparison.txt").read_text().endswith(line)


class TestSweep:
    def test_lambda_grid_rows(self, tmp_path):
        code = run_cli(
            "sweep",
            "--out", tmp_path,
            "--grid", "objective.lambda=0,0.8,1",
            "--set", "plant.disturbance.kind=constant",
            "--set", "plant.disturbance.amplitude=2.0",
        )
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert rows[0].startswith("objective.lambda,avg_psnr,")
        assert len(rows) == 4
        # lambda=1 tracks the setpoint most closely on a constant disturbance
        errors = {
            row.split(",")[0]: float(row.split(",")[2]) for row in rows[1:]
        }
        assert errors["1"] < errors["0.8"] < errors["0"]

    def test_duplicate_grid_points_are_deduplicated(self, tmp_path):
        code = run_cli(
            "sweep",
            "--out", tmp_path,
            "--grid", "gains.kp=2.12,2.12,1.0",
            "--set", "n_frames=20",
        )
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 3

    def test_cartesian_product(self, tmp_path):
        code = run_cli(
            "sweep",
            "--out", tmp_path,
            "--grid", "objective.lambda=0.5,1",
            "--grid", "plant.inertia=0,0.5",
            "--set", "n_frames=20",
        )
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert rows[0].startswith("objective.lambda,plant.inertia,")
        assert len(rows) == 5

    def test_empty_grid_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("sweep", "--out", tmp_path) == 2
        assert capsys.readouterr().err == "error: sweep requires at least one --grid axis\n"

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("nope=1,2", "--grid: unknown key 'nope'"),
            ("gains.kp", "--grid expects KEY=V1,V2,..., got 'gains.kp'"),
            ("gains.kp=,", "--grid: no values for key 'gains.kp'"),
        ],
        ids=["unknown_key", "no_equals", "no_values"],
    )
    def test_a_bad_grid_axis_is_a_usage_error(self, tmp_path, capsys, grid, message):
        assert run_cli("sweep", "--out", tmp_path, "--grid", grid) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_repeated_grid_key_is_a_usage_error(self, tmp_path, capsys):
        # two columns of one key would label rows with values the run never used
        out = tmp_path / "out"
        grid = ["--grid", "objective.lambda=0.5", "--grid", " objective.lambda=1,0.2"]
        assert run_cli("sweep", "--out", out, *grid) == 2
        err = capsys.readouterr().err
        assert err == "error: --grid: key 'objective.lambda' given twice\n"
        assert not out.exists()

    def test_fixed_qp_points_that_differ_only_in_unread_keys_share_one_run(
        self, tmp_path, monkeypatch
    ):
        runs = counted_runs(monkeypatch)
        out = tmp_path / "out"
        grid = [
            "--grid", "mode=controlled,fixed",
            "--grid", "gains.kp=1,2.12",
            "--grid", "kind_pattern=inter,intra_every:5",
            "--grid", "objective.lambda=0.5,1",
            "--grid", "qp_offset=30,34",
        ]
        assert run_cli("sweep", "--out", out, "--set", "n_frames=20", *grid) == 0
        assert sorted(runs) == ["run_closed_loop"] * 16 + ["run_fixed_qp"] * 2
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        for row in rows:
            mode, kp, pattern, lam, offset, *cells = row.split(",")
            point = [f"mode={mode}", f"gains.kp={kp}", f"kind_pattern={pattern}"]
            point += [f"objective.lambda={lam}", f"qp_offset={offset}", "n_frames=20"]
            config = parse_config(None, point)
            run = run_closed_loop if mode == "controlled" else run_fixed_qp
            metrics = compute_metrics(run(config), config.objective)
            assert cells == [f"{v:.6f}" for v in metrics]

    def _table(self, tmp_path):
        # 30 frames tabulating QPs 0, 10, ..., 50 and 51, PSNR falling in QP
        lines = ["frame,qp,psnr_db,bits"]
        for t in range(30):
            level = 50.0 + 0.3 * ((t * 7) % 5)
            for qp in (*range(0, 51, 10), 51):
                bits = 4e5 * 2.0 ** (-(qp - 32) / 6.0)
                lines.append(f"{t},{qp},{level - 0.4 * qp:.3f},{bits:.1f}")
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n")
        return [
            "plant.kind=trace_driven",
            f"plant.trace_path={path}",
            "n_frames=30",
            "objective.lambda=0.6",
        ]

    def test_rows_equal_per_point_runs_and_the_table_loads_once(
        self, tmp_path, monkeypatch
    ):
        # a fixed-QP run reads qp_offset but no gain
        overrides = self._table(tmp_path)
        want = ["mode,gains.kp,qp_offset," + ",".join(MetricsReport._fields)]
        for mode in ("controlled", "fixed"):
            for kp in ("1.5", "2.12", "3"):
                for offset in ("30", "34"):
                    point = [f"mode={mode}", f"gains.kp={kp}", f"qp_offset={offset}"]
                    config = parse_config(None, overrides + point)
                    run = run_closed_loop if mode == "controlled" else run_fixed_qp
                    metrics = compute_metrics(run(config), config.objective)
                    cells = [mode, kp, offset] + [f"{v:.6f}" for v in metrics]
                    want.append(",".join(cells))

        loads = []
        load = TraceTable.load

        def counted(cls, path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(TraceTable, "load", classmethod(counted))
        out = tmp_path / "out"
        grid = ["--grid", "mode=controlled,fixed", "--grid", "gains.kp=1.5,2.12,3"]
        grid += ["--grid", "qp_offset=30,34"]
        assert run_cli("sweep", "--out", out, *as_set(overrides), *grid) == 0
        assert (out / "sweep.csv").read_text() == "\n".join(want) + "\n"
        assert len(loads) == 1

    @pytest.mark.parametrize(
        "bad, message",
        [("-1", "gains.kp"), ("x", "gains.kp")],
        ids=["invalid", "unparsed"],
    )
    def test_a_bad_last_point_exits_two_and_writes_nothing(
        self, tmp_path, capsys, bad, message
    ):
        # the last point is a fixed-QP run, whose metrics no gain changes
        out = tmp_path / "out"
        grid = ["--grid", "mode=controlled,fixed", "--grid", f"gains.kp=1.5,{bad}"]
        overrides = as_set(self._table(tmp_path))
        assert run_cli("sweep", "--out", out, *overrides, *grid) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["2", "x"], ids=["invalid", "unparsed"])
    def test_every_point_is_built_before_the_first_run(
        self, tmp_path, monkeypatch, bad
    ):
        runs = counted_runs(monkeypatch)
        out = tmp_path / "out"
        args = ["sweep", "--out", out, "--set", "n_frames=20", "--grid"]
        assert run_cli(*args, f"objective.lambda=0,0.5,1,{bad}") == 2
        assert runs == []
        assert not out.exists()
        assert run_cli(*args, "objective.lambda=0,0.5,1") == 0
        assert runs == ["run_closed_loop"] * 3

    def test_a_bad_later_point_wins_over_an_earlier_run_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        # the first point alone exits 3: its control_error_pct is not finite
        runs = counted_runs(monkeypatch)
        out = tmp_path / "out"
        args = ["sweep", "--out", out, "--mode", "fixed"]
        assert run_cli(*args, "--grid", "objective.target_psnr=1e-307") == 3
        assert runs == ["run_fixed_qp"]
        capsys.readouterr()
        assert run_cli(*args, "--grid", "objective.target_psnr=1e-307,-1") == 2
        assert capsys.readouterr().err.startswith("error: objective.target_psnr")
        assert runs == ["run_fixed_qp"]
        assert not out.exists()

    def test_rows_equal_one_point_sweeps_in_fresh_processes(self, tmp_path):
        # Points of one disturbance share its column within the sweep; a
        # fresh process starts with no column built.
        src = Path(__file__).resolve().parent.parent / "src"
        base = as_set(
            ["n_frames=60", "plant.disturbance.amplitude=1.5", "plant.disturbance.period=30"]
        )
        grid = ["--grid", "plant.disturbance.kind=seeded_noise,sinusoid"]
        grid += ["--grid", "objective.lambda=0,1"]
        assert run_cli("sweep", "--out", tmp_path / "grid", *base, *grid) == 0
        header, *rows = (tmp_path / "grid" / "sweep.csv").read_bytes().splitlines()
        assert len(rows) == 4
        for row in rows:
            kind, lam = row.decode().split(",")[:2]
            out = tmp_path / f"{kind}_{lam}"
            point = ["--grid", f"plant.disturbance.kind={kind}"]
            point += ["--grid", f"objective.lambda={lam}"]
            subprocess.run(
                [sys.executable, "-m", "qpcontrol.cli", "sweep", "--out", out, *base, *point],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                check=True,
            )
            assert (out / "sweep.csv").read_bytes().splitlines() == [header, row]

    def test_a_sweep_builds_each_distinct_disturbance_once(self, tmp_path):
        overrides = [
            "n_frames=40", "plant.disturbance.amplitude=1.5", "plant.disturbance.period=30"
        ]
        grid = [
            "plant.disturbance.kind=seeded_noise,sinusoid",
            "objective.lambda=0,1",
            "mode=controlled,fixed",
            "kind_pattern=inter,intra_every:12",
        ]
        _memo_column.cache_clear()
        args = as_set(overrides) + [arg for axis in grid for arg in ("--grid", axis)]
        assert run_cli("sweep", "--out", tmp_path / "out", *args) == 0
        assert _memo_column.cache_info().misses == 2

    @pytest.mark.parametrize(
        "grid, flag",
        [
            ("mode=fixed,controlled", ["--mode", "fixed"]),
            ("plant.disturbance.seed=1,2", ["--seed", "5"]),
        ],
        ids=["mode", "seed"],
    )
    def test_a_grid_axis_on_a_flags_key_exits_two(
        self, tmp_path, monkeypatch, capsys, grid, flag
    ):
        # Every point would run with the flag's value but be labelled with
        # its own grid value.
        runs = counted_runs(monkeypatch)
        out = tmp_path / "out"
        args = ["--set", "n_frames=50", "--grid", grid, *flag]
        assert run_cli("sweep", "--out", out, *args) == 2
        key = grid.partition("=")[0]
        assert capsys.readouterr().err == f"error: --grid: key {key!r} is also set by {flag[0]}\n"
        assert runs == []
        assert not out.exists()


class TestReproducibility:
    @pytest.mark.parametrize(
        "args",
        [
            ["identify", "--set", "n_frames=64"],
            [
                "compare",
                "--set", "plant.disturbance.kind=sinusoid",
                "--set", "plant.disturbance.amplitude=1.0",
                "--set", "plant.disturbance.period=30",
            ],
            ["sweep", "--grid", "objective.lambda=0.5,1", "--set", "n_frames=20"],
        ],
        ids=["identify", "compare", "sweep"],
    )
    def test_every_emitted_file_is_byte_reproducible(self, tmp_path, args):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run_cli(*args, "--out", first) == 0
        assert run_cli(*args, "--out", second) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run_cli("simulate", "--config", tmp_path / "nope.cfg", "--out", tmp_path) == 2

    def test_bad_override(self, tmp_path):
        assert run_cli("simulate", "--out", tmp_path, "--set", "gains.kp=-1") == 2

    def test_unknown_override_key(self, tmp_path):
        assert run_cli("simulate", "--out", tmp_path, "--set", "nope=1") == 2

    @pytest.mark.parametrize("key", INVALID_VALUES)
    def test_an_invariant_error_starts_with_its_config_key(self, tmp_path, capsys, key):
        overrides = as_set(INVALID_VALUES[key])
        assert run_cli("simulate", "--out", tmp_path, *overrides) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "override",
        [
            "plant.psnr_intercept=inf",
            "plant.psnr_intercept=nan",
            "plant.disturbance.amplitude=nan",
            "plant.disturbance.amplitude=-inf",
            "qp_offset=nan",
            "qp_offset=-inf",
            "plant.rate_ref_bits=inf",
            "plant.rate_ref_bits=nan",
        ],
    )
    def test_a_non_finite_value_exits_two_naming_its_key(self, tmp_path, capsys, override):
        key, value = override.split("=")
        rule = " and >= 0" if key == "plant.rate_ref_bits" else ""
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", out, "--set", override) == 2
        assert capsys.readouterr().err == f"error: {key} must be finite{rule}, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("tail", ["1_0", "+4", "\u0663", " 4"])
    def test_a_period_not_in_ascii_digits_exits_two_naming_its_key(
        self, tmp_path, capsys, tail
    ):
        pattern = f"intra_every:{tail}"
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--out", out, "--set", "n_frames=5", "--set", f"kind_pattern={pattern}"
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: kind_pattern {pattern!r}: bad intra_every period {tail!r}\n"
        )
        assert not out.exists()

    def test_trace_shorter_than_the_run_exits_two(self, tmp_path, capsys):
        # the trace covers frames 0..1 only, so the config fails at load
        trace = tmp_path / "short.csv"
        trace.write_text(TRACE_TEXT)
        code = run_cli(
            "simulate",
            "--out", tmp_path,
            "--set", "plant.kind=trace_driven",
            "--set", f"plant.trace_path={trace}",
            "--set", "n_frames=300",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "n_frames" in err and "plant.trace_path" in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "table, qp_offset, message",
        [
            # the anchor QP 45 lies outside the tabulated span [30, 40]
            (TRACE_TEXT, 45, "qp 45 outside tabulated span [30, 40] at frame 0"),
            # QP 25 interpolates between +-1.7e308 past the float range
            (
                "frame,qp,psnr_db,bits\n0,0,1.7e308,0\n0,51,-1.7e308,0\n",
                25,
                "psnr must be finite, got -inf",
            ),
        ],
        ids=["outside_the_span", "interpolates_past_the_float_range"],
    )
    def test_runtime_error_exits_three(self, tmp_path, capsys, table, qp_offset, message):
        trace = tmp_path / "table.csv"
        trace.write_text(table)
        out = tmp_path / "out"
        code = run_cli(
            "simulate",
            "--out", out,
            "--set", "plant.kind=trace_driven",
            "--set", f"plant.trace_path={trace}",
            "--set", "n_frames=1",
            "--set", f"qp_offset={qp_offset}",
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_run_too_large_for_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setattr(cli, "run_closed_loop", exhausted)
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "memory" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", [kind.value for kind in DisturbanceKind])
    def test_more_frames_than_any_list_holds_exits_three_at_once(self, tmp_path, kind):
        # In a child capped at 256 MiB of address space, so that a kind that
        # builds frames before it fails stays bounded and fails the peak check
        # instead of filling the runner's memory.
        src = Path(__file__).resolve().parent.parent / "src"
        overrides = [
            f"n_frames={sys.maxsize}",
            f"plant.disturbance.kind={kind}",
            "plant.disturbance.amplitude=1",
            "plant.disturbance.period=30",
        ]
        out = tmp_path / "out"
        child = subprocess.run(
            [sys.executable, "-c", CAPPED_MAIN, "simulate", "--out", out, *as_set(overrides)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 3
        assert child.stderr == "error: out of memory; n_frames may be too large\n"
        assert int(child.stdout) < 64 * 1024  # peak RSS in KiB: no frame was built
        assert not out.exists()

    @pytest.mark.parametrize("period, code", [(1, 2), (2, 2), (3, 0)])
    def test_a_sinusoid_period_below_three_exits_two_at_load(
        self, tmp_path, capsys, period, code
    ):
        # periods 1 and 2 sample the sine only at its zeros, so the fixed-QP
        # fluctuation would be float residue
        overrides = [
            "objective.target_psnr=36",
            "plant.disturbance.kind=sinusoid",
            "plant.disturbance.amplitude=0.5",
            f"plant.disturbance.period={period}",
        ]
        out = tmp_path / "out"
        assert run_cli("compare", "--out", out, *as_set(overrides)) == code
        if code:
            assert capsys.readouterr().err == (
                "error: plant.disturbance.period must be >= 3 for a sinusoid "
                f"disturbance, got {period}\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "identify"])
    @pytest.mark.parametrize(
        "overrides",
        [
            ["plant.rate_ref_qp=10000"],
            ["plant.rate_ref_bits=1e308", "plant.rate_ref_qp=40"],
        ],
        ids=["pow_overflows", "bits_overflow"],
    )
    def test_rate_overflow_exits_two_at_load(self, tmp_path, capsys, command, overrides):
        args = [command, "--out", tmp_path]
        for override in overrides:
            args += ["--set", override]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert "plant.rate_ref_qp" in err and "plant.rate_ref_bits" in err
        assert list(tmp_path.iterdir()) == []

    def test_bits_total_overflow_exits_two_at_load(self, tmp_path, capsys):
        # each frame's 1e306 bits is finite, but 300 of them are not
        code = run_cli(
            "simulate",
            "--out", tmp_path,
            "--set", "plant.rate_ref_bits=1e306",
            "--set", "range.qp_min=32",
            "--mode", "fixed",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "plant.rate_ref_bits" in err and "n_frames" in err
        assert list(tmp_path.iterdir()) == []

    def test_trace_bits_total_overflow_exits_three(self, tmp_path, capsys):
        trace = tmp_path / "huge.csv"
        trace.write_text(
            "frame,qp,psnr_db,bits\n"
            "0,30,38.0,1e308\n0,40,34.0,1e308\n"
            "1,30,37.5,1e308\n1,40,33.5,1e308\n"
        )
        code = run_cli(
            "simulate",
            "--out", tmp_path / "out",
            "--set", "plant.kind=trace_driven",
            "--set", f"plant.trace_path={trace}",
            "--set", "n_frames=2",
            "--mode", "fixed",
            "--set", "qp_offset=35",
        )
        assert code == 3
        assert "bits column" in capsys.readouterr().err

    def test_identify_on_a_too_narrow_trace_exits_two_before_the_run(
        self, tmp_path, capsys
    ):
        # 64 frames tabulating QPs 30 and 40 only; the impulse drives 0 and 51
        trace = tmp_path / "narrow.csv"
        trace.write_text(
            "frame,qp,psnr_db,bits\n"
            + "".join(f"{t},30,38.0,500000\n{t},40,34.0,200000\n" for t in range(64))
        )
        common = [
            "--set", "plant.kind=trace_driven",
            "--set", f"plant.trace_path={trace}",
            "--set", "n_frames=64",
        ]
        out = tmp_path / "out"
        assert run_cli("identify", "--out", out, *common) == 2
        err = capsys.readouterr().err
        assert "range.qp_min" in err and "plant.trace_path" in err
        assert "qp 0 outside tabulated span [30, 40] at frame 0" in err
        assert not out.exists()
        assert run_cli("identify", "--out", out, *common, "--set", "range.qp_min=30") == 2
        err = capsys.readouterr().err
        assert "range.qp_max" in err
        assert "qp 51 outside tabulated span [30, 40] at frame 1" in err
        assert not out.exists()
        narrowed = common + ["--set", "range.qp_min=30", "--set", "range.qp_max=40"]
        assert run_cli("identify", "--out", out, *narrowed) == 0

    @pytest.mark.parametrize("command", ["simulate", "identify"])
    def test_qp_max_past_the_float_range_exits_two_at_load(
        self, tmp_path, capsys, command
    ):
        # bits fall as QP rises, but the QP offset itself cannot become a float
        code = run_cli(command, "--out", tmp_path, "--set", f"range.qp_max={10**400}")
        assert code == 2
        err = capsys.readouterr().err
        assert "plant.rate_ref_bits" in err
        assert f"range.qp_max={10**400}" in err and "range.qp_min" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "compare", "identify"])
    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("n_frames", [f"n_frames={sys.maxsize + 1}"]),
            ("n_frames", [f"n_frames={10**400}"]),
            (
                "plant.disturbance.period",
                ["plant.disturbance.kind=sinusoid", f"plant.disturbance.period={10**400}"],
            ),
        ],
        ids=["frames_past_maxsize", "frames_past_the_float_range", "period_past_the_float_range"],
    )
    def test_an_integer_no_run_can_use_exits_two_at_load(
        self, tmp_path, capsys, monkeypatch, command, key, overrides
    ):
        runs = counted_runs(monkeypatch)
        assert run_cli(command, "--out", tmp_path, *as_set(overrides)) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must ")
        assert runs == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (
                [
                    "--set", "plant.rate_ref_bits=1e200",
                    "--set", "plant.disturbance.kind=step",
                    "--set", "plant.disturbance.amplitude=2.0",
                    "--set", "plant.disturbance.step_frame=100",
                ],
                "bit_fluc",
            ),
            (
                ["--set", "objective.target_psnr=1e-307", "--mode", "fixed"],
                "control_error_pct",
            ),
        ],
        ids=["bit_fluc_squares_overflow", "pct_of_a_tiny_target"],
    )
    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
    def test_non_finite_metric_exits_three_before_writing(
        self, tmp_path, capsys, command, overrides, field
    ):
        grid = ["--grid", "gains.kp=2.12"] if command == "sweep" else []
        assert run_cli(command, "--out", tmp_path, *overrides, *grid) == 3
        assert field in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("simulate", ["--set", "objective.target_psnr=1e-307", "--mode", "fixed"]),
            ("compare", ["--set", "objective.target_psnr=1e-307"]),
            ("sweep", ["--set", "objective.target_psnr=1e-307", "--grid", "mode=fixed"]),
            # PSNR falls by less than an ulp over the impulse: an all-zero response
            ("identify", ["--set", "plant.psnr_slope=5e-324"]),
        ],
    )
    def test_a_failed_run_creates_no_out_directory(
        self, tmp_path, capsys, command, overrides
    ):
        assert run_cli(command, "--out", tmp_path / "new" / "x", *overrides) == 3
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["afile", "afile/sub", "link", "link/sub"])
    @pytest.mark.parametrize("command", ["simulate", "identify", "compare", "sweep"])
    def test_an_out_that_is_not_a_directory_exits_two_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, out
    ):
        runs = counted_runs(monkeypatch)
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "link").symlink_to("nowhere")
        before = sorted(tmp_path.iterdir())
        grid = ["--grid", "objective.lambda=0,1"] if command == "sweep" else []
        out = tmp_path / out
        assert run_cli(command, "--out", out, "--set", "n_frames=20", *grid) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: ")
        assert runs == []
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_a_config_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"\xff\xfen_frames = 20\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: not UTF-8 text: ")
        assert not out.exists()

    def test_a_trace_table_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        trace = tmp_path / "latin.csv"
        trace.write_bytes(TRACE_TEXT.encode() + b"2,30,37.0,\xff\n")
        out = tmp_path / "out"
        overrides = ["plant.kind=trace_driven", f"plant.trace_path={trace}", "n_frames=2"]
        assert run_cli("simulate", "--out", out, *as_set(overrides)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: plant.trace_path: not UTF-8 text: ")
        assert not out.exists()

    def test_a_relative_trace_path_resolves_against_the_working_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        """Not against the directory of the config file that names it."""
        cfgdir = tmp_path / "cfgdir"
        cfgdir.mkdir()
        (cfgdir / "t.csv").write_text(TRACE_TEXT)
        (cfgdir / "exp.cfg").write_text(
            "plant.kind = trace_driven\nplant.trace_path = t.csv\nn_frames = 2\n"
        )
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", "--config", "cfgdir/exp.cfg", "--out", "out") == 2
        err = capsys.readouterr().err
        assert err == "error: plant.trace_path: trace file not found: t.csv\n"
        assert not (tmp_path / "out").exists()
        monkeypatch.chdir(cfgdir)
        assert run_cli("simulate", "--config", "exp.cfg", "--out", "out") == 0
        assert (cfgdir / "out" / "trace.csv").is_file()

    @pytest.mark.parametrize("directory", ["config", "trace"])
    def test_a_directory_given_as_an_input_is_not_a_regular_file(
        self, tmp_path, capsys, directory
    ):
        # It exists, so "not found" would send the user looking for it.
        folder = tmp_path / "folder"
        folder.mkdir()
        if directory == "config":
            args, message = ["--config", folder], f"config file is not a regular file: {folder}"
        else:
            overrides = ["plant.kind=trace_driven", f"plant.trace_path={folder}"]
            args = as_set(overrides)
            message = f"plant.trace_path: trace file is not a regular file: {folder}"
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", out, *args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("unreadable", ["config", "trace"])
    def test_an_input_that_cannot_be_read_exits_two(
        self, tmp_path, capsys, monkeypatch, unreadable
    ):
        config, trace = tmp_path / "run.cfg", tmp_path / "trace.csv"
        trace.write_text(TRACE_TEXT)
        config.write_text(
            f"plant.kind = trace_driven\nplant.trace_path = {trace}\nn_frames = 2\n"
        )
        deny_reads(monkeypatch, config if unreadable == "config" else trace)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        prefix = f"{config}: " if unreadable == "config" else "plant.trace_path: "
        assert err.startswith(f"error: {prefix}")
        assert "Permission denied" in err
        assert not out.exists()

    @pytest.mark.parametrize("char", ["\v", "\f", "\x85", "\u2028"])
    def test_only_cr_and_lf_end_a_config_line(self, tmp_path, capsys, char):
        config = tmp_path / "one_line.cfg"
        config.write_text(f"n_frames = 20{char}gains.kp = 2\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", config, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: n_frames: expected an integer")
        assert not out.exists()

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
    @pytest.mark.parametrize(
        "command, option", [("simulate", "--set"), ("sweep", "--grid")]
    )
    def test_an_assignment_holding_a_line_break_exits_two(
        self, tmp_path, capsys, command, option, newline
    ):
        out = tmp_path / "out"
        assignment = f"gains.kp=1{newline}n_frames=20"
        assert run_cli(command, "--out", out, option, assignment) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: override[0]:1: expected 'key = value'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "assignment, message",
        [("#n_frames=5", "unknown key '#n_frames'"), ("", "expected 'key = value', got ''")],
        ids=["comment", "empty"],
    )
    def test_a_command_line_assignment_is_never_a_comment_or_blank(
        self, tmp_path, monkeypatch, capsys, assignment, message
    ):
        # Read as a config line, either would set nothing and run 300 frames.
        runs = counted_runs(monkeypatch)
        out = tmp_path / "out"
        assert run_cli("simulate", "--out", out, "--set", assignment) == 2
        assert capsys.readouterr().err == f"error: override[0]:1: {message}\n"
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, args, message",
        [
            (
                "simulate",
                ["--set", "kind_pattern=intra#every", "--set", "n_frames=5"],
                "kind_pattern: a command-line value cannot hold '#'",
            ),
            (
                "sweep",
                ["--grid", "kind_pattern=intra#x,inter"],
                "kind_pattern: a command-line value cannot hold '#'",
            ),
            ("simulate", ["--set", "bogus=1#"], "override[0]:1: unknown key 'bogus'"),
        ],
        ids=["set", "grid", "unknown_key"],
    )
    def test_a_hash_in_a_command_line_value_exits_two(
        self, tmp_path, capsys, command, args, message
    ):
        # As a config line, the value would be cut at the '#' and run as
        # something else. An unknown key is named as one, '#' or not.
        out = tmp_path / "out"
        assert run_cli(command, "--out", out, *args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_config_file_with_a_utf8_bom_is_read(self, tmp_path, capsys):
        config = tmp_path / "bom.cfg"
        config.write_bytes(b"\xef\xbb\xbfn_frames = 20\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", config, "--out", out) == 0
        assert (out / "trace.csv").read_text().count("\n") == 21

    def test_a_trace_table_with_a_utf8_bom_is_read(self, tmp_path, capsys):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(TRACE_TEXT)
        bom.write_bytes(b"\xef\xbb\xbf" + TRACE_TEXT.replace("\n", "\r\n").encode())
        emitted = []
        for trace in (plain, bom):
            out = tmp_path / trace.stem
            overrides = ["plant.kind=trace_driven", f"plant.trace_path={trace}", "n_frames=2"]
            assert run_cli("simulate", "--out", out, *as_set(overrides)) == 0
            emitted.append((out / "trace.csv").read_bytes())
        assert emitted[0] == emitted[1]

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "identify", "compare", "sweep"])
def test_every_command_takes_the_shared_options_and_only_sweep_a_grid(command):
    shared = ["--config", "c.cfg", "--out", "o", "--set", "n_frames=5", "--seed", "3"]
    args = build_parser().parse_args([command, *shared, "--mode", "fixed"])
    assert (args.config, args.out, args.overrides) == (Path("c.cfg"), Path("o"), ["n_frames=5"])
    assert (args.seed, args.mode) == (3, "fixed")
    grid = [command, "--grid", "gains.kp=1,2"]
    if command == "sweep":
        assert build_parser().parse_args(grid).grid == ["gains.kp=1,2"]
    else:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(grid)
        assert excinfo.value.code == 2


def test_importing_the_cli_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, qpcontrol.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_emitted_bytes_do_not_depend_on_the_locale(tmp_path):
    # Paths and arguments go as bytes, so the test also runs where the
    # suite itself runs under an ASCII locale.
    src = Path(__file__).resolve().parent.parent / "src"
    rows = "".join(f"{t},0,50.0,1000\n{t},51,30.0,100\n" for t in range(20))
    for name in (b"plain.csv", "t\u00e9.csv".encode()):
        path = os.path.join(os.fsencode(tmp_path), name)
        with open(path, "w", encoding="utf-8") as table:
            table.write("frame,qp,psnr_db,bits\n" + rows)
    emitted = []
    for locale in ("C", "C.UTF-8"):
        env = {
            **os.environ,
            "PYTHONPATH": str(src),
            "LC_ALL": locale,
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
        }
        subprocess.run(
            [
                sys.executable, "-m", "qpcontrol.cli", "sweep", "--out", locale,
                "--set", "plant.kind=trace_driven", "--set", "n_frames=20",
                "--grid", "plant.trace_path=plain.csv,t\u00e9.csv".encode(),
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            check=True,
        )
        emitted.append((tmp_path / locale / "sweep.csv").read_bytes())
    assert emitted[0] == emitted[1]
    assert emitted[0].splitlines()[2].startswith("t\u00e9.csv,".encode())


HOSTILE_VALUES = [
    "0", "-1", "1e308", "1e309", "nan", "inf", str(10**400), str(-10**400),
    "none", "", "word",
    *(member.value for enum in (RunMode, PlantKind, DisturbanceKind) for member in enum),
]


@st.composite
def hostile_overrides(draw):
    key = draw(st.sampled_from(list(SCHEMA)))
    values = st.sampled_from(HOSTILE_VALUES)
    if key == "n_frames":
        # A count that a list can hold would allocate the whole run.
        counts = st.integers(-2, 64) | st.integers(sys.maxsize + 1, 10**400)
        values |= counts.map(str)
    return f"{key}={draw(values)}"


@settings(deadline=None)
@given(override=hostile_overrides())
@example(override=f"n_frames={10**400}")
@example(override=f"plant.disturbance.period={10**400}")
def test_any_one_hostile_value_exits_zero_two_or_three(override):
    overrides = [
        "n_frames=40",
        "plant.disturbance.kind=sinusoid",
        "plant.disturbance.amplitude=1.0",
        "plant.disturbance.period=30",
        override,
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("simulate", "compare", "identify"):
            code = run_cli(command, "--out", Path(tmp) / command, *as_set(overrides))
            assert code in (0, 2, 3), (command, override)
