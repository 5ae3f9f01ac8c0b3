"""The measurements behind ``run.py``: one benchmark run of one workload.

A ``Bench`` owns the run's scratch directory, a ``launch.py`` helper that
starts every child process, the in-process reference outputs, and the
operation counts. ``end_to_end`` gives the end-to-end metrics with tracing
off; ``traced`` gives the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from qpcontrol import compute_metrics, estimate_order

import layers
import validate
from compare import summary

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

IMPORT_REPS = 5  # -X importtime probes per traced run
MIN_ROUNDS = 5  # timed rounds per run, even past the window
IN_PROCESS_MIN_S = 0.25  # timed run time per worker, in whole passes after an untimed one
CHILD_TIMEOUT_S = 60
DEADLINE_S = 150  # start no round after this; a run must end within 180 s
# The traced run's top-level spans may differ from the untraced run by the
# tracing overhead plus this share: over 3x the largest gap between the two
# seen on a correct benchmark, well below a double-counted span tree.
ACCOUNTING_TOL = 0.10
SETUP_CODE = "import sys; from qpcontrol.cli import parse_config; parse_config(sys.argv[1])"

pc = time.perf_counter_ns
SPANNED = (
    "cli.main",
    "config.parse_config",
    "plant.trace_load",
    "harness.run",
    "harness.compute_metrics",
    "harness.emit",
    "sysid.run_impulse",
    "sysid.estimate_order",
)


class Bench:
    """One benchmark run: operation counts, validation and the measurements."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.problems: list[str] = []
        self.digests: dict = {}
        self.self_check_ok = True

        # Parse every config once, run everything once: the in-process
        # reference that CLI outputs and later passes must match.
        self.runs = layers.prepare(workload)
        self.target = self.runs[0].config.objective.target_psnr
        self.reference = [self.operation(layers.execute, run) for run in self.runs]
        self.reference_digest = layers.outputs_digest(self.reference)
        self.frames_by_label = {run.label: run.config.n_frames for run in self.runs}
        self.sweep_rows = []
        self.compare_ref = {}
        for run, output in zip(self.runs, self.reference):
            if output is None:
                continue
            try:
                self.check_reference(run, output)
            except Exception as exc:  # a broken program fails its run, not the benchmark
                self.fail(layers.module_of(exc), f"{run.label}: {exc!r}")
        # Started last, so a failure above leaves no process behind.
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def check_reference(self, run, output) -> None:
        """Validate one reference run and keep what later checks compare to."""
        if run.kind == layers.IMPULSE:
            estimate = estimate_order(output.response)
            pole_error = abs((estimate.pole or 0.0) - self.workload.inertia)
            if estimate.order != 1 or pole_error > validate.POLE_TOL:
                self.fail("sysid", f"in-process identify: {estimate}")
            return
        problems = validate.records_problems(run.label, output, self.workload, run.config)
        if problems:
            self.fail("harness", *problems)
        metrics = compute_metrics(output, run.config.objective)
        if self.workload.grid:
            self.sweep_rows.append(layers.sweep_row(run.label.split(","), metrics))
        elif run.label.startswith("compare."):
            self.compare_ref[run.label.split(".")[1]] = validate.fsum_metrics(
                [r.psnr for r in output], [r.bits for r in output], self.target
            )

    # -- bookkeeping --------------------------------------------------------

    def fail(self, module: str, *problems: str) -> None:
        self.failed += 1
        self.errors[module] += 1
        self.problems.extend(problems)

    def operation(self, fn, *args):
        """One in-process operation; an exception counts as its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark reports failures and goes on
            self.fail(layers.module_of(exc), f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    # -- children -----------------------------------------------------------

    def spawn(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Run one child; return wall seconds, peak RSS in MiB and exit code."""
        request = {
            "argv": argv,
            "log": str(log),
            "cwd": str(self.work),
            "env": self.env,
            "timeout": CHILD_TIMEOUT_S,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["wall_s"], reply["rss_mib"], reply["code"]

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=CHILD_TIMEOUT_S)

    def setup_sample(self, index: int) -> float:
        self.attempted += 1
        log = self.work / f"setup{index}.log"
        wall, _, code = self.spawn(
            [sys.executable, "-c", SETUP_CODE, str(self.workload.config)], log
        )
        if code != 0:
            self.fail("config", f"set-up process exited {code}: {log.read_text()[-500:]}")
        return wall

    def check(self, command: str, out: Path) -> list[str]:
        try:
            if command == "simulate":
                return validate.check_simulate(out, self.workload, self.target)
            if command == "compare":
                return validate.check_compare(out, self.compare_ref, self.target)
            if command == "identify":
                return validate.check_identify(out, self.workload)
            return validate.check_sweep(
                out, self.sweep_rows, layers.sweep_header(self.workload)
            )
        except Exception as exc:  # unreadable output is a failed check
            return [f"{command}: {exc!r}"]

    def cli_round(self, index: int) -> tuple[dict, float]:
        """Every CLI command of the workload once: wall seconds per command
        and the largest peak RSS in MiB."""
        out_root = self.work / f"round{index}"
        out_root.mkdir()
        walls, peak = {}, 0.0
        for command in self.workload.commands:
            out = out_root / command
            argv = [sys.executable, "-m", "qpcontrol.cli"] + self.workload.cli_args(
                command, out
            )
            log = out_root / f"{command}.log"
            walls[command], rss, code = self.spawn(argv, log)
            self.attempted += 1
            peak = max(peak, rss)
            if code != 0:
                self.fail("cli", f"{command} exited {code}: {log.read_text()[-500:]}")
                continue
            problems = self.check(command, out)
            if not problems and self.digests.setdefault(command, validate.digest(out)) != validate.digest(out):
                problems = [f"{command}: outputs differ from the first repetition"]
            if problems:
                self.fail("cli", *problems)
        if index > 0:
            shutil.rmtree(out_root)
        return walls, peak

    def self_check(self) -> None:
        """A corrupted copy of round 0's outputs must fail validation."""
        for command in self.workload.commands:
            if command not in self.digests:  # round 0 already failed it
                continue
            source = self.work / "round0" / command
            damaged = self.work / "corrupted" / command
            shutil.copytree(source, damaged)
            validate.corrupt(command, damaged)
            if not self.check(command, damaged):
                self.self_check_ok = False
                self.problems.append(f"self-check: corrupted {command} output passed")

    # -- in-process ---------------------------------------------------------

    def worker_round(self, index: int, run_ns: dict) -> None:
        """One fresh ``inprocess.py`` worker; merges its per-run times."""
        log = self.work / f"worker{index}.log"
        argv = [sys.executable, str(HERE / "inprocess.py"), self.workload.to_json(),
                str(IN_PROCESS_MIN_S)]
        _, _, code = self.spawn(argv, log)
        try:
            reply = json.loads(log.read_text().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            reply = None
        if code != 0 or reply is None:
            self.attempted += 1
            self.fail("harness", f"in-process worker exited {code}: {log.read_text()[-500:]}")
            return
        self.attempted += reply["attempted"]
        self.failed += sum(reply["errors"].values())
        self.errors.update(reply["errors"])
        self.problems.extend(reply["problems"])
        if reply["digest"] != self.reference_digest:
            self.fail("harness", "in-process worker outputs differ from the reference")
        for label, samples in reply["run_ns"].items():
            run_ns.setdefault(label, []).extend(samples)

    # -- the two kinds of run -----------------------------------------------

    def end_to_end(self, seconds: float, started: int) -> dict:
        """Rounds of (CLI commands, one set-up process, one in-process
        worker) until ``seconds`` have passed. ``wall_s`` is the sum over
        commands of each command's median, ``setup_s`` and ``peak_rss_mb``
        are medians, and ``frames_per_s`` is the frames of one pass over the
        sum of each run's best time across all workers' timed passes."""
        self.cli_round(0)  # warm-up: fills bytecode caches, reference digests
        self.self_check()
        walls: dict[str, list] = {}
        run_ns: dict[str, list] = {}
        setup, peaks = [], []
        window = pc()
        while len(peaks) < MIN_ROUNDS or (pc() - window) / 1e9 < seconds:
            if (pc() - started) / 1e9 > DEADLINE_S:
                break
            round_walls, peak = self.cli_round(len(peaks) + 1)
            for command, wall in round_walls.items():
                walls.setdefault(command, []).append(wall)
            peaks.append(peak)
            setup.append(self.setup_sample(len(peaks)))
            self.worker_round(len(peaks), run_ns)
        for name, samples in [("setup", setup), ("peak_rss_mb", peaks)] + sorted(walls.items()):
            median, q1, q3 = summary(samples)
            print(f"{self.workload.name} {name}: median {median:.6g} "
                  f"(p25 {q1:.6g}, p75 {q3:.6g}, n={len(samples)})")
        # Best of N, as timeit takes it: the machine's slowdowns last from
        # seconds to minutes, so a run's median or total depends on the share
        # of its window they covered, while each run's best time does not.
        frames = sum(self.frames_by_label[label] for label in run_ns)
        run_s = sum(min(xs) for xs in run_ns.values()) / 1e9
        return {
            "wall_s": sum(statistics.median(xs) for xs in walls.values()),
            "setup_s": statistics.median(setup),
            "frames_per_s": frames / run_s if run_s else 0.0,
            "peak_rss_mb": statistics.median(peaks),
        }

    def cli_in_process(self, index: int, tracer) -> None:
        """``qpcontrol.cli.main`` in-process for every command, recorded in
        ``tracer``; its outputs must equal the fresh-process CLI's."""
        out_root = self.work / f"in_process{index}"
        problems = self.operation(layers.run_cli, self.workload, out_root, tracer)
        if problems is not None:
            for command in self.workload.commands:
                got = validate.digest(out_root / command)
                if command in self.digests and got != self.digests[command]:
                    problems.append(f"in-process {command}: outputs differ from the CLI's")
            if problems:
                self.fail("cli", *problems)
        shutil.rmtree(out_root, ignore_errors=True)

    def traced(self, seconds: float, started: int, spans_path: Path) -> dict:
        """Pairs of in-process CLI runs, one untraced and one traced, until
        ``seconds`` have passed; per-layer medians. The last traced run's
        spans are written to ``spans_path`` as JSON lines."""
        self.cli_round(0)
        self.self_check()
        imports = []
        for _ in range(IMPORT_REPS):
            self.attempted += 1
            try:
                imports.append(layers.import_times(sys.executable, self.env))
            except (subprocess.SubprocessError, KeyError) as exc:
                self.fail("cli", f"import probe: {exc!r}")
        timer_ns = layers.timer_cost_ns()
        span_ns = layers.span_cost_ns()
        harness_frames = sum(
            run.config.n_frames for run in self.runs if run.kind != layers.IMPULSE
        )
        trace_rows = 0
        plant = self.runs[0].config.plant
        if plant.trace is not None:
            trace_rows = sum(len(rows) for rows in plant.trace.rows.values())

        samples: dict[str, list] = {}

        def add(name, value):
            samples.setdefault(name, []).append(value)

        tracer = layers.Tracer(self.workload.name)
        window = pc()
        reps = 0
        while reps < 3 or (pc() - window) / 1e9 < seconds:
            if (pc() - started) / 1e9 > DEADLINE_S:
                break
            reps += 1
            # The untraced run has only the top-level ``cli.main`` spans.
            plain = layers.Tracer(self.workload.name)
            tracer = layers.Tracer(self.workload.name)
            pair = [plain, tracer] if reps % 2 else [tracer, plain]  # neither always first
            for run_tracer in pair:
                gc.collect()
                if run_tracer is tracer:
                    with layers.traced_cli(tracer):
                        self.cli_in_process(reps, tracer)
                else:
                    self.cli_in_process(reps, plain)
            plain_ns = plain.top_level_ns()
            if not plain_ns:  # a failed run; already counted
                continue
            # Sum of the traced run's top-level spans = sum of all its self times.
            add("ratio", tracer.top_level_ns() / plain_ns)
            add("overhead", (len(tracer.spans) - len(plain.spans)) * span_ns / plain_ns)
            add("plain_ns", plain_ns)
            totals, calls = tracer.self_times()
            for name in SPANNED:
                add(f"{name}.s", totals.get(name, 0) / 1e9)
                add(f"{name}.calls", calls.get(name, 0))
            add("harness.emit.bytes", tracer.emitted)

            # Primitive replay, plain then with every call timed.
            gc.collect()
            t0 = pc()
            for run in self.runs:
                if run.kind != layers.IMPULSE:
                    self.operation(layers.replay_plain, run)
            add("replay_ns", pc() - t0)
            prim_calls, prim_ns = Counter(), Counter()
            for run, output in zip(self.runs, self.reference):
                replayed = self.operation(layers.replay_timed, run, prim_calls, prim_ns)
                if replayed is not None and output is not None:
                    mismatch = layers.replay_mismatch(run, output, replayed)
                    if mismatch:
                        self.fail("harness", mismatch)
            for name, count in prim_calls.items():
                add(f"{name}.calls", count)
                add(f"{name}.us", (prim_ns[name] / count - timer_ns) / 1e3)

        with open(spans_path, "w") as sink:
            for name, start, end, parent, workload in tracer.spans:
                sink.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                       "parent": parent, "workload": workload}) + "\n")

        def med(name):
            return statistics.median(samples[name]) if name in samples else 0

        run_us = med("harness.run.s") * 1e6 / harness_frames if harness_frames else 0.0
        replay_us = med("replay_ns") / 1e3 / harness_frames if harness_frames else 0.0
        gap, overhead = med("ratio") - 1.0, med("overhead")
        accounted = abs(gap) <= overhead + ACCOUNTING_TOL
        print(
            f"trace: {reps} pairs; untraced CLI {med('plain_ns') / 1e9:.4f} s; traced "
            f"top-level spans {100 * gap:+.2f}% of it (median of pairs); tracing overhead "
            f"{100 * overhead:.3f}% (spans x {span_ns:.0f} ns); tolerance "
            f"{100 * ACCOUNTING_TOL:.0f}%: {'ok' if accounted else 'FAIL'}"
        )
        if not accounted:
            self.fail("cli", f"traced spans are {100 * gap:+.2f}% of the untraced run, beyond "
                             f"the {100 * overhead:.3f}% overhead + {100 * ACCOUNTING_TOL:.0f}%")
        for name in sorted(samples):
            if "[" in name and name.endswith(".us"):
                print(f"{self.workload.name} {name} = {med(name):.6g} us")
        metrics = {
            "cli.import.s": statistics.median(i for i, _ in imports) if imports else 0.0,
            "cli.import_numpy.s": statistics.median(n for _, n in imports) if imports else 0.0,
            "config.parse_config.calls": med("config.parse_config.calls"),
            "config.parse_config.s": med("config.parse_config.s"),
            "plant.trace_load.calls": med("plant.trace_load.calls"),
            "plant.trace_load.s": med("plant.trace_load.s"),
            "plant.trace_rows": trace_rows,
            "plant.step_plant.calls": med("plant.step_plant.calls"),
            "plant.step_plant.us": med("plant.step_plant.us"),
            "plant.disturbance_at.us": med("plant.disturbance_at.us"),
            "plant.lookup.us": med("plant.lookup.us"),
            "controller.controller_frame.calls": med("controller.controller_frame.calls"),
            "controller.controller_frame.us": med("controller.controller_frame.us"),
            "controller.compute_error.us": med("controller.compute_error.us"),
            "harness.run.calls": med("harness.run.calls"),
            "harness.run.s": med("harness.run.s"),
            "harness.run.us_per_frame": run_us,
            "harness.overhead.us_per_frame": run_us - replay_us,
            "harness.compute_metrics.s": med("harness.compute_metrics.s"),
            "harness.emit.s": med("harness.emit.s"),
            "harness.emit.bytes": med("harness.emit.bytes"),
            "cli.main.s": med("cli.main.s"),
            "sysid.run_impulse.s": med("sysid.run_impulse.s"),
            "sysid.estimate_order.s": med("sysid.estimate_order.s"),
            "trace.overhead_frac": overhead,
        }
        for module in ("cli", "config", "plant", "controller", "harness", "sysid"):
            metrics[f"{module}.errors"] = self.errors[module]
        return metrics
