"""In-process runs of the CLI, the per-layer tracer and the primitive replay.

The layers are the package's modules (config, plant, controller, harness,
sysid, cli). The traced run calls ``qpcontrol.cli.main`` in-process while
the names ``qpcontrol.cli`` imports from the other modules are replaced by
wrappers that record a span around each call; the package's code is not
edited. Per-frame primitives are never spanned one by one: the primitive
replay times each call and aggregates them into a count and a total.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
import re
import statistics
import subprocess
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

from qpcontrol import (
    ControllerState,
    DisturbanceSpec,
    PlantKind,
    RunMode,
    TraceTable,
    clamp_round_qp,
    compute_error,
    compute_metrics,
    controller_frame,
    disturbance_at,
    estimate_order,
    parse_config,
    run_closed_loop,
    run_fixed_qp,
    run_impulse,
    step_plant,
)
from qpcontrol import cli
from qpcontrol.harness import parse_kind_pattern

from validate import METRIC_KEYS

pc = time.perf_counter_ns

CLOSED, FIXED, IMPULSE = "closed", "fixed", "impulse"


@dataclasses.dataclass(frozen=True)
class Run:
    """One in-process run the CLI sequence performs, on a parsed config."""

    label: str
    config: object
    kind: str  # CLOSED, FIXED or IMPULSE


def mode_kind(config) -> str:
    return CLOSED if config.mode is RunMode.CONTROLLED else FIXED


def execute(run: Run):
    if run.kind == IMPULSE:
        config = run.config
        return run_impulse(config.plant, config.qp_range, config.n_frames)
    return (run_closed_loop if run.kind == CLOSED else run_fixed_qp)(run.config)


def outputs_digest(outputs) -> str:
    """sha256 of the exact ``repr`` of run outputs, comparable across processes."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def module_of(exc: BaseException) -> str:
    """The innermost qpcontrol module in an exception's traceback."""
    module = "harness"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "qpcontrol":
            module = path.stem
    return module


def grid_points(workload) -> list[tuple[str, ...]]:
    return list(dict.fromkeys(itertools.product(*(v for _, v in workload.grid))))


def grid_overrides(workload, point) -> list[str]:
    return [f"{key}={value}" for (key, _), value in zip(workload.grid, point)]


def sweep_header(workload) -> str:
    return ",".join([key for key, _ in workload.grid] + list(METRIC_KEYS))


def sweep_row(point, metrics) -> str:
    return ",".join(list(point) + [f"{getattr(metrics, k):.6f}" for k in METRIC_KEYS])


def prepare(workload) -> list[Run]:
    """Parse every config the workload's CLI sequence parses, once."""
    if workload.grid:
        runs = []
        for point in grid_points(workload):
            config = parse_config(workload.config, grid_overrides(workload, point))
            runs.append(Run(",".join(point), config, mode_kind(config)))
        return runs
    config = parse_config(workload.config)
    return [
        Run("simulate", config, mode_kind(config)),
        Run("compare.controlled", dataclasses.replace(config, mode=RunMode.CONTROLLED), CLOSED),
        Run("compare.fixed", dataclasses.replace(config, mode=RunMode.FIXED_QP), FIXED),
        Run("identify", config, IMPULSE),
    ]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """Spans ``[name, start_ns, end_ns, parent_index, workload]`` kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.emitted = 0  # bytes written or rendered by the harness emitters

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, 0, 0, parent, self.workload]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = pc()
        try:
            yield
        finally:
            record[2] = pc()
            self._stack.pop()

    def self_times(self) -> tuple[dict, Counter]:
        """Per-name self time (ns) and call count; self = span - children."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict = defaultdict(int)
        calls: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_ns[index]
            calls[name] += 1
        return totals, calls

    def top_level_ns(self) -> int:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)


# The public calls ``qpcontrol.cli`` makes, by the name it imports them
# under, and the span each gets.
CLI_SPANS = {
    "parse_config": "config.parse_config",
    "run_closed_loop": "harness.run",
    "run_fixed_qp": "harness.run",
    "compute_metrics": "harness.compute_metrics",
    "write_trace_csv": "harness.emit",
    "write_metrics_json": "harness.emit",
    "comparison_text": "harness.emit",
    "run_impulse": "sysid.run_impulse",
    "estimate_order": "sysid.estimate_order",
}


def spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def call(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return call


def emitter(tracer: Tracer, fn: Callable) -> Callable:
    """A ``harness.emit`` span that also adds the bytes emitted to ``tracer.emitted``."""

    def call(*args):
        with tracer.span("harness.emit"):
            text = fn(*args)
        tracer.emitted += len(text) if isinstance(text, str) else Path(args[1]).stat().st_size
        return text

    return call


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """Give the calls ``qpcontrol.cli`` makes, and ``TraceTable.load``
    inside ``parse_config``, their spans while the block runs."""
    originals = {attr: getattr(cli, attr) for attr in CLI_SPANS}
    for attr, name in CLI_SPANS.items():
        fn = originals[attr]
        setattr(cli, attr, emitter(tracer, fn) if name == "harness.emit" else spanned(tracer, name, fn))
    load = TraceTable.__dict__["load"]
    TraceTable.load = classmethod(spanned(tracer, "plant.trace_load", load.__func__))
    try:
        yield
    finally:
        TraceTable.load = load
        for attr, fn in originals.items():
            setattr(cli, attr, fn)


def run_cli(workload, out_root: Path, tracer: Tracer) -> list[str]:
    """Every CLI command of the workload through ``qpcontrol.cli.main``,
    in-process, each in a ``cli.main`` span; outputs go under ``out_root``.
    Returns a problem for each command that did not exit 0."""
    problems = []
    for command in workload.commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = workload.cli_args(command, out_root / command)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with tracer.span("cli.main"):
                code = cli.main(argv)
        if code != 0:
            problems.append(f"in-process {command} exited {code}: {stderr.getvalue()[-500:]}")
    return problems


def span_cost_ns(calls: int = 20000) -> float:
    """Median added cost of one ``spanned`` call over a direct call."""

    def noop():
        return None

    costs = []
    for _ in range(5):
        wrapped = spanned(Tracer("probe"), "probe", noop)
        t0 = pc()
        for _ in range(calls):
            noop()
        t1 = pc()
        for _ in range(calls):
            wrapped()
        costs.append(((pc() - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


# ---------------------------------------------------------------------------
# Primitive replay
# ---------------------------------------------------------------------------

def timer_cost_ns(samples: int = 20001) -> float:
    """Median cost of one ``perf_counter_ns`` read, subtracted per timed call."""
    return statistics.median(-(pc() - pc()) for _ in range(samples)) or 0.0


def _fresh_plant(plant, **changes):
    # A shallow replace: the trace table is shared, never mutated.
    probe = dataclasses.replace(plant, **changes)
    probe.reset()
    return probe


def replay_plain(run: Run) -> int:
    """controller_frame -> step_plant only; returns frames replayed."""
    config = run.config
    plant = _fresh_plant(config.plant)
    n = config.n_frames
    if run.kind == FIXED:
        qp = clamp_round_qp(config.qp_offset, config.qp_range)
        for t in range(n):
            step_plant(plant, qp, t)
        return n
    kind_at = parse_kind_pattern(config.kind_pattern)
    state = ControllerState(qp_offset=config.qp_offset)
    gains, objective, qp_range = config.gains, config.objective, config.qp_range
    prev = None
    for t in range(n):
        qp = controller_frame(prev, kind_at(t), state, gains, objective, qp_range)
        prev = step_plant(plant, qp, t).psnr
    return n


def replay_timed(run: Run, calls: Counter, totals: Counter) -> list[tuple]:
    """Frame-by-frame replay timing each primitive call.

    Adds per-primitive call counts and nanoseconds into ``calls``/``totals``
    and returns the records ``(frame, qp, psnr, bits, error, o)``; for an
    impulse run, the PSNR sequence.
    """
    config = run.config
    n = config.n_frames
    if run.kind == IMPULSE:
        plant = _fresh_plant(config.plant, disturbance=DisturbanceSpec())
        qps = (config.qp_range.qp_min,) + (config.qp_range.qp_max,) * (n - 1)
        psnr = []
        ns = 0
        for t, qp in enumerate(qps):
            t0 = pc()
            out = step_plant(plant, qp, t)
            ns += pc() - t0
            psnr.append(out.psnr)
        calls["plant.step_plant"] += n
        totals["plant.step_plant"] += ns
        return psnr

    plant = _fresh_plant(config.plant)
    objective = config.objective
    trace = plant.trace if plant.kind is PlantKind.TRACE_DRIVEN else None
    spec = plant.disturbance
    records = []
    prev = None
    ns_ctrl = ns_step = ns_err = ns_side = 0
    if run.kind == FIXED:
        fixed_qp = clamp_round_qp(config.qp_offset, config.qp_range)
    else:
        kind_at = parse_kind_pattern(config.kind_pattern)
        state = ControllerState(qp_offset=config.qp_offset)
        gains, qp_range = config.gains, config.qp_range
    for t in range(n):
        if run.kind == FIXED:
            qp, o = fixed_qp, 0.0
        else:
            kind = kind_at(t)
            t0 = pc()
            qp = controller_frame(prev, kind, state, gains, objective, qp_range)
            ns_ctrl += pc() - t0
            o = state.last_o
        t1 = pc()
        out = step_plant(plant, qp, t)
        t2 = pc()
        error = compute_error(out.psnr, prev, objective)
        t3 = pc()
        # Side calls: the plant's inner primitive on its own, results unused.
        if trace is not None:
            trace.lookup(t, qp)
        else:
            disturbance_at(spec, t)
        ns_side += pc() - t3
        ns_step += t2 - t1
        ns_err += t3 - t2
        records.append((t, qp, out.psnr, out.bits, error, o))
        prev = out.psnr
    if run.kind == CLOSED:
        calls["controller.controller_frame"] += n
        totals["controller.controller_frame"] += ns_ctrl
    side = "plant.lookup" if trace is not None else "plant.disturbance_at"
    # step_plant is also kept per disturbance kind (the plant kind for traces).
    by_kind = f"plant.step_plant[{'trace' if trace is not None else spec.kind.value}]"
    for name, ns in (
        ("plant.step_plant", ns_step),
        (by_kind, ns_step),
        ("controller.compute_error", ns_err),
        (side, ns_side),
    ):
        calls[name] += n
        totals[name] += ns
    return records


def replay_mismatch(run: Run, output, replayed) -> str | None:
    """Compare a run's output with its primitive replay; None when equal.

    Records must match bitwise. The impulse response is checked against
    the replayed PSNR minus an fsum mean of the last quarter, within 1e-9,
    since the settled level's summation order is not part of the contract.
    """
    if run.kind == IMPULSE:
        tail = replayed[-(len(replayed) // 4):]
        settled = math.fsum(tail) / len(tail)
        for t, (value, psnr) in enumerate(zip(output.response, replayed)):
            if abs(value - (psnr - settled)) > 1e-9:
                return f"{run.label}: impulse frame {t} differs from the replay"
        return None
    for r, want in zip(output, replayed):
        got = (r.frame, r.qp, r.psnr, r.bits, r.error, r.o)
        if got != want:
            return f"{run.label}: frame {r.frame} record {got} != replay {want}"
    if len(output) != len(replayed):
        return f"{run.label}: {len(output)} records, replay has {len(replayed)}"
    return None


# ---------------------------------------------------------------------------
# Import cost
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)")


def import_times(python: str, env: dict) -> tuple[float, float]:
    """Seconds importing ``qpcontrol.cli`` and, inside that, numpy.

    The cumulative times ``python -X importtime`` reports for the
    ``qpcontrol.cli`` and ``numpy`` entries; interpreter start-up imports
    are not counted.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import qpcontrol.cli"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    cumulative_us = {
        match.group(2): int(match.group(1))
        for match in map(_IMPORTTIME.match, proc.stderr.splitlines())
        if match
    }
    return cumulative_us["qpcontrol.cli"] / 1e6, cumulative_us.get("numpy", 0) / 1e6
