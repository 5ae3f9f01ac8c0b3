"""Closed-loop and fixed-QP simulation runs plus their summary metrics.

A run is one loop over frames that pairs one controller stream with one
plant stepper: each frame the PID, whose accumulators are loop locals,
turns the previous frame's error signal into a QP, the plant encodes, and
the outcome is appended to the trace. The fixed-QP variant holds the
rounded anchor QP and serves as the uncontrolled baseline. Every
run is deterministic in its configuration, and runs share no mutable
state but the collector hold below, so one configuration may run on many
threads at once and each thread gets the same trace. They share only
immutable disturbance columns, from a process-wide memo keyed by the exact
spec and frame count (its memory bound is stated in ``qpcontrol.plant``).

Both loops hold the interpreter's cyclic collector off while they run.
Overlapping runs share one hold: the last to end turns the collector back
on if it was on when the first began, so a ``gc.disable()`` made from
another thread meanwhile is undone then; a ``gc.enable()`` never is.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .controller import (
    ControlObjective,
    FrameKind,
    PidGains,
    QpRange,
    clamp_round_qp,
)
from .errors import InputDomainError
from .plant import PlantKind, PlantModel, plant_stepper, rate_model

TRACE_CSV_HEADER = "frame,qp,psnr_db,bits,error,o"
_TRACE_CSV_ROW = "%d,%d,%.6f,%.6f,%.6f,%.6f\n"  # one FrameRecord
_INTER, _INTRA = FrameKind.INTER, FrameKind.INTRA  # bound once: Enum reads are slow


class RunMode(Enum):
    CONTROLLED = "controlled"
    FIXED_QP = "fixed"


def _intra_period(pattern: str) -> int:
    """Parse a schedule pattern into its intra period: frame t is intra when
    ``period and t % period == 0``. ``inter`` has period 0 (all inter),
    ``intra`` period 1 (all intra) and ``intra_every:N`` period N (intra at
    every Nth frame from 0). Every pattern covers an unbounded frame range."""
    if pattern == "inter":
        return 0
    if pattern == "intra":
        return 1
    if pattern.startswith("intra_every:"):
        tail = pattern.split(":", 1)[1]
        try:  # ASCII digits only: int() alone takes '+4', '1_0', ' 4' and '٣'
            if not (tail.isascii() and tail.isdigit()):
                raise ValueError(tail)
            period = int(tail)
        except ValueError:  # or more digits than int() converts
            raise InputDomainError(
                f"kind_pattern {pattern!r}: bad intra_every period {tail!r}"
            ) from None
        if period < 1:
            raise InputDomainError(
                f"kind_pattern {pattern!r}: intra_every period must be >= 1"
            )
        return period
    raise InputDomainError(
        f"kind_pattern {pattern!r} is unknown; "
        "expected 'inter', 'intra' or 'intra_every:N'"
    )


def parse_kind_pattern(pattern: str) -> Callable[[int], FrameKind]:
    """Turn a schedule pattern into a frame-index -> FrameKind map."""
    period = _intra_period(pattern)
    return lambda t: _INTRA if period and t % period == 0 else _INTER


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; value-identical configs give identical runs."""

    plant: PlantModel
    objective: ControlObjective
    gains: PidGains = PidGains()
    qp_range: QpRange = QpRange()
    qp_offset: float = 32.0
    kind_pattern: str = "inter"
    n_frames: int = 300
    mode: RunMode = RunMode.CONTROLLED

    def __post_init__(self) -> None:
        if not isinstance(self.mode, RunMode):
            raise InputDomainError(f"mode must be a RunMode, got {self.mode!r}")
        if not 1 <= self.n_frames <= sys.maxsize:  # no list holds more frames
            raise InputDomainError(
                f"n_frames must be in [1, {sys.maxsize}], got {self.n_frames}"
            )
        if not math.isfinite(self.qp_offset):
            raise InputDomainError(f"qp_offset must be finite, got {self.qp_offset!r}")
        _intra_period(self.kind_pattern)  # validate eagerly
        if self.plant.kind is PlantKind.TRACE_DRIVEN:
            # Frame coverage only: a frame's QP span is checked per lookup.
            rows = self.plant.trace.rows
            missing = next((t for t in range(self.n_frames) if t not in rows), None)
            if missing is not None:
                raise InputDomainError(
                    f"n_frames={self.n_frames} runs past the trace table "
                    f"(plant.trace_path={self.plant.trace_path}): "
                    f"frame {missing} is not tabulated"
                )
            return
        # Bits fall as QP rises, so the bits at qp_min bound every frame and,
        # times n_frames, the total compute_metrics sums. At qp_max the rate
        # model is inf only when the QP offset itself leaves the float range.
        plant, qp_min, qp_max = self.plant, self.qp_range.qp_min, self.qp_range.qp_max
        most = rate_model(plant, qp_min)
        if not math.isfinite(most * self.n_frames):
            raise InputDomainError(
                f"plant.rate_ref_bits={plant.rate_ref_bits!r} with "
                f"plant.rate_ref_qp={plant.rate_ref_qp} gives {most!r} bits per "
                f"frame at range.qp_min={qp_min}; n_frames={self.n_frames} such "
                f"frames must sum within the float range"
            )
        if not math.isfinite(rate_model(plant, qp_max)):
            raise InputDomainError(
                f"range.qp_max={qp_max} lies past the float range from "
                f"plant.rate_ref_qp={plant.rate_ref_qp}, so the rate model "
                f"cannot scale plant.rate_ref_bits={plant.rate_ref_bits!r} there"
            )


class _collector_held:
    """Hold the collector off, as CPython never untracks a ``FrameRecord``.

    The switch is process-wide, so the count of holders and the switch move
    together under one lock (reentrant: a signal handler may start a run).
    A class: leaving a generator allocates, which could start a collection.
    """

    lock, holders, restore = threading.RLock(), 0, False

    def __enter__(self) -> None:
        held = _collector_held
        with held.lock:
            held.holders += 1
            if held.holders == 1:
                held.restore = gc.isenabled()
                gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        held = _collector_held
        held.lock.acquire()  # not ``with``: its exit call allocates an
        try:  # argument tuple, which after gc.enable() starts a collection
            restore, held.holders = held.restore, held.holders - 1
            if restore and not held.holders:
                gc.enable()
        finally:
            held.lock.release()


class FrameRecord(NamedTuple):
    """One row of a run trace."""

    frame: int
    qp: int
    psnr: float
    bits: float
    error: float
    o: float


class MetricsReport(NamedTuple):
    """Per-run summary: setpoint accuracy, stability of quality and bits.

    The fields, in order, are the metric schema: the metrics JSON keys and
    the sweep columns. Fluctuations are population standard deviations over
    all frames, so a single-frame run reports zero and a constant series
    reports exactly zero. ``bit_fluc`` and ``bitrate_mean`` are in bits per
    frame; multiply by the frame rate (and divide by 1e6) for Mbps.
    """

    avg_psnr: float
    control_error_db: float
    control_error_pct: float
    quality_fluc_db: float
    bitrate_mean: float
    bit_fluc: float

    def as_dict(self) -> dict[str, float]:
        return self._asdict()


def run_closed_loop(config: ExperimentConfig) -> list[FrameRecord]:
    """Run the controller against the configured plant for ``n_frames``.

    Frame t's QP comes from the controller fed with frame t-1's error. The
    PID accumulators are locals of the loop, updated with
    ``controller_frame``'s arithmetic in the same order, so the QPs and
    control variables match it bit for bit, and a non-finite error, ``o``
    or raw QP raises the same InputDomainError on the same frame. The
    schedule is read once as its intra period, and the plant is resolved
    once into a per-run stepper that never copies or mutates the model.
    Each frame's error is computed once, from the fresh measurement with
    the ``compute_error`` formula, recorded and fed to the next frame.
    The loop makes no reference cycles and holds the collector off until it
    ends. ``config.mode`` is not read: the caller chooses the run.
    """
    step = plant_stepper(config.plant, config.n_frames)
    period = _intra_period(config.kind_pattern)
    kp, ki, kd = config.gains.kp, config.gains.ki, config.gains.kd
    qp_min, qp_max = config.qp_range.qp_min, config.qp_range.qp_max
    anchor = config.qp_offset
    lam = config.objective.lambda_
    keep = 1.0 - lam
    target = config.objective.target_psnr
    isfinite, floor, ceil = math.isfinite, math.floor, math.ceil
    records: list[FrameRecord] = []
    append = records.append
    record = tuple.__new__
    o = o_integral = o_double_integral = error_integral = 0.0
    error = prev_error = prev_psnr = 0.0
    with _collector_held():
        for t in range(config.n_frames):
            if t:  # frame 0 emits the rounded anchor with o = 0.0
                error_integral += error
                derivative = error - prev_error if t > 1 else 0.0
                o = kp * error + ki * error_integral - kd * derivative
                prev_error = error
            o_integral += o
            o_double_integral += o_integral
            raw = anchor + (o_double_integral if period and t % period == 0 else o_integral)
            if not isfinite(raw):  # a non-finite error or o leaves raw non-finite
                for name, value in (("error", error), ("o", o), ("raw_qp", raw)):
                    if not isfinite(value):
                        raise InputDomainError(f"{name} must be finite, got {value!r}")
            qp = floor(raw + 0.5) if raw >= 0 else ceil(raw - 0.5)
            qp = qp_min if qp < qp_min else qp_max if qp > qp_max else qp
            psnr, bits = step(t, qp)
            error = lam * (psnr - target) + keep * (psnr - prev_psnr if t else 0.0)
            append(record(FrameRecord, (t, qp, psnr, bits, error, o)))
            prev_psnr = psnr
    return records


def run_fixed_qp(config: ExperimentConfig) -> list[FrameRecord]:
    """Baseline run: hold the rounded anchor QP, step the plant identically.

    No controller runs, so every frame records ``o = 0.0``; the error column
    is computed, and the collector held, as in ``run_closed_loop``.
    ``config.mode`` is not read.
    """
    step = plant_stepper(config.plant, config.n_frames)
    qp = clamp_round_qp(config.qp_offset, config.qp_range)
    lam = config.objective.lambda_
    keep = 1.0 - lam
    target = config.objective.target_psnr
    records: list[FrameRecord] = []
    append = records.append
    record = tuple.__new__
    prev_psnr = 0.0
    with _collector_held():
        for t in range(config.n_frames):
            psnr, bits = step(t, qp)
            error = lam * (psnr - target) + keep * (psnr - prev_psnr if t else 0.0)
            append(record(FrameRecord, (t, qp, psnr, bits, error, 0.0)))
            prev_psnr = psnr
    return records


def mean(xs: Sequence[float]) -> float:
    """The correctly rounded sum over the count, ``fsum(xs) / n``.

    The division rounds once more, so the result can sit one ulp from the
    correctly rounded mean."""
    return math.fsum(xs) / len(xs)


def mean_about_first(xs: Sequence[float]) -> float:
    """Mean taken about the first sample, so a constant series gives back
    exactly its value."""
    first = xs[0]
    return first + mean([x - first for x in xs])


def pstd(xs: Sequence[float]) -> float:
    """Population standard deviation, two-pass with ``math.fsum``; exactly
    0.0 for a constant series."""
    m = mean_about_first(xs)
    return math.sqrt(math.fsum([(x - m) * (x - m) for x in xs]) / len(xs))


def _mean_pstd(column: str, xs: Sequence[float]) -> tuple[float, float]:
    try:
        return mean(xs), pstd(xs)
    except OverflowError:
        raise InputDomainError(
            f"the run's {column} column sums past the float range"
        ) from None


def compute_metrics(
    records: Sequence[FrameRecord], objective: ControlObjective
) -> MetricsReport:
    """Summarize a trace into the six report metrics, all finite."""
    if not records:
        raise InputDomainError("cannot compute metrics over an empty trace")
    avg_psnr, quality_fluc_db = _mean_pstd("psnr", [r.psnr for r in records])
    bitrate_mean, bit_fluc = _mean_pstd("bits", [r.bits for r in records])
    control_error_db = abs(avg_psnr - objective.target_psnr)
    report = MetricsReport(
        avg_psnr=avg_psnr,
        control_error_db=control_error_db,
        control_error_pct=100.0 * control_error_db / objective.target_psnr,
        quality_fluc_db=quality_fluc_db,
        bitrate_mean=bitrate_mean,
        bit_fluc=bit_fluc,
    )
    for name, value in zip(MetricsReport._fields, report):
        if not math.isfinite(value):
            raise InputDomainError(f"the run's {name} is {value!r}, not finite")
    return report


def fluctuation_reduction_pct(
    controlled: MetricsReport, baseline: MetricsReport
) -> float:
    """Quality-fluctuation reduction of two runs of the same
    plant/disturbance/seed: ``100 * (baseline_fluc - controlled_fluc) /
    baseline_fluc``; swapping the arguments' roles flips its sign. A
    baseline fluctuation of exactly 0 gives 0 when the controlled one is 0
    too and -inf otherwise, the formula's limit.
    """
    base = baseline.quality_fluc_db
    ours = controlled.quality_fluc_db
    if base == 0.0:
        return 0.0 if ours == 0.0 else -math.inf
    return 100.0 * (base - ours) / base


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def trace_csv_text(records: Sequence[FrameRecord]) -> str:
    """Render a trace as CSV with 6-decimal fixed-point reals."""
    return "".join([TRACE_CSV_HEADER + "\n", *(_TRACE_CSV_ROW % r for r in records)])


def write_text(text: str, path: str | Path) -> None:
    # UTF-8 whatever the locale; argument bytes that did not decode go back out.
    Path(path).write_text(text, encoding="utf-8", errors="surrogateescape")


def write_trace_csv(records: Sequence[FrameRecord], path: str | Path) -> None:
    write_text(trace_csv_text(records), path)


def metrics_json_text(report: MetricsReport) -> str:
    """Render a report as a JSON object with exactly the six metric names."""
    return json.dumps(report.as_dict(), indent=2) + "\n"


def write_metrics_json(report: MetricsReport, path: str | Path) -> None:
    write_text(metrics_json_text(report), path)


def summary_line(mode: RunMode, n_frames: int, report: MetricsReport) -> str:
    """The one line ``simulate`` prints for a run."""
    return (
        f"{mode.value}: {n_frames} frames, avg_psnr={report.avg_psnr:.4f} dB, "
        f"quality_fluc={report.quality_fluc_db:.4f} dB"
    )


# One title per MetricsReport field, in field order.
_COLUMN_TITLES = (
    "avg_psnr_db",
    "control_error_db",
    "control_error_pct",
    "quality_fluc_db",
    "bitrate_bits_per_frame",
    "bit_fluc_bits_per_frame",
)


def comparison_text(controlled: MetricsReport, baseline: MetricsReport) -> str:
    """Aligned plain-text table, one row per method, one column per metric,
    and the quality-fluctuation reduction."""
    headers = ["method", *_COLUMN_TITLES]
    table_rows = [
        [label, *(f"{value:.4f}" for value in metrics)]
        for label, metrics in (("fixed_qp", baseline), ("controlled", controlled))
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table_rows))
        for i in range(len(headers))
    ]
    def fmt_row(cells: list[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = [fmt_row(headers)]
    lines.extend(fmt_row(row) for row in table_rows)
    reduction = fluctuation_reduction_pct(controlled, baseline)
    lines.append(f"quality fluctuation reduction: {reduction:.1f}%")
    return "\n".join(lines) + "\n"
