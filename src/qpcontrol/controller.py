"""Discrete PID control of per-frame quantization parameters.

The controller watches the PSNR of each encoded frame, folds it into an
error signal against a quality target, and turns the PID output into the
next frame's QP. Inter-coded frames, whose QP-to-quality response carries
one frame of memory, integrate the control variable once; intra-coded
frames, which respond instantaneously, integrate it twice. Everything is
incremental: the state is a fixed handful of scalar accumulators and each
frame costs the same bounded number of floating-point operations no matter
how long the stream has been running.

``controller_frame`` over a ``ControllerState`` is the one-frame reference.
``harness.run_closed_loop`` keeps the same accumulators as locals of its
loop and emits the same QPs bit for bit.
A ``ControllerState`` serves exactly one video stream and must be stepped
sequentially. Distinct instances share nothing, so they may run on distinct
threads, and an instance may move between threads between frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

from .errors import InputDomainError

class FrameKind(Enum):
    """Coding type of a frame, selecting which QP policy applies."""

    INTER = "inter"
    INTRA = "intra"


@dataclass(frozen=True)
class PidGains:
    """Proportional, integral and derivative weights, all nonnegative.

    ``ki`` is per frame and ``kd`` is in frames; the frame period is the
    implicit time unit, so any constant sample interval is absorbed here.
    """

    kp: float = 2.12
    ki: float = 0.10
    kd: float = 0.60

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InputDomainError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ControlObjective:
    """Quality target and the weight trading setpoint error against fluctuation.

    ``lambda_`` = 1 regulates purely toward ``target_psnr``; ``lambda_`` = 0
    only damps frame-to-frame PSNR changes.
    """

    target_psnr: float = 37.2
    lambda_: float = 0.8

    def __post_init__(self) -> None:
        if not math.isfinite(self.target_psnr) or self.target_psnr <= 0:
            raise InputDomainError(
                f"target_psnr must be finite and positive, got {self.target_psnr!r}"
            )
        if not 0.0 <= self.lambda_ <= 1.0:
            raise InputDomainError(f"lambda must be in [0, 1], got {self.lambda_!r}")


@dataclass(frozen=True)
class QpRange:
    """Inclusive bounds for emitted QP values."""

    qp_min: int = 0
    qp_max: int = 51

    def __post_init__(self) -> None:
        if self.qp_min > self.qp_max:
            raise InputDomainError(
                f"qp_min must not exceed qp_max, got [{self.qp_min}, {self.qp_max}]"
            )


@dataclass
class ControllerState:
    """Scalar accumulators for one stream; ``qp_offset`` is the only argument.

    ``qp_offset`` anchors the emitted QP. Every accumulator starts at zero
    (or None) and only the primitives advance it: ``prev_error`` feeds the
    backward-difference derivative, ``error_integral`` sums the errors,
    ``o_integral`` and ``o_double_integral`` accumulate the control variable
    once and twice, and ``last_o`` holds the latest one for the run trace.
    """

    qp_offset: float = 0.0
    frame_index: int = field(default=0, init=False)
    prev_error: float | None = field(default=None, init=False)
    error_integral: float = field(default=0.0, init=False)
    o_integral: float = field(default=0.0, init=False)
    o_double_integral: float = field(default=0.0, init=False)
    prev_psnr: float | None = field(default=None, init=False)
    last_o: float = field(default=0.0, init=False)
    o_pending: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.qp_offset):
            raise InputDomainError(f"qp_offset must be finite, got {self.qp_offset!r}")

    def as_text(self) -> str:
        """Serialize every field, in declaration order, to plain ``key=value``
        lines for trace debugging."""
        def fmt(value):
            return "none" if value is None else repr(value)

        return "\n".join(f"{f.name}={fmt(getattr(self, f.name))}" for f in fields(self))


def compute_error(
    psnr: float, prev_psnr: float | None, objective: ControlObjective
) -> float:
    """Error signal of one frame: weighted setpoint miss plus PSNR change.

    Returns ``lambda_ * (psnr - target) + (1 - lambda_) * (psnr - prev_psnr)``
    with the change term taken as a backward difference over one frame.
    ``prev_psnr`` may be None for the very first frame, in which case the
    fluctuation term is defined as zero.
    """
    if not math.isfinite(psnr):
        raise InputDomainError(f"psnr must be finite, got {psnr!r}")
    if prev_psnr is not None and not math.isfinite(prev_psnr):
        raise InputDomainError(f"prev_psnr must be finite, got {prev_psnr!r}")
    fluctuation = 0.0 if prev_psnr is None else psnr - prev_psnr
    lam = objective.lambda_
    return lam * (psnr - objective.target_psnr) + (1.0 - lam) * fluctuation


def pid_step(error: float, state: ControllerState, gains: PidGains) -> float:
    """Advance the PID one frame and return the control variable.

    ``error`` is the most recent completed frame's error; the output is
    ``kp * error + ki * sum(history) - kd * (error - previous_error)``, with
    the derivative defined as zero when no previous error exists. The sum and
    the error pair are updated in place; the policy step consumes the result
    exactly once.
    """
    if not math.isfinite(error):
        raise InputDomainError(f"error must be finite, got {error!r}")
    state.error_integral += error
    if state.prev_error is None:
        derivative = 0.0
    else:
        derivative = error - state.prev_error
    o = gains.kp * error + gains.ki * state.error_integral - gains.kd * derivative
    state.prev_error = error
    state.last_o = o
    state.o_pending = True
    return o


def clamp_round_qp(raw_qp: float, qp_range: QpRange) -> int:
    """Round to the nearest integer (ties away from zero), then clamp."""
    if not math.isfinite(raw_qp):
        raise InputDomainError(f"raw_qp must be finite, got {raw_qp!r}")
    if raw_qp >= 0:
        rounded = math.floor(raw_qp + 0.5)
    else:
        rounded = math.ceil(raw_qp - 0.5)
    return min(max(int(rounded), qp_range.qp_min), qp_range.qp_max)


def policy_qp(
    o: float, kind: FrameKind, state: ControllerState, qp_range: QpRange
) -> int:
    """Fold the control variable into the accumulators and emit the frame QP.

    Inter frames anchor the QP at ``qp_offset + o_integral``; intra frames
    at ``qp_offset + o_double_integral``. Both accumulators advance exactly
    once per frame regardless of kind. The accumulators keep advancing while
    the emitted QP sits at a range clamp, so a sustained one-sided error
    winds them up and has to unwind before the QP re-enters the range (no
    anti-windup freezing).

    Raises InputDomainError when called twice for the same frame index; each
    call must be preceded by one ``pid_step``.
    """
    if not math.isfinite(o):
        raise InputDomainError(f"o must be finite, got {o!r}")
    if not state.o_pending:
        raise InputDomainError(
            f"no pending control variable at frame {state.frame_index}; "
            "pid_step must run once before each policy call"
        )
    if not isinstance(kind, FrameKind):
        raise InputDomainError(f"kind must be a FrameKind, got {kind!r}")
    state.o_pending = False
    state.o_integral += o
    state.o_double_integral += state.o_integral
    if kind is FrameKind.INTER:
        raw = state.qp_offset + state.o_integral
    else:
        raw = state.qp_offset + state.o_double_integral
    state.frame_index += 1
    return clamp_round_qp(raw, qp_range)


def controller_frame(
    psnr_prev_frame: float | None,
    kind: FrameKind,
    state: ControllerState,
    gains: PidGains,
    objective: ControlObjective,
    qp_range: QpRange,
) -> int:
    """Decide the QP of the next frame from the previous frame's PSNR.

    Causality: the QP of frame t depends only on measurements up to frame
    t-1, so callers pass the PSNR of the frame they just encoded, or None
    for the very first frame (which simply emits the rounded anchor). Runs
    compute_error -> pid_step -> policy_qp in a bounded, constant number of
    operations independent of the frame index.
    """
    if state.frame_index == 0:
        if psnr_prev_frame is not None:
            raise InputDomainError(
                "frame 0 has no preceding frame; pass psnr_prev_frame=None"
            )
        state.o_pending = True
        return policy_qp(0.0, kind, state, qp_range)
    if psnr_prev_frame is None:
        raise InputDomainError(
            f"frame {state.frame_index} requires the PSNR of frame "
            f"{state.frame_index - 1}"
        )
    error = compute_error(psnr_prev_frame, state.prev_psnr, objective)
    o = pid_step(error, state, gains)
    state.prev_psnr = psnr_prev_frame
    return policy_qp(o, kind, state, qp_range)

