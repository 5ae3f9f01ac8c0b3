"""Synthetic stand-ins for an encoder's QP-to-quality behaviour.

Three plant flavours map a per-frame QP to PSNR and bits:

* zero-order: memoryless affine response, ``psnr = c0 - c1 * qp + w``
* first-order: the same affine core blended with the previous output,
  ``psnr = alpha * prev + (1 - alpha) * (c0 - c1 * qp) + w`` (one geometric
  pole at ``alpha``)
* trace-driven: per-frame PSNR/bits tables measured elsewhere, linearly
  interpolated between tabulated QPs. The ``TraceTable`` that holds them
  lives in ``qpcontrol._tracetable`` and is re-exported here.

``w`` is a deterministic disturbance modelling content variation, a
``DisturbanceSpec`` from ``qpcontrol.disturbance`` (this module re-exports
it and ``DisturbanceKind``). Bits for the synthetic flavours follow the
conventional halving-per-six-QP relation.

``step_plant`` is the scalar reference: it steps a ``PlantModel`` one frame
and keeps the previous output on the model. ``plant_stepper(model,
n_frames)`` resolves a model once into a per-run closure with the same
arithmetic in the same order, fed frames ``t`` in ``range(n_frames)``. It
builds the run's whole disturbance column up front with
``disturbance_column``, which equals ``disturbance_at`` frame by frame, bit
for bit; it keeps the previous output itself and never touches the model,
so one model may back any number of concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .disturbance import (  # DisturbanceKind is re-exported
    DisturbanceKind,
    DisturbanceSpec,
    disturbance_at,
    disturbance_column,
)
from .errors import InputDomainError
from ._tracetable import TraceTable  # re-exported


class PlantKind(Enum):
    ZERO_ORDER = "zero_order"
    FIRST_ORDER = "first_order"
    TRACE_DRIVEN = "trace_driven"


def _checked_bits(bits: float) -> float:
    """Return ``bits``, or raise if it is not finite and >= 0."""
    if not (math.isfinite(bits) and bits >= 0):
        raise InputDomainError(f"bits must be finite and >= 0, got {bits!r}")
    return bits


@dataclass(frozen=True)
class FrameOutcome:
    """Measured result of encoding one frame."""

    psnr: float
    bits: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.psnr):
            raise InputDomainError(f"psnr must be finite, got {self.psnr!r}")
        _checked_bits(self.bits)


@dataclass
class PlantModel:
    """One simulated coding system instance.

    ``psnr_slope`` must be positive so PSNR strictly decreases in QP, and
    ``inertia`` must sit in [0, 1) so the first-order response is stable.
    ``prev_psnr`` is runtime state (the previous frame's output), seeded
    from ``initial_psnr``; when that is None the first step responds as if
    already settled at its input.
    """

    kind: PlantKind = PlantKind.FIRST_ORDER
    psnr_intercept: float = 50.0
    psnr_slope: float = 0.4
    inertia: float = 0.5
    rate_ref_bits: float = 350_000.0
    rate_ref_qp: int = 32
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    trace_path: str | None = None
    trace: TraceTable | None = None
    initial_psnr: float | None = None
    prev_psnr: float | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PlantKind):
            raise InputDomainError(f"kind must be a PlantKind, got {self.kind!r}")
        if not (math.isfinite(self.psnr_slope) and self.psnr_slope > 0):
            raise InputDomainError(
                f"psnr_slope must be finite and > 0, got {self.psnr_slope!r}"
            )
        if not math.isfinite(self.psnr_intercept):
            raise InputDomainError(
                f"psnr_intercept must be finite, got {self.psnr_intercept!r}"
            )
        if not (0.0 <= self.inertia < 1.0):
            raise InputDomainError(f"inertia must be in [0, 1), got {self.inertia!r}")
        if not (math.isfinite(self.rate_ref_bits) and self.rate_ref_bits >= 0):
            raise InputDomainError(
                f"rate_ref_bits must be finite and >= 0, got {self.rate_ref_bits!r}"
            )
        if self.initial_psnr is not None and not math.isfinite(self.initial_psnr):
            raise InputDomainError(
                f"initial_psnr must be finite, got {self.initial_psnr!r}"
            )
        if self.kind is PlantKind.TRACE_DRIVEN and self.trace is None:
            raise InputDomainError("trace-driven plant requires a trace table")
        self.reset()

    @classmethod
    def zero_order(cls, **kwargs) -> "PlantModel":
        return cls(kind=PlantKind.ZERO_ORDER, **kwargs)

    @classmethod
    def first_order(cls, inertia: float, **kwargs) -> "PlantModel":
        return cls(kind=PlantKind.FIRST_ORDER, inertia=inertia, **kwargs)

    @classmethod
    def trace_driven(cls, trace: TraceTable, **kwargs) -> "PlantModel":
        return cls(kind=PlantKind.TRACE_DRIVEN, trace=trace, **kwargs)

    def reset(self) -> None:
        """Discard runtime state so the next step starts a fresh stream."""
        self.prev_psnr = self.initial_psnr


def rate_model(model: PlantModel, qp: int) -> float:
    """Bits per frame at a QP: reference bits halved for every +6 QP.

    ``inf`` where the QP offset from ``rate_ref_qp``, or the power of two
    it gives, leaves the float range."""
    try:
        return model.rate_ref_bits * 2.0 ** (-(qp - model.rate_ref_qp) / 6.0)
    except OverflowError:
        return math.inf


def step_plant(model: PlantModel, qp: int, frame_index: int) -> FrameOutcome:
    """Encode one frame at ``qp`` and return its measured PSNR and bits.

    Updates the plant's ``prev_psnr`` memory. Trace-driven plants read the
    table verbatim (no disturbance), so tabulated QPs reproduce the table
    bit-for-bit.
    """
    if frame_index < 0:
        raise InputDomainError("frame_index must be nonnegative")
    qp = int(qp)
    if model.kind is PlantKind.TRACE_DRIVEN:
        psnr, bits = model.trace.lookup(frame_index, qp)
    else:
        w = disturbance_at(model.disturbance, frame_index)
        core = model.psnr_intercept - model.psnr_slope * qp
        if model.kind is PlantKind.FIRST_ORDER and model.prev_psnr is not None:
            psnr = model.inertia * model.prev_psnr + (1.0 - model.inertia) * core + w
        else:
            psnr = core + w
        bits = rate_model(model, qp)
    model.prev_psnr = psnr
    return FrameOutcome(psnr=psnr, bits=bits)


def plant_stepper(
    model: PlantModel, n_frames: int
) -> Callable[[int, int], tuple[float, float]]:
    """Resolve ``model`` once into ``step(qp, t) -> (psnr, bits)`` for one run.

    Fed integer QPs at frames t = 0, 1, ..., n_frames - 1, and no other
    frame, the stepper returns bit for bit what ``step_plant`` returns on a
    freshly reset model. A synthetic plant's disturbance is built once, as
    the run's ``disturbance_column``, and each step reads its frame's entry;
    the column lives as long as the stepper. The stepper keeps the previous
    PSNR itself, starting at ``initial_psnr``, and never mutates or copies
    the model. A non-finite PSNR raises InputDomainError on the frame that
    makes it.
    """
    isfinite = math.isfinite
    if model.kind is PlantKind.TRACE_DRIVEN:
        lookup = model.trace.lookup

        def step(qp: int, t: int) -> tuple[float, float]:
            psnr, bits = lookup(t, qp)
            if not isfinite(psnr):
                raise InputDomainError(f"psnr must be finite, got {psnr!r}")
            return psnr, bits

        return step

    ws = disturbance_column(model.disturbance, n_frames)
    # Bits per QP, each entry made and checked on the QP's first use; a QP
    # range has no size limit, so the memo is not built ahead of the run.
    rates: dict[int, float] = {}
    intercept, slope = model.psnr_intercept, model.psnr_slope
    first_order = model.kind is PlantKind.FIRST_ORDER
    alpha, beta = model.inertia, 1.0 - model.inertia
    prev = model.initial_psnr if first_order else None

    def step(qp: int, t: int) -> tuple[float, float]:
        nonlocal prev
        core = intercept - slope * qp
        if prev is None:
            psnr = core + ws[t]
        else:
            psnr = alpha * prev + beta * core + ws[t]
        if not isfinite(psnr):
            raise InputDomainError(f"psnr must be finite, got {psnr!r}")
        if first_order:
            prev = psnr
        if qp not in rates:
            rates[qp] = _checked_bits(rate_model(model, qp))
        return psnr, rates[qp]

    return step
