"""Synthetic stand-ins for an encoder's QP-to-quality behaviour.

Three plant flavours map a per-frame QP to PSNR and bits:

* zero-order: memoryless affine response, ``psnr = c0 - c1 * qp + w``
* first-order: the same affine core blended with the previous output,
  ``psnr = alpha * prev + (1 - alpha) * (c0 - c1 * qp) + w`` (one geometric
  pole at ``alpha``)
* trace-driven: per-frame PSNR/bits tables measured elsewhere, linearly
  interpolated between tabulated QPs. A ``TraceTable`` holds them. A trace
  CSV has the header ``frame,qp,psnr_db,bits`` and one row per tabulated
  (frame, QP), strictly sorted by (frame, qp). ``TraceTable.load`` is the
  only parser: it reads the file line by line, by the rule that reads a
  config file. A loaded table keeps each frame's QPs as a tuple of ints,
  one per distinct QP list, and all rows' PSNR and bits in two read-only
  float64 columns, ~27 B/row.

``w`` is a deterministic disturbance modelling content variation. A
``DisturbanceSpec`` picks one of five kinds: none, constant, step, sinusoid
or seeded noise. ``disturbance_at(spec, t)`` holds each kind's only
formula; seeded noise hashes (seed, frame) with the splitmix64 finalizer
(Steele, Lea and Flood, "Fast Splittable Pseudorandom Number Generators",
OOPSLA 2014). Bits for the synthetic flavours follow the conventional
halving-per-six-QP relation.

``step_plant`` is the scalar reference: it steps a ``PlantModel`` one frame
and keeps the previous output on the model. ``plant_stepper(model,
n_frames)`` resolves a model once into a per-run ``step(t, qp)``, fed frames
``t`` in ``range(n_frames)``: a trace table's own ``lookup``, or a closure
with the same arithmetic in the same order that reads the run's whole
disturbance column. No stepper touches the model, so one model may back any
number of concurrent runs.

A column is ``disturbance_at`` mapped over frames ``0 .. n - 1``, so it
equals the scalar reference bit for bit. Every run in the process takes it
from ``_shared_column``: a memo of immutable tuples keyed by ``repr(spec)``
and the frame count. It keeps at most 16 columns. A
column takes an 8-byte tuple slot per frame; sinusoid and seeded-noise
frames each add a 24-byte float, while none, constant and step columns
reuse one float object per value. So the memo holds at most 32 B per frame
of its 16 columns together: 1 MB when each has 2,000 frames.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

from .errors import InputDomainError, TraceDomainError

TRACE_HEADER = "frame,qp,psnr_db,bits"
_EXACT = 2**52  # within it a float QP weighs as the equal int QP, bit for bit
_MASK64 = (1 << 64) - 1
_TWO_64 = float(1 << 64)


class PlantKind(Enum):
    ZERO_ORDER = "zero_order"
    FIRST_ORDER = "first_order"
    TRACE_DRIVEN = "trace_driven"


class DisturbanceKind(Enum):
    NONE = "none"
    CONSTANT = "constant"
    STEP = "step"
    SINUSOID = "sinusoid"
    SEEDED_NOISE = "seeded_noise"


# Bound once by name: each ``DisturbanceKind.X`` lookup costs about as much
# as a formula, and disturbance_at compares against these on every call.
_CONSTANT, _STEP = DisturbanceKind.CONSTANT, DisturbanceKind.STEP
_SINUSOID, _SEEDED_NOISE = DisturbanceKind.SINUSOID, DisturbanceKind.SEEDED_NOISE


@dataclass(frozen=True)
class DisturbanceSpec:
    """Deterministic per-frame PSNR perturbation.

    ``amplitude`` is in dB. Sinusoids use ``period`` >= 3 frames per cycle,
    steps switch on at ``step_frame``, and seeded noise draws uniform values
    in [-amplitude, amplitude] from a counter-based mix of (seed, frame), so
    equal seeds give bitwise-identical sequences.
    """

    kind: DisturbanceKind = DisturbanceKind.NONE
    amplitude: float = 0.0
    period: int = 0
    step_frame: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, DisturbanceKind):
            raise InputDomainError(f"kind must be a DisturbanceKind, got {self.kind!r}")
        if not math.isfinite(self.amplitude):
            raise InputDomainError(f"amplitude must be finite, got {self.amplitude!r}")
        if self.kind is _SINUSOID:
            if self.period < 3:  # periods 1 and 2 sample only the sine's zeros
                raise InputDomainError(
                    f"period must be >= 3 for a sinusoid disturbance, got {self.period}"
                )
            try:
                float(self.period)  # each frame's phase divides by it
            except OverflowError:
                raise InputDomainError(
                    f"period must convert to a float, got {self.period}"
                ) from None


def _mix64(x: int) -> int:
    # splitmix64 finalizer: full-avalanche 64-bit mix
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=16, typed=True)
def _seed_word(seed: int) -> int:  # mixed once per seed, not once per frame
    return _mix64(seed & _MASK64)


def disturbance_at(spec: DisturbanceSpec, frame_index: int) -> float:
    """Disturbance value (dB) at a frame; pure in (spec, frame_index)."""
    if frame_index < 0:
        raise InputDomainError("frame_index must be nonnegative")
    kind = spec.kind
    if kind is _SEEDED_NOISE:  # uniform in [-amplitude, amplitude]
        unit = _mix64(_seed_word(spec.seed) ^ (frame_index & _MASK64)) / _TWO_64
        return spec.amplitude * (2.0 * unit - 1.0)
    if kind is _SINUSOID:
        return spec.amplitude * math.sin(2.0 * math.pi * frame_index / spec.period)
    if kind is _STEP:
        return spec.amplitude if frame_index >= spec.step_frame else 0.0
    if kind is _CONSTANT:
        return spec.amplitude
    return 0.0  # DisturbanceKind.NONE


@functools.lru_cache(maxsize=16)
def _memo_column(spec_repr: str, n_frames: int, spec: DisturbanceSpec) -> tuple[float, ...]:
    if n_frames < 0:
        raise InputDomainError("n_frames must be nonnegative")
    # A discarded guard: a count no list can hold raises MemoryError here,
    # before any frame is computed, whatever the kind.
    [0.0] * n_frames
    return tuple(map(functools.partial(disturbance_at, spec), range(n_frames)))


def _shared_column(spec: DisturbanceSpec, n_frames: int) -> tuple[float, ...]:
    # Keyed by repr, not by the spec: specs with amplitudes 0.0 and -0.0
    # compare equal, yet their columns differ in the sign of zero.
    return _memo_column(repr(spec), n_frames, spec)


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


@dataclass(frozen=True, init=False)
class TraceTable:
    """Per-frame (qp, psnr, bits) rows parsed from a trace CSV.

    ``rows[frame]`` is the frame's tabulated QPs, a sorted tuple of ints;
    the rows' PSNR and bits sit in the read-only float64 columns ``psnr``
    and ``bits``, frame after frame, in QP order. ``load`` builds every
    table and checks every row. The constructor takes no rows, only what
    ``load`` fills: each frame's QPs, in frame order, and all rows' PSNR
    and bits, in that order, as float64 bytes. Lookups are exact at
    tabulated QPs and linear in qp between them, where a PSNR past the
    float range raises InputDomainError; a QP outside the span raises
    TraceDomainError. A QP tuple that several frames share memoizes each
    in-span int QP's row offset and weight, found by bisection on first
    use; the memo, at most the span's width, is left out of equality,
    ``repr`` and pickling. One frozen table may back any number of runs.
    """

    rows: dict[int, tuple[int, ...]]
    psnr: memoryview = field(repr=False)
    bits: memoryview = field(repr=False)
    _frames: dict[int, tuple] = field(compare=False, repr=False)

    def __init__(self, qps: dict[int, Iterable[int]], psnr: bytes, bits: bytes) -> None:
        grids: dict[tuple[int, ...], tuple[int, ...]] = {}  # one per distinct QP list
        rows = {f: grids.setdefault(g, g) for f, g in zip(qps, map(tuple, qps.values()))}
        memos = {  # for the QP tuples that several frames share
            g: {} for g, n in Counter(rows.values()).items()
            if n > 1 and all(abs(q) <= _EXACT for q in g)
        }
        frames, start = {}, 0
        for frame, grid in rows.items():
            frames[frame] = (start, grid, memos.get(grid))
            start += len(grid)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "psnr", memoryview(bytes(psnr)).cast("d"))
        object.__setattr__(self, "bits", memoryview(bytes(bits)).cast("d"))
        object.__setattr__(self, "_frames", frames)

    def __reduce__(self):
        # Memoryviews do not pickle: a table goes as its QP tuples and the
        # bytes under its two columns.
        return type(self), (self.rows, self.psnr.obj, self.bits.obj)

    @classmethod
    def load(cls, path: str | Path) -> "TraceTable":
        """Parse a trace CSV one line at a time. As in a config file, lines
        end at \\n, \\r and \\r\\n only, and a leading UTF-8 byte-order
        mark is skipped."""
        from array import array

        qps: dict[int, list[int]] = {}
        psnr_col, bits_col = array("d"), array("d")
        add_psnr, add_bits = psnr_col.append, bits_col.append
        prev_key = (-math.inf, -math.inf)  # sorts below every row
        try:
            with open(path, encoding="utf-8-sig") as lines:
                if next(lines, "").strip() != TRACE_HEADER:
                    raise InputDomainError(
                        f"trace table must start with header {TRACE_HEADER!r}"
                    )
                for lineno, line in enumerate(lines, start=2):
                    try:
                        frame, qp, psnr, bits = line.rstrip("\n").split(",")
                    except ValueError:
                        if not line.strip():  # a blank line has no commas
                            continue
                        raise InputDomainError(
                            f"trace line {lineno}: expected 4 fields"
                        ) from None
                    try:
                        frame, qp, psnr, bits = int(frame), int(qp), float(psnr), float(bits)
                    except ValueError as exc:
                        raise InputDomainError(f"trace line {lineno}: {exc}") from exc
                    if not math.isfinite(psnr) or not math.isfinite(bits) or bits < 0:
                        raise InputDomainError(f"trace line {lineno}: bad psnr/bits")
                    key = (frame, qp)
                    if key <= prev_key:
                        raise InputDomainError(
                            f"trace line {lineno}: rows must be strictly sorted"
                            " by (frame, qp)"
                        )
                    if frame != prev_key[0]:
                        frame_qps = qps[frame] = []
                    prev_key = key
                    frame_qps.append(qp)
                    add_psnr(psnr)
                    add_bits(bits)
        except UnicodeDecodeError as exc:
            raise InputDomainError(f"not UTF-8 text: {exc}") from exc
        if not qps:
            raise InputDomainError("trace table has no data rows")
        return cls(qps, psnr_col.tobytes(), bits_col.tobytes())

    def lookup(self, frame_index: int, qp: int) -> tuple[float, float]:
        try:
            start, qps, memo = self._frames[frame_index]
        except KeyError:
            raise TraceDomainError(f"frame {frame_index} is not tabulated") from None
        if memo is not None and (place := memo.get(qp)) is not None:
            i, w = place
        else:
            i = bisect_left(qps, qp)
            if i < len(qps) and qps[i] == qp:
                w = None  # a flag, so a weight that underflows to 0.0 interpolates
            elif i == 0 or i == len(qps):
                raise TraceDomainError(
                    f"qp {qp} outside tabulated span "
                    f"[{qps[0]}, {qps[-1]}] at frame {frame_index}"
                )
            else:
                lo = qps[i - 1]
                w = (qp - lo) / (qps[i] - lo)
            if memo is not None and type(qp) is int:
                memo[qp] = i, w
        j = start + i
        if w is None:
            return self.psnr[j], self.bits[j]
        psnr, bits = self.psnr, self.bits
        lo_psnr, lo_bits = psnr[j - 1], bits[j - 1]
        value = lo_psnr + w * (psnr[j] - lo_psnr)
        if not math.isfinite(value):
            raise InputDomainError(f"psnr must be finite, got {value!r}")
        return value, lo_bits + w * (bits[j] - lo_bits)


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
    """Resolve ``model`` once into ``step(t, qp) -> (psnr, bits)`` for one run.

    Fed integer QPs at frames t = 0, 1, ..., n_frames - 1, and no other
    frame, the stepper returns bit for bit what ``step_plant`` returns on a
    freshly reset model. A trace-driven plant's stepper is its table's
    ``lookup``, which takes the frame first. A synthetic plant's disturbance
    column is taken once from the process-wide memo, and the closure keeps
    the previous PSNR itself, starting at ``initial_psnr``. No stepper
    mutates or copies the model. A non-finite PSNR raises InputDomainError
    on the frame that makes it.
    """
    isfinite = math.isfinite
    if model.kind is PlantKind.TRACE_DRIVEN:
        return model.trace.lookup

    ws = _shared_column(model.disturbance, n_frames)
    # Bits per QP, each entry made and checked on the QP's first use; a QP
    # range has no size limit, so the memo is not built ahead of the run.
    rates: dict[int, float] = {}
    intercept, slope = model.psnr_intercept, model.psnr_slope
    first_order = model.kind is PlantKind.FIRST_ORDER
    alpha, beta = model.inertia, 1.0 - model.inertia
    prev = model.initial_psnr if first_order else None

    def step(t: int, qp: int) -> tuple[float, float]:
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
        try:
            return psnr, rates[qp]
        except KeyError:  # the QP's first use; a refused entry chains no KeyError
            pass
        bits = rates[qp] = _checked_bits(rate_model(model, qp))
        return psnr, bits

    return step
