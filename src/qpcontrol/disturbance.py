"""Deterministic per-frame PSNR disturbances for the synthetic plants.

A ``DisturbanceSpec`` picks one of five kinds: none, constant, step,
sinusoid or seeded noise. ``disturbance_at(spec, t)`` holds each kind's only
formula; seeded noise hashes (seed, frame) with the splitmix64 finalizer
(Steele, Lea and Flood, "Fast Splittable Pseudorandom Number Generators",
OOPSLA 2014).

Run steppers read their column, ``disturbance_at`` mapped over frames
``0 .. n - 1``, from ``_shared_column``: a process-wide memo of immutable
tuples keyed by ``repr(spec)`` and the frame count. It keeps at most 16
columns. A column takes an 8-byte tuple slot per frame; sinusoid and
seeded-noise frames each add a 24-byte float, while none, constant and step
columns reuse one float object per value. So the memo holds at most 32 B per
frame of its 16 columns together: 1 MB when each has 2,000 frames.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InputDomainError

_MASK64 = (1 << 64) - 1
_TWO_64 = float(1 << 64)


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
