"""Deterministic per-frame PSNR disturbances for the synthetic plants.

A ``DisturbanceSpec`` picks one of five kinds: none, constant, step,
sinusoid or seeded noise. ``disturbance_at(spec, t)`` is the scalar
reference and holds each kind's only formula. ``disturbance_column(spec,
n)`` equals it over frames ``0 .. n - 1`` bit for bit. It builds none,
sinusoid and seeded noise in bulk, the last with the splitmix64 finalizer
(Steele, Lea and Flood, "Fast Splittable Pseudorandom Number Generators",
OOPSLA 2014) run over every frame at once, the frames packed into the lanes
of one big int; constant and step map ``disturbance_at`` over the frames.

Run steppers read their column from ``_shared_column``: a process-wide memo
of immutable tuples keyed by ``repr(spec)`` and the frame count, at most 16
columns of 32 B per frame (an 8-byte slot and a 24-byte float), so at most
``16 * n_frames * 32`` bytes, 1 MB at 2,000 frames.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import InputDomainError

_MASK64 = (1 << 64) - 1


class DisturbanceKind(Enum):
    NONE = "none"
    CONSTANT = "constant"
    STEP = "step"
    SINUSOID = "sinusoid"
    SEEDED_NOISE = "seeded_noise"


# Bound once by name: each ``DisturbanceKind.X`` lookup costs about as much
# as a formula, and disturbance_at compares against these on every call.
_NONE, _CONSTANT = DisturbanceKind.NONE, DisturbanceKind.CONSTANT
_STEP, _SINUSOID = DisturbanceKind.STEP, DisturbanceKind.SINUSOID
_SEEDED_NOISE = DisturbanceKind.SEEDED_NOISE


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


def disturbance_at(spec: DisturbanceSpec, frame_index: int) -> float:
    """Disturbance value (dB) at a frame; pure in (spec, frame_index)."""
    if frame_index < 0:
        raise InputDomainError("frame_index must be nonnegative")
    kind = spec.kind
    if kind is _SEEDED_NOISE:  # uniform in [-amplitude, amplitude]
        unit = _mix64(_mix64(spec.seed & _MASK64) ^ (frame_index & _MASK64)) / float(1 << 64)
        return spec.amplitude * (2.0 * unit - 1.0)
    if kind is _SINUSOID:
        return spec.amplitude * math.sin(2.0 * math.pi * frame_index / spec.period)
    if kind is _STEP:
        return spec.amplitude if frame_index >= spec.step_frame else 0.0
    if kind is _CONSTANT:
        return spec.amplitude
    return 0.0  # DisturbanceKind.NONE


def _lane_index(n: int) -> int:
    """An int whose 128-bit lane t holds t for t < n, built by doubling; the
    lanes past n, up to a power of two, hold their index too."""
    index, ones, lanes = 0, 1, 1
    while lanes < n:
        index |= (index + lanes * ones) << (128 * lanes)
        ones |= ones << (128 * lanes)
        lanes *= 2
    return index


def _seeded_noise_column(spec: DisturbanceSpec, n: int) -> list[float]:
    # _mix64 over every frame at once. Frame t's word sits in a 128-bit lane
    # at bits [128t, 128t + 64), so each step of the mix is one big-int
    # operation. A lane's product stays below 2**128 and never reaches the
    # next lane; masking each xor-shift to the low words drops what the
    # shift pulls in from the next lane, and the first mask drops the index
    # lanes past n. The constants are _mix64's, and every byte conversion is
    # little-endian, so no step depends on the host's byte order.
    if n > sys.maxsize // 16:  # no bytes object holds n lanes
        raise MemoryError(f"{n} noise lanes of 16 bytes exceed any bytes object")
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    x = _lane_index(n) ^ (_mix64(spec.seed & _MASK64) * ones)
    x = (x + 0x9E3779B97F4A7C15 * ones) & low
    x = (((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    x = (((x ^ (x >> 27)) & low) * 0x94D049BB133111EB) & low
    x ^= x >> 31
    words = struct.unpack(f"<{2 * n}Q", x.to_bytes(16 * n, "little"))[::2]
    amplitude, scale = spec.amplitude, float(1 << 64)
    return [amplitude * (2.0 * (w / scale) - 1.0) for w in words]


def disturbance_column(spec: DisturbanceSpec, n_frames: int) -> list[float]:
    """``[disturbance_at(spec, t) for t in range(n_frames)]``, in bulk where it pays."""
    if n_frames < 0:
        raise InputDomainError("n_frames must be nonnegative")
    kind = spec.kind
    if kind is _SEEDED_NOISE:
        return _seeded_noise_column(spec, n_frames)
    if kind is _SINUSOID:
        # 2.0 * math.pi * t / period evaluates left to right, so hoisting the
        # product keeps every bit.
        amplitude, period, sin = spec.amplitude, spec.period, math.sin
        two_pi = 2.0 * math.pi
        return [amplitude * sin(two_pi * t / period) for t in range(n_frames)]
    if kind is _NONE:
        return [0.0] * n_frames
    return [disturbance_at(spec, t) for t in range(n_frames)]


@functools.lru_cache(maxsize=16)
def _memo_column(spec_repr: str, n_frames: int, spec: DisturbanceSpec) -> tuple[float, ...]:
    return tuple(disturbance_column(spec, n_frames))


def _shared_column(spec: DisturbanceSpec, n_frames: int) -> tuple[float, ...]:
    # Keyed by repr, not by the spec: specs with amplitudes 0.0 and -0.0
    # compare equal, yet their columns differ in the sign of zero.
    return _memo_column(repr(spec), n_frames, spec)
