"""Deterministic per-frame PSNR disturbances for the synthetic plants.

A ``DisturbanceSpec`` picks one of five kinds: none, constant, step,
sinusoid or seeded noise. ``disturbance_at(spec, t)`` is the scalar
reference, one frame at a time. ``disturbance_column(spec, n)`` equals it
over frames ``0 .. n - 1`` bit for bit; it builds none, sinusoid and seeded
noise in bulk, the last with the splitmix64 finalizer (Steele, Lea and
Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014) run
over every frame at once, the frames packed into the lanes of one big int.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import InputDomainError

_MASK64 = (1 << 64) - 1


class DisturbanceKind(Enum):
    NONE = "none"
    CONSTANT = "constant"
    STEP = "step"
    SINUSOID = "sinusoid"
    SEEDED_NOISE = "seeded_noise"


@dataclass(frozen=True)
class DisturbanceSpec:
    """Deterministic per-frame PSNR perturbation.

    ``amplitude`` is in dB. Sinusoids use ``period`` frames per cycle, steps
    switch on at ``step_frame``, and seeded noise draws uniform values in
    [-amplitude, amplitude] from a counter-based mix of (seed, frame), so
    equal seeds give bitwise-identical sequences. The seed is mixed once,
    when the spec is built.
    """

    kind: DisturbanceKind = DisturbanceKind.NONE
    amplitude: float = 0.0
    period: int = 0
    step_frame: int = 0
    seed: int = 0
    seed_word: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.amplitude):
            raise InputDomainError(f"amplitude must be finite, got {self.amplitude!r}")
        if self.kind is DisturbanceKind.SINUSOID and self.period < 1:
            raise InputDomainError(
                f"period must be >= 1 for a sinusoid disturbance, got {self.period}"
            )
        object.__setattr__(self, "seed_word", _mix64(self.seed & _MASK64))


def _mix64(x: int) -> int:
    # splitmix64 finalizer: full-avalanche 64-bit mix
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _no_disturbance(spec: DisturbanceSpec, t: int) -> float:
    return 0.0


def _constant(spec: DisturbanceSpec, t: int) -> float:
    return spec.amplitude


def _step(spec: DisturbanceSpec, t: int) -> float:
    return spec.amplitude if t >= spec.step_frame else 0.0


def _sinusoid(spec: DisturbanceSpec, t: int) -> float:
    return spec.amplitude * math.sin(2.0 * math.pi * t / spec.period)


def _seeded_noise(spec: DisturbanceSpec, t: int) -> float:
    # uniform in [-amplitude, amplitude]
    unit = _mix64(spec.seed_word ^ (t & _MASK64)) / float(1 << 64)  # [0, 1)
    return spec.amplitude * (2.0 * unit - 1.0)


# The only formula of each kind: the reference the columns below are pinned to.
_DISTURBANCES: dict[DisturbanceKind, Callable[[DisturbanceSpec, int], float]] = {
    DisturbanceKind.NONE: _no_disturbance,
    DisturbanceKind.CONSTANT: _constant,
    DisturbanceKind.STEP: _step,
    DisturbanceKind.SINUSOID: _sinusoid,
    DisturbanceKind.SEEDED_NOISE: _seeded_noise,
}


def disturbance_at(spec: DisturbanceSpec, frame_index: int) -> float:
    """Disturbance value (dB) at a frame; pure in (spec, frame_index)."""
    if frame_index < 0:
        raise InputDomainError("frame_index must be nonnegative")
    return _DISTURBANCES[spec.kind](spec, frame_index)


# Bulk builders for the kinds whose runs they measurably speed up: each gives
# [_DISTURBANCES[kind](spec, t) for t in range(n)] bit for bit.


def _no_disturbance_column(spec: DisturbanceSpec, n: int) -> list[float]:
    return [0.0] * n


def _sinusoid_column(spec: DisturbanceSpec, n: int) -> list[float]:
    # 2.0 * math.pi * t / period evaluates left to right, so hoisting the
    # product keeps every bit.
    amplitude, period, sin = spec.amplitude, spec.period, math.sin
    two_pi = 2.0 * math.pi
    return [amplitude * sin(two_pi * t / period) for t in range(n)]


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
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    x = _lane_index(n) ^ (spec.seed_word * ones)
    x = (x + 0x9E3779B97F4A7C15 * ones) & low
    x = (((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    x = (((x ^ (x >> 27)) & low) * 0x94D049BB133111EB) & low
    x ^= x >> 31
    words = struct.unpack(f"<{2 * n}Q", x.to_bytes(16 * n, "little"))[::2]
    amplitude, scale = spec.amplitude, float(1 << 64)
    return [amplitude * (2.0 * (w / scale) - 1.0) for w in words]


_COLUMNS: dict[DisturbanceKind, Callable[[DisturbanceSpec, int], list[float]]] = {
    DisturbanceKind.NONE: _no_disturbance_column,
    DisturbanceKind.SINUSOID: _sinusoid_column,
    DisturbanceKind.SEEDED_NOISE: _seeded_noise_column,
}


def disturbance_column(spec: DisturbanceSpec, n_frames: int) -> list[float]:
    """``[disturbance_at(spec, t) for t in range(n_frames)]``, in bulk where it pays."""
    if n_frames < 0:
        raise InputDomainError("n_frames must be nonnegative")
    if spec.kind in _COLUMNS:
        return _COLUMNS[spec.kind](spec, n_frames)
    formula = _DISTURBANCES[spec.kind]
    return [formula(spec, t) for t in range(n_frames)]


