"""Impulse-response identification of a plant's discrete order (0 or 1).

The experiment drives the plant with a QP impulse — minimum QP for one
frame, then maximum QP for the rest — and records the quality error against
the settled level, so the response isolates the plant's own dynamics. A
one-parameter autoregressive fit ``d[t+1] = r * d[t]`` on the de-trended
transient then separates a memoryless (order 0) response from a one-pole
(order 1) response.

All functions here are pure over their inputs and safe for parallel use;
``run_impulse`` steps a shallow copy of the plant, its disturbance left
out, through a per-run stepper and never mutates the plant itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .controller import QpRange
from .errors import InputDomainError
from .harness import mean, mean_about_first, pstd
from .plant import DisturbanceSpec, PlantModel, plant_stepper

#: Smallest |pole| treated as real memory rather than numerical residue.
POLE_THRESHOLD = 0.05
#: Largest relative one-step fit residual accepted as a clean order-1 fit.
RESIDUAL_THRESHOLD = 0.1

MIN_RESPONSE_LENGTH = 8


@dataclass(frozen=True)
class ImpulseExperiment:
    """Recorded QP impulse run: the error response to the impulse."""

    response: tuple[float, ...]


@dataclass(frozen=True)
class OrderEstimate:
    """Estimated system order with the fitted pole (order 1 only)."""

    order: int
    pole: float | None
    fit_residual: float


def run_impulse(plant: PlantModel, qp_range: QpRange, n: int) -> ImpulseExperiment:
    """Drive the plant, with its disturbance left out, by a QP impulse.

    The input is ``qp_min`` at frame 0 and ``qp_max`` from frame 1 on. The
    response is each frame's PSNR minus the settled PSNR (mean of the last
    quarter of the run), i.e. the error a pure setpoint objective would see
    against the settled level.
    """
    if n < MIN_RESPONSE_LENGTH:
        raise InputDomainError(
            f"impulse run needs at least {MIN_RESPONSE_LENGTH} frames, got {n}"
        )
    step = plant_stepper(replace(plant, disturbance=DisturbanceSpec()), n)
    qps = (qp_range.qp_min,) + (qp_range.qp_max,) * (n - 1)
    psnr = [step(t, qp)[0] for t, qp in enumerate(qps)]
    try:
        settled = mean_about_first(psnr[-(n // 4):])
    except OverflowError:
        raise InputDomainError(
            "the impulse run's settled psnr sums past the float range"
        ) from None
    response = tuple(value - settled for value in psnr)
    return ImpulseExperiment(response=response)


def estimate_order(response: Sequence[float]) -> OrderEstimate:
    """Classify a recorded response as order 0 or order 1.

    De-trends by the mean of the last quarter (robust to residual
    transient), then fits ``d[t+1] = r * d[t]`` by least squares on the
    transient portion: the samples up to the first one that has settled
    into the tail's noise band, plus one settled successor so the decay to
    zero is part of the fit. Order 1 is reported when the fitted pole
    magnitude reaches ``POLE_THRESHOLD`` with a relative RMS residual no
    larger than ``RESIDUAL_THRESHOLD``; the pole must also clear the
    measured noise-to-signal ratio (tail noise band over peak), so a pole
    no larger than the noise floor is never mistaken for memory. The
    residual is normalized by the peak de-trended magnitude; the window,
    the fit and both gates are invariant under scaling of the response.

    Raises InputDomainError when the response is not at least
    ``MIN_RESPONSE_LENGTH`` finite numbers, carries no transient (all-zero
    or constant), or gives a fit outside the stable order-<=1 family.
    """
    try:
        arr = [float(value) for value in response]
    except (TypeError, ValueError):
        raise InputDomainError("response must be a sequence of numbers") from None
    if len(arr) < MIN_RESPONSE_LENGTH:
        raise InputDomainError(
            f"response must hold at least {MIN_RESPONSE_LENGTH} samples"
        )
    if not all(map(math.isfinite, arr)):
        raise InputDomainError("response must be finite")
    scale, exponent = math.frexp(max(map(abs, arr)))
    if scale == 0.0:
        raise InputDomainError("all-zero response: order undefined")
    # The fit is invariant under power-of-two scaling, so bringing the
    # largest sample into [0.5, 1) changes no result and keeps every sum
    # and product below within the float range.
    arr = [math.ldexp(value, -exponent) for value in arr]

    n = len(arr)
    quarter = n // 4
    settled = mean_about_first(arr[-quarter:])
    detrended = [value - settled for value in arr]
    peak = max(map(abs, detrended))
    if peak <= 1e-12 * scale:
        raise InputDomainError("constant response: order undefined")

    # Transient window: everything before the response first enters the
    # settled tail's noise band (floored so an exactly-zero tail still
    # leaves a band), plus one settled sample. Late noise excursions must
    # not stretch the window, hence first entry rather than last exit.
    noise_band = max(3.0 * pstd(detrended[-quarter:]), 1e-9 * peak)
    first_settled = next(
        (t for t in range(1, n) if abs(detrended[t]) <= noise_band), n - quarter - 1
    )
    window = min(max(first_settled + 1, 2), n - quarter)
    x = detrended[: window - 1]
    y = detrended[1:window]
    denom = math.fsum(a * a for a in x)
    if denom == 0.0:
        raise InputDomainError("transient has no energy: order undefined")
    r = math.fsum(a * b for a, b in zip(x, y)) / denom
    residual = math.sqrt(mean([(b - r * a) ** 2 for a, b in zip(x, y)])) / peak

    # A zero-order response settles by sample 1, so its fitted pole is at
    # most noise_band / peak; requiring the pole to clear that ratio makes
    # the order-0 call exact rather than probabilistic under tail noise.
    effective_threshold = max(POLE_THRESHOLD, noise_band / peak)
    if abs(r) >= effective_threshold and residual <= RESIDUAL_THRESHOLD:
        if abs(r) >= 1.0:
            raise InputDomainError(
                f"fitted pole {r:.4f} outside the stable order-<=1 family"
            )
        return OrderEstimate(order=1, pole=r, fit_residual=residual)
    return OrderEstimate(order=0, pole=None, fit_residual=residual)
