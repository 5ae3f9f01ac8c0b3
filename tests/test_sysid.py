"""Order identification tests: impulse runs and the one-pole AR fit."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpcontrol.controller import QpRange
from qpcontrol.errors import InputDomainError
from qpcontrol.plant import (
    DisturbanceKind,
    DisturbanceSpec,
    PlantKind,
    PlantModel,
    disturbance_at,
)
from qpcontrol.sysid import POLE_THRESHOLD, estimate_order, run_impulse

QP_RANGE = QpRange()


def order_outcome(response):
    """``estimate_order``'s fields, or the type of the exception it raises."""
    try:
        estimate = estimate_order(response)
    except Exception as exc:
        return type(exc)
    return estimate.order, estimate.pole, estimate.fit_residual


@st.composite
def impulse_responses(draw):
    """``run_impulse`` on a random zero- or first-order plant, with seeded
    noise added to the response or not."""
    plant = PlantModel(
        draw(st.sampled_from([PlantKind.ZERO_ORDER, PlantKind.FIRST_ORDER])),
        psnr_intercept=draw(st.floats(20.0, 80.0)),
        psnr_slope=draw(st.floats(0.01, 2.0)),
        inertia=draw(st.floats(0.0, 0.95)),
    )
    qp_min = draw(st.integers(0, 50))
    qp_range = QpRange(qp_min, draw(st.integers(qp_min + 1, 51)))
    response = run_impulse(plant, qp_range, draw(st.integers(8, 64))).response
    if draw(st.booleans()):
        noise = DisturbanceSpec(
            kind=DisturbanceKind.SEEDED_NOISE,
            amplitude=draw(st.floats(0.0, 5.0)),
            seed=draw(st.integers(0, 2**64 - 1)),
        )
        response = [v + disturbance_at(noise, t) for t, v in enumerate(response)]
    return response


class TestRunImpulse:
    def test_schedule_is_qp_min_then_qp_max(self):
        # A zero-order plant settles at once, so the response reads the
        # schedule back: qp_min at frame 0, qp_max on every later frame.
        plant = PlantModel.zero_order()

        def core(qp):
            return plant.psnr_intercept - plant.psnr_slope * qp

        response = run_impulse(plant, QP_RANGE, 16).response
        assert response == (core(0) - core(51),) + (0.0,) * 15

    def test_minimum_length_boundary(self):
        run_impulse(PlantModel.zero_order(), QP_RANGE, 8)
        with pytest.raises(InputDomainError):
            run_impulse(PlantModel.zero_order(), QP_RANGE, 7)

    def test_zero_order_settles_in_one_step(self):
        response = run_impulse(PlantModel.zero_order(), QP_RANGE, 32).response
        assert response[0] != 0.0
        tail = response[1:]
        assert all(v == tail[0] for v in tail)

    def test_first_order_response_is_geometric(self):
        alpha = 0.8
        response = run_impulse(PlantModel.first_order(alpha), QP_RANGE, 64).response
        # successive differences shrink by exactly alpha per frame (the
        # constant settle offset cancels in the differences)
        diffs = [b - a for a, b in zip(response, response[1:])]
        for current, following in zip(diffs[:20], diffs[1:21]):
            assert following / current == pytest.approx(alpha, rel=1e-9)

    def test_disturbance_is_disabled(self):
        noisy = PlantModel.first_order(
            0.5,
            disturbance=DisturbanceSpec(
                kind=DisturbanceKind.SEEDED_NOISE, amplitude=2.0, seed=5
            ),
        )
        clean = PlantModel.first_order(0.5)
        assert (
            run_impulse(noisy, QP_RANGE, 32).response
            == run_impulse(clean, QP_RANGE, 32).response
        )

    def test_a_rate_offset_past_the_float_range_is_a_domain_error(self):
        # the QP offset from rate_ref_qp does not convert to a float
        plant = PlantModel.first_order(0.5, rate_ref_qp=10**400)
        with pytest.raises(InputDomainError, match="bits must be finite"):
            run_impulse(plant, QP_RANGE, 64)

    def test_input_plant_is_not_mutated(self):
        plant = PlantModel.first_order(0.5, initial_psnr=42.0)
        run_impulse(plant, QP_RANGE, 16)
        assert plant.prev_psnr == 42.0


class TestEstimateOrder:
    def test_one_step_settle_is_order_zero(self):
        estimate = estimate_order([5.0] + [0.0] * 31)
        assert estimate.order == 0
        assert estimate.pole is None
        assert estimate.fit_residual == 0.0

    def test_exact_geometric_sequence(self):
        estimate = estimate_order([0.8 ** t for t in range(100)])
        assert estimate.order == 1
        assert estimate.pole == pytest.approx(0.8, abs=1e-6)

    @pytest.mark.parametrize(
        "response, message",
        [
            ([1.0, 0.5, 0.25, 0.125, 0.0, 0.0, 0.0], "at least 8 samples"),
            (["a"] * 8, "response must be a sequence of numbers"),
            ([math.nan] * 8, "response must be finite"),
        ],
        ids=["too_short", "not_numbers", "not_finite"],
    )
    def test_rejects_what_is_not_eight_finite_numbers(self, response, message):
        with pytest.raises(InputDomainError, match=message):
            estimate_order(response)

    def test_all_zero_response_is_degenerate(self):
        with pytest.raises(InputDomainError, match="all-zero response"):
            estimate_order([0.0] * 32)

    def test_constant_response_is_degenerate(self):
        with pytest.raises(InputDomainError, match="constant response"):
            estimate_order([3.5] * 32)

    def test_non_decaying_transient_is_outside_the_model_family(self):
        # flat then growing: the transient fit lands on |pole| >= 1
        with pytest.raises(InputDomainError, match="outside the stable"):
            estimate_order([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 4.0, 8.0])

    def test_a_pole_above_the_threshold_is_order_one(self):
        assert POLE_THRESHOLD < 0.1
        assert estimate_order([0.1 ** t for t in range(32)]).order == 1

    def test_a_pole_below_the_threshold_is_order_zero(self):
        assert POLE_THRESHOLD > 0.04
        assert estimate_order([0.04 ** t for t in range(32)]).order == 0

    # Each response below is one transient sample d[1] after d[0] = 1, then a
    # settled tail of zeros, so the fit pairs (1, d[1]) and (d[1], 0): its
    # pole is d[1] / (1 + d[1]**2) and its residual d[1]**2 / sqrt(2 * (1 +
    # d[1]**2)), which sit just either side of each threshold.

    @pytest.mark.parametrize("d1, order", [(0.055, 1), (0.045, 0)])
    def test_the_pole_threshold_is_0_05(self, d1, order):
        # fitted poles 0.0548 and 0.0449, residuals near 0.002
        assert estimate_order([1.0, d1] + [0.0] * 30).order == order

    @pytest.mark.parametrize("d1, order", [(0.38, 1), (0.4, 0)])
    def test_the_residual_threshold_is_0_1(self, d1, order):
        # residuals 0.0954 and 0.1050, fitted poles above 0.3
        assert estimate_order([1.0, d1] + [0.0] * 30).order == order

    @pytest.mark.parametrize(
        "transient, pole, mean_square",
        [([1.0, 0.5], None, 0.025), ([1.0, 0.5, 0.25], 10 / 21, 5 / 1008)],
        ids=["one_transient_step", "two_transient_steps"],
    )
    def test_the_fit_ends_one_sample_past_the_first_settled_one(
        self, transient, pole, mean_square
    ):
        # One more settled sample would average in one more zero residual.
        estimate = estimate_order(transient + [0.0] * (32 - len(transient)))
        assert estimate.pole == pytest.approx(pole, rel=1e-12)
        assert estimate.fit_residual == pytest.approx(math.sqrt(mean_square), rel=1e-12)

    @given(
        response=impulse_responses(),
        sign=st.sampled_from([1.0, -1.0]),
        k=st.integers(-20, 20),
    )
    def test_power_of_two_scaling_changes_nothing(self, response, sign, k):
        # every product with sign * 2**k is exact, so the fit is too
        factor = sign * 2.0**k
        assert order_outcome([factor * v for v in response]) == order_outcome(response)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308, 0.0]),
            min_size=8,
            max_size=64,
        )
    )
    @example([1.7e308, 1.7e308, -1.7e308, 1.7e308, 0.0, 0.0, 0.0, 0.0])
    def test_every_finite_response_is_fitted_or_rejected(self, response):
        # near-max samples: no sum, product or difference may leave the floats
        try:
            estimate_order(response)
        except InputDomainError:
            pass

    def test_scale_invariance(self):
        base_response = list(
            run_impulse(PlantModel.first_order(0.5), QP_RANGE, 64).response
        )
        base = estimate_order(base_response)
        for factor in (8.0, 0.125, -3.7, 1e-5, -1.0):
            scaled = estimate_order([factor * v for v in base_response])
            assert scaled.order == base.order
            assert math.isclose(scaled.pole, base.pole, rel_tol=1e-9)


class TestEndToEnd:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_first_order_grid_noiseless(self, alpha):
        experiment = run_impulse(PlantModel.first_order(alpha), QP_RANGE, 64)
        estimate = estimate_order(experiment.response)
        assert estimate.order == 1
        assert estimate.pole == pytest.approx(alpha, abs=0.01)

    def test_zero_order_noiseless(self):
        experiment = run_impulse(PlantModel.zero_order(), QP_RANGE, 64)
        assert estimate_order(experiment.response).order == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.8])
    def test_classification_robust_to_small_noise(self, alpha, seed):
        # noise amplitude 1.0 dB is below 5% of the 20.4 dB transient
        if alpha == 0.0:
            plant = PlantModel.zero_order()
        else:
            plant = PlantModel.first_order(alpha)
        response = run_impulse(plant, QP_RANGE, 64).response
        noise = DisturbanceSpec(
            kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=seed
        )
        noisy = [v + disturbance_at(noise, t) for t, v in enumerate(response)]
        estimate = estimate_order(noisy)
        assert estimate.order == (0 if alpha == 0.0 else 1)
