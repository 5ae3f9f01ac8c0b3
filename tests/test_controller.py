"""Controller unit tests: error signal, PID algebra, QP policy, sequencing."""

import math
import random

import pytest

from qpcontrol.controller import (
    ControllerState,
    ControlObjective,
    FrameKind,
    PidGains,
    QpRange,
    clamp_round_qp,
    compute_error,
    controller_frame,
    pid_step,
    policy_qp,
)
from qpcontrol.errors import InputDomainError, SequencingError

WIDE = QpRange(qp_min=-(10 ** 6), qp_max=10 ** 6)


def pid_reference(history, gains):
    """From-scratch PID evaluation over a full error history."""
    outputs = []
    for t, error in enumerate(history):
        integral = math.fsum(history[: t + 1])
        derivative = history[t] - history[t - 1] if t > 0 else 0.0
        outputs.append(gains.kp * error + gains.ki * integral - gains.kd * derivative)
    return outputs


def feed_o_sequence(state, o_values, kind, qp_range=WIDE):
    """Drive the policy with a chosen o sequence via the proportional identity."""
    identity = PidGains(kp=1.0, ki=0.0, kd=0.0)
    qps = []
    for o in o_values:
        produced = pid_step(o, state, identity)
        assert produced == o
        qps.append(policy_qp(produced, kind, state, qp_range))
    return qps


class TestComputeError:
    def test_all_zero_terms(self):
        obj = ControlObjective(target_psnr=29.2, lambda_=0.8)
        assert compute_error(29.2, 29.2, obj) == 0.0

    def test_lambda_one_reduces_to_setpoint_error(self):
        obj = ControlObjective(target_psnr=29.2, lambda_=1.0)
        assert compute_error(30.0, 30.0, obj) == pytest.approx(0.8)

    def test_mixed_terms(self):
        # 0.8 * (30 - 29.2) + 0.2 * (30 - 31) = 0.44
        obj = ControlObjective(target_psnr=29.2, lambda_=0.8)
        assert compute_error(30.0, 31.0, obj) == pytest.approx(0.44)

    def test_first_frame_fluctuation_term_is_zero(self):
        obj = ControlObjective(target_psnr=30.0, lambda_=0.5)
        assert compute_error(32.0, None, obj) == pytest.approx(0.5 * 2.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        obj = ControlObjective(target_psnr=30.0)
        with pytest.raises(InputDomainError):
            compute_error(bad, 30.0, obj)
        with pytest.raises(InputDomainError):
            compute_error(30.0, bad, obj)

    def test_lambda_endpoints_exact(self):
        rng = random.Random(11)
        setpoint_only = ControlObjective(target_psnr=37.2, lambda_=1.0)
        fluctuation_only = ControlObjective(target_psnr=37.2, lambda_=0.0)
        for _ in range(200):
            psnr = rng.uniform(20.0, 50.0)
            prev = rng.uniform(20.0, 50.0)
            assert compute_error(psnr, prev, setpoint_only) == psnr - 37.2
            assert compute_error(psnr, prev, fluctuation_only) == psnr - prev


class TestTypes:
    def test_gains_must_be_nonnegative(self):
        with pytest.raises(InputDomainError):
            PidGains(kp=-1.0)
        with pytest.raises(InputDomainError):
            PidGains(ki=-0.1)
        with pytest.raises(InputDomainError):
            PidGains(kd=math.nan)

    def test_lambda_bounds(self):
        with pytest.raises(InputDomainError):
            ControlObjective(target_psnr=30.0, lambda_=1.5)
        with pytest.raises(InputDomainError):
            ControlObjective(target_psnr=30.0, lambda_=-0.1)

    def test_target_must_be_positive_finite(self):
        with pytest.raises(InputDomainError):
            ControlObjective(target_psnr=0.0)
        with pytest.raises(InputDomainError):
            ControlObjective(target_psnr=math.inf)

    def test_qp_range_order(self):
        with pytest.raises(InputDomainError):
            QpRange(qp_min=10, qp_max=5)

    def test_default_gains(self):
        gains = PidGains()
        assert (gains.kp, gains.ki, gains.kd) == (2.12, 0.10, 0.60)


class TestPidStep:
    def test_zero_history(self):
        state = ControllerState()
        assert pid_step(0.0, state, PidGains()) == 0.0

    def test_proportional_identity(self):
        state = ControllerState()
        assert pid_step(2.0, state, PidGains(kp=1.0, ki=0.0, kd=0.0)) == 2.0

    def test_worked_example(self):
        # history {1.0, 0.5}: 2.12*0.5 + 0.10*1.5 - 0.60*(0.5 - 1.0) = 1.51
        gains = PidGains(kp=2.12, ki=0.10, kd=0.60)
        state = ControllerState()
        pid_step(1.0, state, gains)
        assert pid_step(0.5, state, gains) == pytest.approx(1.51)

    def test_first_derivative_is_zero(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=1.0)
        state = ControllerState()
        assert pid_step(5.0, state, gains) == 0.0
        assert pid_step(7.0, state, gains) == -(7.0 - 5.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputDomainError):
            pid_step(math.nan, ControllerState(), PidGains())

    def test_matches_reference_over_random_histories(self):
        rng = random.Random(7)
        for _ in range(50):
            gains = PidGains(
                kp=rng.uniform(0, 5), ki=rng.uniform(0, 1), kd=rng.uniform(0, 2)
            )
            history = [rng.uniform(-10, 10) for _ in range(rng.randrange(1, 200))]
            state = ControllerState()
            outputs = [pid_step(e, state, gains) for e in history]
            expected = pid_reference(history, gains)
            for got, want in zip(outputs, expected):
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

    def test_long_history_accumulators_match_recomputation(self):
        rng = random.Random(13)
        history = [rng.uniform(-5, 5) for _ in range(10 ** 4)]
        state = ControllerState()
        for e in history:
            pid_step(e, state, PidGains())
        assert math.isclose(
            state.error_integral, math.fsum(history), rel_tol=1e-9, abs_tol=1e-12
        )
        assert state.prev_error == history[-1]

    def test_scaling_linearity_exact(self):
        # powers of two commute with IEEE rounding, so scaling is exact
        rng = random.Random(3)
        gains = PidGains()
        for factor in (2.0, 8.0, 0.25, -2.0, -0.5):
            history = [rng.uniform(-50, 50) for _ in range(64)]
            s1, s2 = ControllerState(), ControllerState()
            base = [pid_step(e, s1, gains) for e in history]
            scaled = [pid_step(factor * e, s2, gains) for e in history]
            assert scaled == [factor * o for o in base]

    def test_additivity_exact_on_dyadic_inputs(self):
        # dyadic gains and integer-valued errors keep every product exact
        rng = random.Random(5)
        gains = PidGains(kp=2.125, ki=0.125, kd=0.5)
        for _ in range(50):
            n = rng.randrange(1, 100)
            a = [float(rng.randrange(-(2 ** 20), 2 ** 20)) for _ in range(n)]
            b = [float(rng.randrange(-(2 ** 20), 2 ** 20)) for _ in range(n)]
            sa, sb, sab = ControllerState(), ControllerState(), ControllerState()
            oa = [pid_step(e, sa, gains) for e in a]
            ob = [pid_step(e, sb, gains) for e in b]
            oab = [pid_step(x + y, sab, gains) for x, y in zip(a, b)]
            assert oab == [x + y for x, y in zip(oa, ob)]


class TestClampRoundQp:
    @pytest.mark.parametrize(
        "raw,expected",
        [(54.3, 51), (-3.0, 0), (32.4, 32), (31.5, 32), (32.5, 33), (0.2, 0)],
    )
    def test_examples(self, raw, expected):
        assert clamp_round_qp(raw, QpRange()) == expected

    def test_ties_away_from_zero_negative(self):
        assert clamp_round_qp(-31.5, QpRange(qp_min=-100, qp_max=100)) == -32

    def test_rejects_nonfinite(self):
        with pytest.raises(InputDomainError):
            clamp_round_qp(math.nan, QpRange())

    def test_always_integer_in_range(self):
        rng = random.Random(23)
        qp_range = QpRange(qp_min=0, qp_max=51)
        for _ in range(500):
            qp = clamp_round_qp(rng.uniform(-200, 200), qp_range)
            assert isinstance(qp, int)
            assert 0 <= qp <= 51


class TestPolicyQp:
    def test_zero_o_preserves_anchor(self):
        state = ControllerState(qp_offset=32.0)
        qps = feed_o_sequence(state, [0.0] * 10, FrameKind.INTER, QpRange())
        assert qps == [32] * 10

    def test_inter_single_accumulation(self):
        state = ControllerState(qp_offset=32.0)
        qps = feed_o_sequence(state, [1.0, 1.0], FrameKind.INTER)
        assert qps == [33, 34]
        assert state.o_integral == 2.0

    def test_intra_double_accumulation(self):
        state = ControllerState(qp_offset=32.0)
        qps = feed_o_sequence(state, [1.0, 1.0], FrameKind.INTRA)
        # 32 + 1, then 32 + (1 + (1+1)) = 35
        assert qps == [33, 35]
        assert state.o_double_integral == 3.0

    def test_double_call_is_a_sequencing_error(self):
        state = ControllerState(qp_offset=32.0)
        o = pid_step(1.0, state, PidGains(kp=1.0, ki=0.0, kd=0.0))
        policy_qp(o, FrameKind.INTER, state, QpRange())
        with pytest.raises(SequencingError):
            policy_qp(o, FrameKind.INTER, state, QpRange())

    def test_policy_without_pid_step_is_a_sequencing_error(self):
        with pytest.raises(SequencingError):
            policy_qp(1.0, FrameKind.INTER, ControllerState(), QpRange())

    def test_accumulators_advance_once_per_frame_for_both_kinds(self):
        rng = random.Random(41)
        o_values = [rng.uniform(-2, 2) for _ in range(100)]
        state = ControllerState(qp_offset=0.0)
        kinds = [FrameKind.INTER if i % 3 else FrameKind.INTRA for i in range(100)]
        identity = PidGains(kp=1.0, ki=0.0, kd=0.0)
        for o, kind in zip(o_values, kinds):
            policy_qp(pid_step(o, state, identity), kind, state, WIDE)
        single = math.fsum(o_values)
        double = math.fsum(
            (len(o_values) - i) * o for i, o in enumerate(o_values)
        )
        assert math.isclose(state.o_integral, single, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(state.o_double_integral, double, rel_tol=1e-9, abs_tol=1e-12)
        assert state.frame_index == 100

    def test_windup_accumulators_keep_advancing_at_the_clamp(self):
        gains = PidGains()
        qp_range = QpRange()
        state = ControllerState(qp_offset=32.0)
        qps = []
        for _ in range(30):
            qps.append(policy_qp(pid_step(10.0, state, gains), FrameKind.INTER, state, qp_range))
        assert qps[-1] == 51
        assert state.qp_offset + state.o_integral > 51.5  # wound up past the clamp
        # after the error reverses, the emitted QP lags at the clamp while
        # the accumulator unwinds
        lagged = []
        for _ in range(5):
            lagged.append(policy_qp(pid_step(-10.0, state, gains), FrameKind.INTER, state, qp_range))
        assert lagged == [51] * 5

    def test_positive_error_drives_qp_upward(self):
        gains = PidGains()
        state = ControllerState(qp_offset=32.0)
        raw = []
        for _ in range(10):
            o = pid_step(1.0, state, gains)
            assert o > 0
            policy_qp(o, FrameKind.INTER, state, WIDE)
            raw.append(state.qp_offset + state.o_integral)
        assert all(b > a for a, b in zip(raw, raw[1:]))


class TestControllerFrame:
    def setup_method(self):
        self.gains = PidGains()
        self.objective = ControlObjective(target_psnr=37.2, lambda_=0.8)
        self.qp_range = QpRange()

    def step(self, psnr, state, kind=FrameKind.INTER):
        return controller_frame(
            psnr, kind, state, self.gains, self.objective, self.qp_range
        )

    def test_first_frame_emits_rounded_anchor(self):
        state = ControllerState(qp_offset=36.6)
        assert self.step(None, state) == 37
        assert state.frame_index == 1

    def test_first_frame_rejects_a_psnr(self):
        with pytest.raises(InputDomainError):
            self.step(37.0, ControllerState(qp_offset=32.0))

    def test_later_frames_require_a_psnr(self):
        state = ControllerState(qp_offset=32.0)
        self.step(None, state)
        with pytest.raises(InputDomainError):
            self.step(None, state)

    def test_zero_error_keeps_anchor_forever(self):
        state = ControllerState(qp_offset=32.0)
        assert self.step(None, state) == 32
        for _ in range(50):
            assert self.step(37.2, state) == 32

    def test_state_size_does_not_grow(self):
        state = ControllerState(qp_offset=32.0)
        self.step(None, state)
        baseline = len(state.as_text().splitlines())
        for t in range(1000):
            self.step(37.2 + 0.01 * (t % 7), state)
        assert len(state.as_text().splitlines()) == baseline


class TestReset:
    def test_state_text_lists_every_field(self):
        text = ControllerState(qp_offset=32.0).as_text()
        for name in (
            "prev_error",
            "error_integral",
            "o_integral",
            "o_double_integral",
            "prev_psnr",
            "qp_offset",
            "frame_index",
        ):
            assert f"{name}=" in text
