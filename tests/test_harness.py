"""Harness tests: runs, metrics, comparison, trace/metrics file formats."""

import dataclasses
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpcontrol.config import parse_config
from qpcontrol.controller import ControlObjective, FrameKind
from qpcontrol.errors import InputDomainError
from qpcontrol.harness import (
    ExperimentConfig,
    FrameRecord,
    MetricsReport,
    RunMode,
    TRACE_CSV_HEADER,
    comparison_text,
    compute_metrics,
    fluctuation_reduction_pct,
    metrics_json_text,
    parse_kind_pattern,
    run_closed_loop,
    run_fixed_qp,
    trace_csv_text,
)
from qpcontrol.plant import DisturbanceKind, DisturbanceSpec, PlantKind, PlantModel


def reference_plant(inertia=0.5, disturbance=None):
    kwargs = {}
    if disturbance is not None:
        kwargs["disturbance"] = disturbance
    if inertia > 0:
        return PlantModel.first_order(inertia, **kwargs)
    return PlantModel.zero_order(**kwargs)


def make_records(psnr_values, bits_values=None):
    if bits_values is None:
        bits_values = [0.0] * len(psnr_values)
    return [
        FrameRecord(frame=t, qp=32, psnr=p, bits=b, error=0.0, o=0.0)
        for t, (p, b) in enumerate(zip(psnr_values, bits_values))
    ]


class TestKindPattern:
    def test_inter_and_intra(self):
        assert parse_kind_pattern("inter")(5) is FrameKind.INTER
        assert parse_kind_pattern("intra")(5) is FrameKind.INTRA

    def test_intra_every(self):
        kind_at = parse_kind_pattern("intra_every:8")
        kinds = [kind_at(t) for t in range(17)]
        assert kinds[0] is FrameKind.INTRA
        assert kinds[8] is FrameKind.INTRA
        assert kinds[16] is FrameKind.INTRA
        assert all(k is FrameKind.INTER for i, k in enumerate(kinds) if i % 8)

    @pytest.mark.parametrize("bad", ["gop", "intra_every:0", "intra_every:x", ""])
    def test_bad_patterns(self, bad):
        with pytest.raises(InputDomainError):
            parse_kind_pattern(bad)

    @pytest.mark.parametrize("tail", ["1_0", "+4", "\u0663", " 4", "4 ", "-4", "9" * 5000])
    def test_an_intra_every_period_is_ascii_digits(self, tail):
        pattern = f"intra_every:{tail}"
        with pytest.raises(InputDomainError) as info:
            parse_kind_pattern(pattern)
        assert str(info.value) == (
            f"kind_pattern {pattern!r}: bad intra_every period {tail!r}"
        )

    def test_config_validates_pattern(self):
        with pytest.raises(InputDomainError):
            ExperimentConfig(
                plant=reference_plant(),
                objective=ControlObjective(target_psnr=37.2),
                kind_pattern="nope",
            )

    def test_config_is_frozen(self):
        config = ExperimentConfig(
            plant=reference_plant(), objective=ControlObjective(target_psnr=37.2)
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.n_frames = 10
        assert dataclasses.replace(config, n_frames=10).n_frames == 10

    @pytest.mark.parametrize("mode", ["controlled", "fixed", None])
    def test_config_mode_must_be_a_run_mode(self, mode):
        with pytest.raises(InputDomainError, match="mode must be a RunMode, got "):
            ExperimentConfig(
                plant=reference_plant(),
                objective=ControlObjective(target_psnr=37.2),
                mode=mode,
            )

    def test_config_needs_at_least_one_frame(self):
        with pytest.raises(InputDomainError):
            ExperimentConfig(
                plant=reference_plant(),
                objective=ControlObjective(target_psnr=37.2),
                n_frames=0,
            )


class TestClosedLoop:
    def test_perfect_anchor_means_zero_error(self):
        # zero-order plant, anchor chosen so the response equals the target
        plant = PlantModel.zero_order(psnr_intercept=50.0, psnr_slope=0.4)
        target = 50.0 - 0.4 * 32
        config = ExperimentConfig(
            plant=plant,
            objective=ControlObjective(target_psnr=target, lambda_=0.8),
            qp_offset=32.0,
            n_frames=100,
        )
        records = run_closed_loop(config)
        assert all(r.qp == 32 for r in records)
        assert all(r.error == 0.0 for r in records)
        assert all(r.o == 0.0 for r in records)

    def test_replay_is_deterministic(self):
        noise = DisturbanceSpec(
            kind=DisturbanceKind.SEEDED_NOISE, amplitude=0.5, seed=21
        )
        config = ExperimentConfig(
            plant=reference_plant(disturbance=noise),
            objective=ControlObjective(target_psnr=37.2),
            n_frames=120,
        )
        assert run_closed_loop(config) == run_closed_loop(config)

    def test_does_not_mutate_the_configured_plant(self):
        config = ExperimentConfig(
            plant=reference_plant(),
            objective=ControlObjective(target_psnr=37.2),
            n_frames=50,
        )
        run_closed_loop(config)
        assert config.plant.prev_psnr is None

    def test_runs_do_not_read_the_mode(self):
        controlled, fixed = (
            ExperimentConfig(
                plant=reference_plant(),
                objective=ControlObjective(target_psnr=36.0),
                n_frames=60,
                mode=mode,
            )
            for mode in (RunMode.CONTROLLED, RunMode.FIXED_QP)
        )
        assert run_closed_loop(controlled) == run_closed_loop(fixed)
        assert run_fixed_qp(controlled) == run_fixed_qp(fixed)
        assert run_closed_loop(fixed) != run_fixed_qp(controlled)

    def test_frames_are_contiguous_and_counted(self):
        config = ExperimentConfig(
            plant=reference_plant(),
            objective=ControlObjective(target_psnr=37.2),
            n_frames=77,
        )
        records = run_closed_loop(config)
        assert [r.frame for r in records] == list(range(77))

    def test_recorded_error_matches_the_frame_measurements(self):
        config = ExperimentConfig(
            plant=reference_plant(
                disturbance=DisturbanceSpec(
                    kind=DisturbanceKind.SINUSOID, amplitude=1.0, period=30
                )
            ),
            objective=ControlObjective(target_psnr=37.2, lambda_=0.8),
            n_frames=60,
        )
        records = run_closed_loop(config)
        for prev, current in zip(records, records[1:]):
            expected = 0.8 * (current.psnr - 37.2) + 0.2 * (current.psnr - prev.psnr)
            assert current.error == pytest.approx(expected, rel=1e-12)


def test_the_intra_policy_at_the_default_gains():
    """The README's account of ``intra_every:N`` and ``intra``. At the
    defaults every frame stays at QP 32. At target 36, N = 2 is unstable
    and reaches both bounds of a range widened to +-1000 from frame 192;
    N = 3 and 4 settle inside [0, 51] with no frame at a bound; at N = 12
    the intra frames' steady state lies above QP 51, so the clamp holds
    them at 51. On every frame the policy is unstable."""
    wide = ["range.qp_min=-1000", "range.qp_max=1000"]

    def run(n, overrides):
        """An ``intra_every:n`` run: its QPs, and its intra QPs in the last 120."""
        kind_at = parse_kind_pattern(f"intra_every:{n}")
        pattern = f"kind_pattern=intra_every:{n}"
        records = run_closed_loop(parse_config(None, overrides + [pattern]))
        intra = {r.qp for r in records[-120:] if kind_at(r.frame) is FrameKind.INTRA}
        return [r.qp for r in records], intra

    at_36 = ["objective.target_psnr=36", "n_frames=1200"]
    for n in (2, 3, 4, 12):
        assert set(run(n, [])[0]) == {32}
    _, intra = run(2, at_36)
    assert (min(intra), max(intra)) == (17, 51)
    qps, _ = run(2, at_36 + wide)
    assert min(qps.index(-1000), qps.index(1000)) == 192  # both bounds reached
    for n, intra_qps in [(3, set(range(40, 45))), (4, set(range(45, 48)))]:
        for overrides, bounds in [(at_36, (0, 51)), (at_36 + wide, (-1000, 1000))]:
            qps, intra = run(n, overrides)
            assert intra == intra_qps and not set(bounds) & set(qps)
    kind_at = parse_kind_pattern("intra_every:12")
    common = ["objective.target_psnr=36", "kind_pattern=intra_every:12"]
    for overrides, tail, intra_qps, inter_span in [
        (common + wide + ["n_frames=1200"], 120, {69, 70, 71, 72}, (18, 39)),
        (common, 299, {51}, (27, 37)),
    ]:
        records = run_closed_loop(parse_config(None, overrides))[-tail:]
        inter = [r.qp for r in records if kind_at(r.frame) is FrameKind.INTER]
        assert {r.qp for r in records if kind_at(r.frame) is FrameKind.INTRA} == intra_qps
        assert (min(inter), max(inter)) == inter_span
    step = [
        "kind_pattern=intra",
        "plant.disturbance.kind=step",
        "plant.disturbance.amplitude=2.0",
        "plant.disturbance.step_frame=100",
    ]
    after_step = [r.qp for r in run_closed_loop(parse_config(None, step))[100:]]
    at_bounds = [qp for qp in after_step if qp in (0, 51)]
    assert len(after_step) == 200 and {0, 51} == set(at_bounds)
    assert len(at_bounds) >= 0.95 * len(after_step)


class TestFixedQp:
    def test_constant_quality_without_disturbance(self):
        config = ExperimentConfig(
            plant=reference_plant(),
            objective=ControlObjective(target_psnr=37.2),
            qp_offset=32.0,
            n_frames=50,
            mode=RunMode.FIXED_QP,
        )
        records = run_fixed_qp(config)
        assert all(r.qp == 32 for r in records)
        assert len({r.psnr for r in records}) == 1
        assert len({r.bits for r in records}) == 1

    def test_sinusoid_fluctuation_is_rms_of_the_sine(self):
        disturbance = DisturbanceSpec(
            kind=DisturbanceKind.SINUSOID, amplitude=1.0, period=30
        )
        config = ExperimentConfig(
            plant=PlantModel.zero_order(disturbance=disturbance),
            objective=ControlObjective(target_psnr=37.2),
            qp_offset=32.0,
            n_frames=300,
            mode=RunMode.FIXED_QP,
        )
        metrics = compute_metrics(run_fixed_qp(config), config.objective)
        assert metrics.quality_fluc_db == pytest.approx(1.0 / math.sqrt(2), rel=0.01)

    def test_offset_is_rounded_and_clamped(self):
        config = ExperimentConfig(
            plant=reference_plant(),
            objective=ControlObjective(target_psnr=37.2),
            qp_offset=61.7,
            n_frames=5,
            mode=RunMode.FIXED_QP,
        )
        assert all(r.qp == 51 for r in run_fixed_qp(config))

    @pytest.mark.parametrize(
        "key", ["gains.kd", "gains.ki", "gains.kp", "kind_pattern", "objective.lambda"]
    )
    def test_metrics_do_not_read_the_unread_keys(self, key):
        # sweep shares one fixed-QP run's metrics across these keys
        value = {
            "objective.lambda": "0.3",
            "gains.kp": "0.5",
            "gains.ki": "0.7",
            "gains.kd": "0.0",
            "kind_pattern": "intra_every:5",
        }[key]
        common = [
            "mode=fixed",
            "n_frames=80",
            "plant.disturbance.kind=seeded_noise",
            "plant.disturbance.amplitude=1.5",
            "plant.disturbance.seed=11",
        ]
        base = parse_config(None, common)
        varied = parse_config(None, common + [f"{key}={value}"])
        assert base != varied
        base_records, varied_records = run_fixed_qp(base), run_fixed_qp(varied)
        assert [(r.qp, r.psnr, r.bits) for r in base_records] == [
            (r.qp, r.psnr, r.bits) for r in varied_records
        ]
        assert compute_metrics(base_records, base.objective) == compute_metrics(
            varied_records, varied.objective
        )

    def test_the_error_column_reads_lambda(self):
        # so sweep shares metrics between fixed-QP runs, never records
        common = [
            "mode=fixed", "plant.disturbance.kind=constant", "plant.disturbance.amplitude=1.0"
        ]
        base = parse_config(None, common)
        varied = parse_config(None, common + ["objective.lambda=0.3"])
        assert [r.error for r in run_fixed_qp(base)] != [
            r.error for r in run_fixed_qp(varied)
        ]


class TestMetrics:
    def test_hand_computed_example(self):
        records = make_records([30.0, 32.0])
        metrics = compute_metrics(records, ControlObjective(target_psnr=30.0))
        assert metrics.avg_psnr == 31.0
        assert metrics.control_error_db == 1.0
        assert metrics.quality_fluc_db == 1.0
        assert metrics.control_error_pct == pytest.approx(100.0 / 30.0)

    def test_constant_at_target(self):
        metrics = compute_metrics(
            make_records([30.0] * 10), ControlObjective(target_psnr=30.0)
        )
        assert metrics.control_error_db == 0.0
        assert metrics.quality_fluc_db == 0.0

    def test_empty_trace_is_degenerate(self):
        with pytest.raises(InputDomainError, match="empty trace"):
            compute_metrics([], ControlObjective(target_psnr=30.0))

    @given(
        c=st.floats(min_value=-1e12, max_value=1e12),
        n=st.integers(min_value=1, max_value=1000),
    )
    def test_constant_series_has_exactly_zero_fluctuation(self, c, n):
        metrics = compute_metrics(
            make_records([c] * n, [c] * n), ControlObjective(target_psnr=30.0)
        )
        assert metrics.quality_fluc_db == 0.0
        assert metrics.bit_fluc == 0.0

    def test_single_frame_has_zero_fluctuation(self):
        metrics = compute_metrics(
            make_records([33.0], [1000.0]), ControlObjective(target_psnr=30.0)
        )
        assert metrics.quality_fluc_db == 0.0
        assert metrics.bit_fluc == 0.0


class TestCompare:
    def build(self, fluc):
        return MetricsReport(
            avg_psnr=34.0,
            control_error_db=0.0,
            control_error_pct=0.0,
            quality_fluc_db=fluc,
            bitrate_mean=1000.0,
            bit_fluc=10.0,
        )

    def test_identical_inputs_give_zero_reduction(self):
        report = self.build(0.3)
        assert fluctuation_reduction_pct(report, report) == 0.0

    def test_worked_example(self):
        result = fluctuation_reduction_pct(self.build(0.18), self.build(1.22))
        assert result == pytest.approx(85.2, abs=0.05)

    def test_sign_flips_when_roles_swap(self):
        forward = fluctuation_reduction_pct(self.build(0.18), self.build(1.22))
        backward = fluctuation_reduction_pct(self.build(1.22), self.build(0.18))
        assert forward > 0
        assert backward < 0

    def test_rows_order(self):
        text = comparison_text(self.build(0.1), self.build(0.2))
        labels = [line.split()[0] for line in text.splitlines()[1:3]]
        assert labels == ["fixed_qp", "controlled"]

    def test_rendered_table_mentions_both_methods(self):
        text = comparison_text(self.build(0.18), self.build(1.22))
        assert "fixed_qp" in text and "controlled" in text
        assert "quality fluctuation reduction: 85.2%" in text


class TestImprovementGrid:
    @pytest.mark.parametrize("inertia", [0.0, 0.5, 0.8])
    @pytest.mark.parametrize("kind", ["step", "sinusoid"])
    def test_controlled_beats_fixed(self, inertia, kind):
        if kind == "step":
            disturbance = DisturbanceSpec(
                kind=DisturbanceKind.STEP, amplitude=1.0, step_frame=150
            )
        else:
            disturbance = DisturbanceSpec(
                kind=DisturbanceKind.SINUSOID, amplitude=1.0, period=30
            )
        objective = ControlObjective(target_psnr=37.2, lambda_=0.8)
        # anchor at QP 34 -> 36.4 dB, missing the target by 0.8 dB
        config = ExperimentConfig(
            plant=reference_plant(inertia, disturbance),
            objective=objective,
            qp_offset=34.0,
            n_frames=300,
        )
        fixed_config = dataclasses.replace(config, mode=RunMode.FIXED_QP)
        controlled = compute_metrics(run_closed_loop(config), objective)
        baseline = compute_metrics(run_fixed_qp(fixed_config), objective)
        assert controlled.quality_fluc_db <= baseline.quality_fluc_db
        assert controlled.control_error_db <= baseline.control_error_db


class TestFileFormats:
    def test_trace_csv_shape(self):
        config = ExperimentConfig(
            plant=reference_plant(),
            objective=ControlObjective(target_psnr=37.2),
            n_frames=10,
        )
        text = trace_csv_text(run_closed_loop(config))
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "32"
        # 6-decimal fixed point reals
        assert all("." in cell and len(cell.split(".")[1]) == 6 for cell in first[2:])

    @given(
        st.lists(
            st.builds(
                FrameRecord,
                st.integers(),
                st.integers(),
                *[st.floats(allow_nan=False, allow_infinity=False)] * 4,
            ),
            max_size=20,
        )
    )
    @example([])
    @example(
        [
            FrameRecord(-3, -1, 0.0, -0.0, 5e-324, -5e-324),
            FrameRecord(0, 51, 1.7976931348623157e308, -1e308, 5e-7, -5e-7),
            FrameRecord(2**70, 0, 2.5e-6, 1.5e-6, 0.0000015, 1e-300),
        ]
    )
    def test_rows_match_the_f_string_rendering(self, records):
        rows = [
            f"{r.frame},{r.qp},{r.psnr:.6f},{r.bits:.6f},{r.error:.6f},{r.o:.6f}"
            for r in records
        ]
        assert trace_csv_text(records) == "\n".join([TRACE_CSV_HEADER, *rows]) + "\n"

    def test_metrics_json_has_exactly_the_six_fields(self):
        metrics = compute_metrics(
            make_records([30.0, 32.0], [10.0, 20.0]),
            ControlObjective(target_psnr=30.0),
        )
        payload = json.loads(metrics_json_text(metrics))
        assert sorted(payload) == [
            "avg_psnr",
            "bit_fluc",
            "bitrate_mean",
            "control_error_db",
            "control_error_pct",
            "quality_fluc_db",
        ]
