"""Plant model tests: response shapes, rate model, disturbances, traces."""

import copy
import dataclasses
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpcontrol.disturbance import (
    DisturbanceKind,
    DisturbanceSpec,
    disturbance_at,
    disturbance_column,
)
from qpcontrol.errors import InputDomainError, TraceDomainError
from qpcontrol.plant import (
    FrameOutcome,
    PlantKind,
    PlantModel,
    TraceTable,
    rate_model,
    step_plant,
)

TRACE_TEXT = """frame,qp,psnr_db,bits
0,30,38.000,500000
0,40,34.000,200000
1,30,37.500,480000
1,40,33.500,190000
2,30,37.250,470000
2,40,33.250,185000
"""


class TestSyntheticResponse:
    def test_zero_order_value(self):
        plant = PlantModel.zero_order(psnr_intercept=50.0, psnr_slope=0.4)
        assert step_plant(plant, 32, 0).psnr == pytest.approx(37.2)

    def test_first_order_value(self):
        plant = PlantModel.first_order(0.5, psnr_intercept=50.0, psnr_slope=0.4)
        plant.prev_psnr = 40.0
        # 0.5 * 40 + 0.5 * 37.2
        assert step_plant(plant, 32, 0).psnr == pytest.approx(38.6)

    def test_first_order_first_step_settles_at_input(self):
        plant = PlantModel.first_order(0.8)
        zero = PlantModel.zero_order()
        assert step_plant(plant, 30, 0).psnr == step_plant(zero, 30, 0).psnr

    def test_zero_inertia_reduces_to_zero_order(self):
        rng = random.Random(2)
        qps = [rng.randrange(0, 52) for _ in range(100)]
        first = PlantModel.first_order(0.0)
        zero = PlantModel.zero_order()
        for t, qp in enumerate(qps):
            assert step_plant(first, qp, t).psnr == step_plant(zero, qp, t).psnr

    def test_one_frame_deviation_decays_with_ratio_alpha(self):
        alpha = 0.8
        plant = PlantModel.first_order(alpha)
        settled = step_plant(plant, 32, 0).psnr
        step_plant(plant, 40, 1)  # one-frame QP deviation
        deviations = []
        for t in range(2, 40):
            deviations.append(step_plant(plant, 32, t).psnr - settled)
        for current, following in zip(deviations, deviations[1:]):
            if abs(current) < 1e-9:
                break
            assert following / current == pytest.approx(alpha, rel=1e-9)

    def test_updates_prev_psnr(self):
        plant = PlantModel.zero_order()
        outcome = step_plant(plant, 20, 0)
        assert plant.prev_psnr == outcome.psnr

    def test_initial_psnr_is_the_one_way_to_seed_the_memory(self):
        with pytest.raises(TypeError):
            PlantModel.first_order(0.5, prev_psnr=41.0)
        plant = PlantModel.first_order(0.5, initial_psnr=41.0)
        step_plant(plant, 40, 0)
        assert dataclasses.replace(plant).prev_psnr == 41.0

    def test_reset_restores_initial_state(self):
        plant = PlantModel.first_order(0.5, initial_psnr=41.0)
        first = step_plant(plant, 32, 0).psnr
        step_plant(plant, 40, 1)
        plant.reset()
        assert plant.prev_psnr == 41.0
        assert step_plant(plant, 32, 0).psnr == first

    def test_determinism(self):
        spec = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=9)
        runs = []
        for _ in range(2):
            plant = PlantModel.first_order(0.5, disturbance=spec)
            runs.append([step_plant(plant, 30 + (t % 3), t).psnr for t in range(50)])
        assert runs[0] == runs[1]

    def test_monotonicity_in_qp(self):
        rng = random.Random(17)
        for _ in range(20):
            base = PlantModel.first_order(
                rng.uniform(0, 0.9),
                psnr_intercept=rng.uniform(40, 60),
                psnr_slope=rng.uniform(0.1, 1.0),
                initial_psnr=rng.uniform(30, 45),
            )
            outcomes = []
            for qp in range(0, 52):
                plant = copy.deepcopy(base)
                outcomes.append(step_plant(plant, qp, 0))
            for lower, higher in zip(outcomes, outcomes[1:]):
                assert higher.psnr <= lower.psnr
                assert higher.bits <= lower.bits


class TestRateModel:
    def test_reference_point(self):
        plant = PlantModel.zero_order(rate_ref_bits=350000.0, rate_ref_qp=32)
        assert rate_model(plant, 32) == 350000.0

    def test_halving_step(self):
        plant = PlantModel.zero_order(rate_ref_bits=350000.0, rate_ref_qp=32)
        assert rate_model(plant, 38) == 175000.0

    def test_doubling_step(self):
        plant = PlantModel.zero_order(rate_ref_bits=350000.0, rate_ref_qp=32)
        assert rate_model(plant, 26) == 700000.0


class TestDisturbance:
    def test_none_is_zero_everywhere(self):
        spec = DisturbanceSpec()
        assert all(disturbance_at(spec, t) == 0.0 for t in range(100))

    def test_constant(self):
        spec = DisturbanceSpec(kind=DisturbanceKind.CONSTANT, amplitude=1.5)
        assert disturbance_at(spec, 0) == 1.5
        assert disturbance_at(spec, 99) == 1.5

    def test_step_switches_on(self):
        spec = DisturbanceSpec(kind=DisturbanceKind.STEP, amplitude=2.0, step_frame=10)
        assert disturbance_at(spec, 9) == 0.0
        assert disturbance_at(spec, 10) == 2.0
        assert disturbance_at(spec, 50) == 2.0

    def test_sinusoid_quarter_period(self):
        spec = DisturbanceSpec(kind=DisturbanceKind.SINUSOID, amplitude=1.0, period=4)
        assert disturbance_at(spec, 1) == pytest.approx(1.0)
        assert disturbance_at(spec, 0) == pytest.approx(0.0, abs=1e-12)

    def test_sinusoid_needs_period(self):
        with pytest.raises(InputDomainError):
            DisturbanceSpec(kind=DisturbanceKind.SINUSOID, amplitude=1.0, period=0)

    def test_seeded_noise_is_deterministic(self):
        a = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=42)
        b = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=42)
        seq_a = [disturbance_at(a, t) for t in range(1000)]
        seq_b = [disturbance_at(b, t) for t in range(1000)]
        assert seq_a == seq_b

    def test_seeded_noise_varies_with_seed(self):
        a = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=1)
        b = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=2)
        assert [disturbance_at(a, t) for t in range(100)] != [
            disturbance_at(b, t) for t in range(100)
        ]

    def test_seeded_noise_respects_amplitude_bound(self):
        spec = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, amplitude=0.7, seed=3)
        values = [disturbance_at(spec, t) for t in range(5000)]
        assert all(abs(v) <= 0.7 for v in values)
        # both halves of the band get visited
        assert min(values) < -0.35
        assert max(values) > 0.35

    def test_negative_frame_rejected(self):
        with pytest.raises(InputDomainError):
            disturbance_at(DisturbanceSpec(), -1)


GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment
# seed_word ^ t + GOLDEN_GAMMA passes 2**64 on every frame of this seed, so
# the lane-packed kernel must mask the carry before it shifts it down.
CARRYING_SEED = 1


@st.composite
def columns(draw):
    """A spec and a length, with ``step_frame`` before, inside and past the
    column and ``period`` from 1 to past it."""
    n = draw(st.integers(0, 5000))
    spec = DisturbanceSpec(
        kind=draw(st.sampled_from(DisturbanceKind)),
        amplitude=draw(
            st.sampled_from([0.0, -0.0, 1e308, -1e308]) | st.floats(-1e308, 1e308)
        ),
        period=draw(st.just(1) | st.integers(1, n + 10)),
        step_frame=draw(
            st.integers(-10, -1) | st.integers(0, n) | st.integers(n + 1, n + 10)
        ),
        seed=draw(st.integers(-(2**70), 2**70)),
    )
    return spec, n


class TestDisturbanceColumn:
    def test_the_carrying_seed_carries(self):
        spec = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, seed=CARRYING_SEED)
        assert all((spec.seed_word ^ t) + GOLDEN_GAMMA >= 1 << 64 for t in range(5000))

    @given(case=columns())
    @example(
        case=(
            DisturbanceSpec(
                kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=CARRYING_SEED
            ),
            5000,
        )
    )
    def test_column_matches_disturbance_at_bit_for_bit(self, case):
        spec, n = case
        want = [disturbance_at(spec, t).hex() for t in range(n)]
        assert [w.hex() for w in disturbance_column(spec, n)] == want

    def test_negative_length_rejected(self):
        with pytest.raises(InputDomainError, match="n_frames must be nonnegative"):
            disturbance_column(DisturbanceSpec(), -1)


class TestValidation:
    def test_slope_must_be_positive(self):
        with pytest.raises(InputDomainError):
            PlantModel.zero_order(psnr_slope=0.0)
        with pytest.raises(InputDomainError):
            PlantModel.zero_order(psnr_slope=-0.4)

    def test_inertia_bounds(self):
        with pytest.raises(InputDomainError):
            PlantModel.first_order(1.0)
        with pytest.raises(InputDomainError):
            PlantModel.first_order(-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_initial_psnr_must_be_finite(self, bad):
        with pytest.raises(InputDomainError):
            PlantModel.first_order(0.5, initial_psnr=bad)

    def test_trace_driven_requires_table(self):
        with pytest.raises(InputDomainError):
            PlantModel(kind=PlantKind.TRACE_DRIVEN)

    def test_frame_outcome_domain(self):
        with pytest.raises(InputDomainError):
            FrameOutcome(psnr=math.nan, bits=0.0)
        with pytest.raises(InputDomainError):
            FrameOutcome(psnr=30.0, bits=-1.0)


class TestTraceTable:
    def test_exact_at_tabulated_qps(self):
        table = TraceTable.parse(TRACE_TEXT)
        assert table.lookup(0, 30) == (38.0, 500000.0)
        assert table.lookup(1, 40) == (33.5, 190000.0)

    def test_linear_interpolation_between_qps(self):
        table = TraceTable.parse(TRACE_TEXT)
        psnr, bits = table.lookup(0, 35)
        assert psnr == pytest.approx(36.0)
        assert bits == pytest.approx(350000.0)

    def test_out_of_span_qp(self):
        table = TraceTable.parse(TRACE_TEXT)
        with pytest.raises(TraceDomainError):
            table.lookup(0, 29)
        with pytest.raises(TraceDomainError):
            table.lookup(0, 41)

    def test_missing_frame(self):
        table = TraceTable.parse(TRACE_TEXT)
        with pytest.raises(TraceDomainError):
            table.lookup(3, 30)

    def test_a_frame_without_rows_is_rejected(self):
        with pytest.raises(InputDomainError, match="frame 0 has no rows"):
            TraceTable({0: []})

    def test_header_required(self):
        with pytest.raises(InputDomainError):
            TraceTable.parse("frame,qp,psnr,bits\n0,30,38.0,100\n")

    def test_rows_must_be_sorted(self):
        bad = "frame,qp,psnr_db,bits\n0,40,34.000,200000\n0,30,38.000,500000\n"
        with pytest.raises(InputDomainError):
            TraceTable.parse(bad)

    def test_field_count_enforced(self):
        for row in ("0,30,38.0", "0,30,38.0,500000.0,1"):
            with pytest.raises(InputDomainError) as info:
                TraceTable.parse(f"frame,qp,psnr_db,bits\n{row}\n")
            assert str(info.value) == "trace line 2: expected 4 fields"

    def test_table_is_frozen_with_tuple_rows(self):
        table = TraceTable.parse(TRACE_TEXT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.rows = {}
        assert all(type(entries) is tuple for entries in table.rows.values())
        built = TraceTable({0: [(30, 38.0, 500000.0), (40, 34.0, 200000.0)]})
        assert built.rows[0] == ((30, 38.0, 500000.0), (40, 34.0, 200000.0))

    def test_step_reads_table_verbatim(self):
        table = TraceTable.parse(TRACE_TEXT)
        noisy = DisturbanceSpec(
            kind=DisturbanceKind.SEEDED_NOISE, amplitude=5.0, seed=7
        )
        plant = PlantModel.trace_driven(table, disturbance=noisy)
        outcome = step_plant(plant, 30, 0)
        assert (outcome.psnr, outcome.bits) == (38.0, 500000.0)

    def test_step_interpolates_and_errors_out_of_bounds(self):
        plant = PlantModel.trace_driven(TraceTable.parse(TRACE_TEXT))
        assert step_plant(plant, 35, 1).psnr == pytest.approx(35.5)
        with pytest.raises(TraceDomainError):
            step_plant(plant, 32, 9)


def linear_lookup(table, frame_index, qp):
    """The lookup as a linear scan of the frame's rows: the reference the
    bisecting lookup must match bit for bit, errors included."""
    entries = table.rows.get(frame_index)
    if entries is None:
        raise TraceDomainError(f"frame {frame_index} is not tabulated")
    if qp < entries[0][0] or qp > entries[-1][0]:
        raise TraceDomainError(
            f"qp {qp} outside tabulated span "
            f"[{entries[0][0]}, {entries[-1][0]}] at frame {frame_index}"
        )
    lo = entries[0]
    for entry in entries:
        if entry[0] == qp:
            return entry[1], entry[2]
        if entry[0] > qp:
            t = (qp - lo[0]) / (entry[0] - lo[0])
            return lo[1] + t * (entry[1] - lo[1]), lo[2] + t * (entry[2] - lo[2])
        lo = entry


def outcome_of(lookup, *args):
    try:
        psnr, bits = lookup(*args)
    except TraceDomainError as exc:
        return str(exc)
    return psnr.hex(), bits.hex()


@given(
    qps=st.sets(st.integers(-10, 60), min_size=1, max_size=12),
    data=st.data(),
    frame_index=st.integers(0, 1),
    qp=st.integers(-15, 65),
)
def test_lookup_matches_a_linear_scan(qps, data, frame_index, qp):
    values = st.floats(0.0, 1e6)
    rows = {0: [(q, data.draw(values), data.draw(values)) for q in sorted(qps)]}
    table = TraceTable(rows)
    assert outcome_of(table.lookup, frame_index, qp) == outcome_of(
        linear_lookup, table, frame_index, qp
    )


@given(qps=st.sets(st.integers(0, 51), min_size=1, max_size=12), data=st.data())
def test_lookup_is_non_increasing_in_qp(qps, data):
    def falling(values):
        drawn = data.draw(st.lists(values, min_size=len(qps), max_size=len(qps)))
        return sorted(drawn, reverse=True)

    psnrs = falling(st.floats(-1e300, 1e300))
    bits = falling(st.floats(0.0, 1e300))
    table = TraceTable({0: list(zip(sorted(qps), psnrs, bits))})
    outcomes = [table.lookup(0, qp) for qp in range(min(qps), max(qps) + 1)]
    for (psnr, bit), (next_psnr, next_bit) in zip(outcomes, outcomes[1:]):
        assert next_psnr <= psnr and next_bit <= bit
