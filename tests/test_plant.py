"""Plant model tests: response shapes, rate model, disturbances, traces."""

import collections
import copy
import dataclasses
import gc
import math
import pickle
import random
import struct
import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpcontrol.plant import (
    DisturbanceKind,
    DisturbanceSpec,
    _memo_column,
    _mix64,
    _shared_column,
    disturbance_at,
)
from qpcontrol.controller import ControlObjective
from qpcontrol.errors import InputDomainError, TraceDomainError
from qpcontrol.harness import ExperimentConfig, run_closed_loop
from qpcontrol.plant import (
    FrameOutcome,
    PlantKind,
    PlantModel,
    TraceTable,
    rate_model,
    step_plant,
)
from trace_rows import NEWLINES, NOT_NEWLINES, rows_of, table_from_rows, trace_lines

TRACE_TEXT = """frame,qp,psnr_db,bits
0,30,38.000,500000
0,40,34.000,200000
1,30,37.500,480000
1,40,33.500,190000
2,30,37.250,470000
2,40,33.250,185000
"""


def load_text(path, text):
    """Write ``text`` to ``path`` as UTF-8 and load it as a trace table."""
    path.write_text(text, encoding="utf-8")
    return TraceTable.load(path)


@pytest.fixture
def table(tmp_path):
    return load_text(tmp_path / "trace.csv", TRACE_TEXT)


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

    @pytest.mark.parametrize(
        "rate_ref_qp, qp",
        [(10**400, 0), (0, 10**400), (10000, 0)],
        ids=["offset_below", "offset_above", "scale_overflows"],
    )
    def test_past_the_float_range_is_inf(self, rate_ref_qp, qp):
        # the QP offset does not convert to a float, or 2**offset overflows
        plant = PlantModel.zero_order(rate_ref_qp=rate_ref_qp)
        assert rate_model(plant, qp) == math.inf


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

    def test_a_spec_holds_only_its_config_fields(self):
        names = [field.name for field in dataclasses.fields(DisturbanceSpec)]
        assert names == ["kind", "amplitude", "period", "step_frame", "seed"]

    def test_a_spec_compares_hashes_and_pickles_by_its_fields(self):
        spec = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=5)
        twin = DisturbanceSpec(kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=5)
        assert spec == twin and hash(spec) == hash(twin)
        assert spec != dataclasses.replace(spec, seed=6)
        loaded = pickle.loads(pickle.dumps(spec))
        assert loaded == spec and hash(loaded) == hash(spec)
        # Computed per frame: equal specs share one memoized column.
        assert [disturbance_at(loaded, t) for t in range(50)] == [
            disturbance_at(spec, t) for t in range(50)
        ]

    def test_noise_mix_gives_splitmix64s_published_outputs(self):
        """splitmix64 seeded with 0 (S. Vigna, ``splitmix64.c``) adds the
        gamma 0x9E3779B97F4A7C15 to its state and then mixes; ``_mix64``
        adds the gamma itself, so its input is the state before the add."""
        gamma = 0x9E3779B97F4A7C15
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [_mix64(k * gamma % 2**64) for k in range(3)] == published

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

    @pytest.mark.parametrize(
        "step",
        [
            lambda: disturbance_at(DisturbanceSpec(), -1),
            lambda: step_plant(PlantModel(), 30, -1),
        ],
        ids=["disturbance_at", "step_plant"],
    )
    def test_negative_frame_rejected(self, step):
        with pytest.raises(InputDomainError, match="frame_index must be nonnegative"):
            step()


@st.composite
def columns(draw):
    """A spec and a length, with ``step_frame`` before, inside and past the
    column and ``period`` from 3, the least a sinusoid takes, to past it."""
    n = draw(st.integers(0, 5000))
    spec = DisturbanceSpec(
        kind=draw(st.sampled_from(DisturbanceKind)),
        amplitude=draw(
            st.sampled_from([0.0, -0.0, 1e308, -1e308]) | st.floats(-1e308, 1e308)
        ),
        period=draw(st.just(3) | st.integers(3, n + 10)),
        step_frame=draw(
            st.integers(-10, -1) | st.integers(0, n) | st.integers(n + 1, n + 10)
        ),
        seed=draw(st.integers(-(2**70), 2**70)),
    )
    return spec, n


class TestDisturbanceColumn:
    @given(case=columns())
    def test_column_matches_disturbance_at_bit_for_bit(self, case):
        spec, n = case
        want = [disturbance_at(spec, t).hex() for t in range(n)]
        _memo_column.cache_clear()  # built here, not kept from an earlier example
        assert [w.hex() for w in _shared_column(spec, n)] == want

    def test_negative_length_rejected(self):
        with pytest.raises(InputDomainError, match="n_frames must be nonnegative"):
            _shared_column(DisturbanceSpec(), -1)


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

    @pytest.mark.parametrize("kind", ["first_order", "zero_order", None])
    def test_plant_kind_must_be_a_plant_kind(self, kind):
        with pytest.raises(InputDomainError, match="kind must be a PlantKind, got "):
            PlantModel(kind=kind, inertia=0.9, initial_psnr=20.0)

    @pytest.mark.parametrize("kind", ["sinusoid", "none", None])
    def test_disturbance_kind_must_be_a_disturbance_kind(self, kind):
        with pytest.raises(
            InputDomainError, match="kind must be a DisturbanceKind, got "
        ):
            DisturbanceSpec(kind=kind, period=10)

    def test_trace_driven_requires_table(self):
        with pytest.raises(InputDomainError):
            PlantModel(kind=PlantKind.TRACE_DRIVEN)

    def test_frame_outcome_domain(self):
        with pytest.raises(InputDomainError):
            FrameOutcome(psnr=math.nan, bits=0.0)
        with pytest.raises(InputDomainError):
            FrameOutcome(psnr=30.0, bits=-1.0)


class TestTraceTable:
    def test_exact_at_tabulated_qps(self, table):
        assert table.lookup(0, 30) == (38.0, 500000.0)
        assert table.lookup(1, 40) == (33.5, 190000.0)

    def test_linear_interpolation_between_qps(self, table):
        psnr, bits = table.lookup(0, 35)
        assert psnr == pytest.approx(36.0)
        assert bits == pytest.approx(350000.0)

    def test_out_of_span_qp(self, table):
        with pytest.raises(TraceDomainError):
            table.lookup(0, 29)
        with pytest.raises(TraceDomainError):
            table.lookup(0, 41)

    def test_missing_frame(self, table):
        with pytest.raises(TraceDomainError):
            table.lookup(3, 30)

    def test_a_table_is_not_built_from_rows(self):
        with pytest.raises(TypeError):
            TraceTable({0: [(30, 38.0, 500000.0)]})

    def test_header_required(self, tmp_path):
        with pytest.raises(InputDomainError):
            load_text(tmp_path / "t.csv", "frame,qp,psnr,bits\n0,30,38.0,100\n")

    @pytest.mark.parametrize(
        "rows, lineno",
        [
            (["0,40,34.0,2e5", "0,30,38.0,5e5"], 3),
            (["1,30,37.5,4.8e5", "0,30,38.0,5e5"], 3),
            (["0,30,38.0,5e5", "0,30,37.0,4e5"], 3),
            (["0,30,38.0,5e5", "1,30,37.5,4.8e5", "0,40,34.0,2e5"], 4),
        ],
        ids=["qp_backwards", "frame_backwards", "repeated_row", "frame_resumed"],
    )
    def test_rows_must_be_sorted(self, tmp_path, rows, lineno):
        with pytest.raises(InputDomainError) as info:
            load_text(tmp_path / "t.csv", "\n".join(["frame,qp,psnr_db,bits", *rows]))
        assert str(info.value) == (
            f"trace line {lineno}: rows must be strictly sorted by (frame, qp)"
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,30,38.0", "trace line 2: expected 4 fields"),
            ("0,30,38.0,500000.0,1", "trace line 2: expected 4 fields"),
            ("x,1,2,3", "trace line 2: invalid literal for int() with base 10: 'x'"),
            ("0,30,nan,500000.0", "trace line 2: bad psnr/bits"),
            ("0,30,-inf,500000.0", "trace line 2: bad psnr/bits"),
            ("0,30,1e400,500000.0", "trace line 2: bad psnr/bits"),
            ("0,30,-1e400,500000.0", "trace line 2: bad psnr/bits"),
            ("0,30,38.0,nan", "trace line 2: bad psnr/bits"),
            ("0,30,38.0,inf", "trace line 2: bad psnr/bits"),
            ("0,30,38.0,1e400", "trace line 2: bad psnr/bits"),
            ("0,30,38.0,-5e-324", "trace line 2: bad psnr/bits"),
            ("0,30,38.0,-1", "trace line 2: bad psnr/bits"),
            ("0,30,38.0,\x85", "trace line 2: could not convert string to float: '\\x85'"),
            ("0,30,38.0,abc", "trace line 2: could not convert string to float: 'abc'"),
            ("", "trace table has no data rows"),
        ],
    )
    def test_a_bad_data_row_is_rejected_naming_its_line(self, tmp_path, row, message):
        with pytest.raises(InputDomainError) as info:
            load_text(tmp_path / "t.csv", f"frame,qp,psnr_db,bits\n{row}\n")
        assert str(info.value) == message

    def test_blank_data_lines_are_skipped(self, tmp_path, table):
        spaced = TRACE_TEXT.replace("\n1,30", "\n\n  \n1,30")
        assert load_text(tmp_path / "spaced.csv", spaced) == table

    def test_rows_hold_each_frames_qp_tuple(self, table):
        assert table.rows == {0: (30, 40), 1: (30, 40), 2: (30, 40)}
        assert table.rows[0] is table.rows[1] is table.rows[2]  # one shared tuple

    def test_table_is_deeply_immutable(self, table):
        for name in [field.name for field in dataclasses.fields(table)] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, name, None)
        for column in (table.psnr, table.bits):
            with pytest.raises(TypeError):
                column[0] = 0.0
        with pytest.raises(TypeError):
            table.rows[0][0] = 35
        assert table.lookup(0, 30) == (38.0, 500000.0)

    def test_a_table_does_not_share_a_mutable_buffer(self):
        psnr, bits = bytearray(struct.pack("d", 38.0)), bytearray(struct.pack("d", 5e5))
        table = TraceTable({0: [30]}, psnr, bits)
        psnr[:], bits[:] = struct.pack("d", 1.0), struct.pack("d", 1.0)
        assert table.lookup(0, 30) == (38.0, 500000.0)

    def test_tables_differing_in_one_value_are_unequal(self):
        rows = {0: [(30, 38.0, 500000.0), (40, 34.0, 200000.0)]}
        table = table_from_rows(rows)
        assert table_from_rows(rows) == table
        for changed in [(40, 34.0, 200001.0), (40, 34.5, 200000.0)]:
            assert table_from_rows({0: [rows[0][0], changed]}) != table

    def test_step_reads_table_verbatim(self, table):
        noisy = DisturbanceSpec(
            kind=DisturbanceKind.SEEDED_NOISE, amplitude=5.0, seed=7
        )
        plant = PlantModel(
            kind=PlantKind.TRACE_DRIVEN, trace=table, disturbance=noisy
        )
        outcome = step_plant(plant, 30, 0)
        assert (outcome.psnr, outcome.bits) == (38.0, 500000.0)

    def test_step_interpolates_and_errors_out_of_bounds(self, table):
        plant = PlantModel(kind=PlantKind.TRACE_DRIVEN, trace=table)
        assert step_plant(plant, 35, 1).psnr == pytest.approx(35.5)
        with pytest.raises(TraceDomainError):
            step_plant(plant, 32, 9)


def linear_lookup(rows, frame_index, qp):
    """The lookup as a linear scan of the frame's rows: the reference the
    bisecting lookup must match bit for bit, errors included."""
    entries = rows.get(frame_index)
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
    """A lookup's floats by ``float.hex``, or its error message. A table
    refuses a PSNR that interpolates past the float range, where the linear
    scan returns it, so such a PSNR reads as the table's message."""
    try:
        psnr, bits = lookup(*args)
    except (TraceDomainError, InputDomainError) as exc:
        return str(exc)
    if not math.isfinite(psnr):
        return f"psnr must be finite, got {psnr!r}"
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
    table = table_from_rows(rows)
    assert outcome_of(table.lookup, frame_index, qp) == outcome_of(
        linear_lookup, rows, frame_index, qp
    )


@given(qps=st.sets(st.integers(0, 51), min_size=1, max_size=12), data=st.data())
def test_lookup_is_non_increasing_in_qp(qps, data):
    def falling(values):
        drawn = data.draw(st.lists(values, min_size=len(qps), max_size=len(qps)))
        return sorted(drawn, reverse=True)

    psnrs = falling(st.floats(-1e300, 1e300))
    bits = falling(st.floats(0.0, 1e300))
    table = table_from_rows({0: list(zip(sorted(qps), psnrs, bits))})
    outcomes = [table.lookup(0, qp) for qp in range(min(qps), max(qps) + 1)]
    for (psnr, bit), (next_psnr, next_bit) in zip(outcomes, outcomes[1:]):
        assert next_psnr <= psnr and next_bit <= bit


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trace_tables(draw):
    """Valid per-frame rows for a few frames, each with its own QP span."""
    frames = draw(st.lists(st.integers(0, 300), min_size=1, max_size=4, unique=True))
    rows = {}
    for frame in sorted(frames):
        qps = sorted(draw(st.sets(st.integers(-5, 60), min_size=1, max_size=6)))
        rows[frame] = [
            (qp, draw(finite_floats), draw(finite_floats.map(abs))) for qp in qps
        ]
    return rows


@given(
    rows=trace_tables(),
    bom=st.booleans(),
    blanks=st.lists(st.sampled_from(["", " ", "\t"]), max_size=3),
    data=st.data(),
)
def test_load_agrees_with_the_rows_it_was_written_from(
    tmp_path_factory, rows, bom, blanks, data
):
    lines = trace_lines(rows)
    for i, blank in enumerate(blanks):
        lines.insert(1 + i * len(lines) // len(blanks), blank)
    ends = data.draw(st.lists(NEWLINES, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_bytes((("\ufeff" if bom else "") + text).encode())
    table = TraceTable.load(path)
    assert rows_of(table) == rows
    copies = [copy.deepcopy(table), pickle.loads(pickle.dumps(table))]
    assert copies == [table, table]
    qps = [qp for entries in rows.values() for qp, _, _ in entries]
    for frame in [*rows, max(rows) + 1]:
        for qp in range(min(qps) - 2, max(qps) + 3):
            expected = outcome_of(linear_lookup, rows, frame, qp)
            for looked_up in [table, *copies]:
                assert outcome_of(looked_up.lookup, frame, qp) == expected


@given(
    rows=trace_tables(),
    char=st.sampled_from(NOT_NEWLINES),
    newline=NEWLINES,
    bom=st.booleans(),
)
def test_no_other_character_ends_a_trace_line(tmp_path_factory, rows, char, newline, bom):
    lines = trace_lines(rows)
    lines[1] += char + lines[1]  # two rows out of order, were it a line end
    text = ("\ufeff" if bom else "") + newline.join(lines) + newline
    path = tmp_path_factory.getbasetemp() / "one_line.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InputDomainError) as info:
        TraceTable.load(path)
    assert str(info.value) == "trace line 2: expected 4 fields"


def test_a_loaded_table_keeps_its_rows_compact(tmp_path):
    """A 1000-frame x 18-QP table held ~125 B per row as row tuples, and a
    parse that split the whole text into lines first peaked at ~4.4 MiB.
    Read line by line into two float64 columns, with one QP tuple per frame,
    it held ~33 B per row; with one QP tuple that all its frames share, it
    holds ~27 B per row. The parse peaks at ~1.0 MiB."""
    rng = random.Random(1)
    path = tmp_path / "table.csv"
    with open(path, "w", encoding="utf-8") as table:
        table.write("frame,qp,psnr_db,bits\n")
        for frame in range(1000):
            for qp in range(0, 52, 3):
                psnr, bits = 52.0 - 0.4 * qp + rng.random(), 3e5 * rng.random()
                table.write(f"{frame},{qp},{psnr:.6f},{bits:.3f}\n")
    TraceTable.load(path)  # import and warm what a first load touches
    # A full collection empties the free lists, so the tuples the measured
    # load makes are allocated, and traced, rather than reused.
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = TraceTable.load(path)
        resident, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sum(len(entries) for entries in table.rows.values()) == 18_000
    assert resident / 18_000 < 60
    assert peak < 2.0 * 2**20


def counting_bisects(monkeypatch):
    """The QP of every bisect a table's lookup makes from now on."""
    calls = []

    def counted(qps, qp):
        calls.append(qp)
        return bisect_left(qps, qp)

    monkeypatch.setattr("qpcontrol.plant.bisect_left", counted)
    return calls


@st.composite
def grid_sharing_tables(draw):
    """Rows for a few frames: some on QP grids that other frames share, some
    on their own, with PSNRs that may interpolate past the float range."""
    grids = st.sets(st.integers(-5, 40), min_size=1, max_size=6).map(sorted)
    shared = draw(st.lists(grids, min_size=1, max_size=3))
    frames = draw(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
    rows = {}
    for frame in sorted(frames):
        qps = draw(st.sampled_from(shared) | grids)
        rows[frame] = [
            (qp, draw(finite_floats), draw(finite_floats.map(abs))) for qp in qps
        ]
    return rows


@given(rows=grid_sharing_tables(), data=st.data())
def test_memoized_lookups_match_a_linear_scan(rows, data):
    """Any sequence of lookups, repeats and float QPs included, answers as
    the linear scan does. A frame's QP bisects only when no earlier int
    lookup placed it on its grid, and only an in-span int QP on a grid that
    two or more frames share is placed, so each grid memoizes at most its
    span's width of QPs."""
    table, fresh = table_from_rows(rows), table_from_rows(rows)
    frames = st.sampled_from([*rows, max(rows) + 1])
    qps = st.integers(-8, 44)
    queries = data.draw(
        st.lists(st.tuples(frames, qps | qps.map(float)), min_size=1, max_size=40)
    )
    queries += data.draw(st.permutations(queries))
    grids = {frame: tuple(qp for qp, _, _ in entries) for frame, entries in rows.items()}
    uses = collections.Counter(grids.values())
    placed, bisected = set(), []
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = counting_bisects(monkeypatch)
        for frame, qp in queries:
            expected = outcome_of(linear_lookup, rows, frame, qp)
            assert outcome_of(table.lookup, frame, qp) == expected
            grid = grids.get(frame)
            if grid is None or (grid, qp) in placed:
                continue
            bisected.append(qp)
            if uses[grid] > 1 and grid[0] <= qp <= grid[-1] and type(qp) is int:
                placed.add((grid, qp))
        assert calls == bisected
    for start, grid, memo in table._frames.values():
        if uses[grid] == 1:
            assert memo is None
        else:
            assert sorted(memo) == sorted(qp for g, qp in placed if g == grid)
            assert len(memo) <= grid[-1] - grid[0] + 1
    assert table == fresh and repr(table) == repr(fresh)
    assert pickle.dumps(table) == pickle.dumps(fresh)
    for copied in [copy.deepcopy(table), pickle.loads(pickle.dumps(table))]:
        for frame, qp in queries:
            assert outcome_of(copied.lookup, frame, qp) == outcome_of(table.lookup, frame, qp)


def test_a_refused_or_non_int_qp_is_not_placed(monkeypatch):
    rows = {t: [(30, 38.0 - t, 5e5), (40, 34.0 - t, 2e5)] for t in range(3)}
    table = table_from_rows(rows)
    calls = counting_bisects(monkeypatch)
    for qp in (29, 41, 29):
        with pytest.raises(TraceDomainError, match=f"qp {qp} outside tabulated span"):
            table.lookup(1, qp)
    for frame, qp in [(0, 35.5), (1, 35.5), (0, 35), (1, 35), (2, 35.0), (2, 35.5)]:
        assert outcome_of(table.lookup, frame, qp) == outcome_of(
            linear_lookup, rows, frame, qp
        )
    assert calls == [29, 41, 29, 35.5, 35.5, 35, 35.5]
    assert [len(memo) for _, _, memo in table._frames.values()] == [1, 1, 1]


def test_a_float_qp_past_the_exact_range_weighs_as_a_float():
    """Past 2**52 the weight of a float QP can differ from the equal int
    QP's in the last bit, so such a grid keeps no memo: each QP type gets
    the weight its own arithmetic gives."""
    qp, entries = 3 * 2**57, [(1, 0.0, 0.0), (2**60 + 256, 1.0, 1.0)]
    assert (qp - 1) / (2**60 + 255) != (float(qp) - 1) / (2**60 + 255)
    rows = {0: entries, 1: entries}
    table = table_from_rows(rows)
    for frame, probe in [(0, qp), (1, qp), (0, float(qp)), (1, float(qp))]:
        assert outcome_of(table.lookup, frame, probe) == outcome_of(
            linear_lookup, rows, frame, probe
        )
    assert table.lookup(0, qp) != table.lookup(0, float(qp))


@pytest.mark.parametrize(
    "psnrs, expected",
    [((40.0, 30.0), (40.0, 5e5)), ((1.7e308, -1.7e308), "psnr must be finite, got nan")],
    ids=["equals_the_lower_row", "times_an_overflowed_difference"],
)
def test_an_underflowing_weight_still_interpolates(psnrs, expected):
    """QP 1 between QPs 0 and 10**400 weighs 1 / 10**400, which is 0.0: the
    lookup still interpolates with it rather than read a row verbatim."""
    rows = {t: [(0, psnrs[0], 5e5), (10**400, psnrs[1], 1e5)] for t in range(2)}
    table = table_from_rows(rows)
    for frame in (0, 1, 0):
        assert outcome_of(table.lookup, frame, 1) == outcome_of(linear_lookup, rows, frame, 1)
    assert outcome_of(table.lookup, 0, 1) == (
        expected if isinstance(expected, str) else tuple(x.hex() for x in expected)
    )


def test_a_closed_run_on_a_shared_grid_bisects_once_per_distinct_qp(monkeypatch):
    rows = {
        t: [(qp, 52.0 - 0.4 * qp + 0.01 * (t % 7), 3e5 / (1 + qp)) for qp in range(0, 52, 3)]
        for t in range(300)
    }
    config = ExperimentConfig(
        plant=PlantModel(kind=PlantKind.TRACE_DRIVEN, trace=table_from_rows(rows)),
        objective=ControlObjective(target_psnr=37.2),
        n_frames=300,
    )
    calls = counting_bisects(monkeypatch)
    qps = [record.qp for record in run_closed_loop(config)]
    assert len(set(qps)) > 1  # the QP moves
    assert sorted(calls) == sorted(set(qps))


OVERFLOWING_TRACE = {0: [(0, 1.7e308, 0.0), (51, -1.7e308, 0.0)]}


@pytest.mark.parametrize(
    "run",
    [
        lambda table: table.lookup(0, 25),
        lambda table: step_plant(PlantModel(kind=PlantKind.TRACE_DRIVEN, trace=table), 25, 0),
        lambda table: run_closed_loop(
            ExperimentConfig(
                plant=PlantModel(kind=PlantKind.TRACE_DRIVEN, trace=table),
                objective=ControlObjective(target_psnr=37.2),
                n_frames=1,
                qp_offset=25.0,
            )
        ),
    ],
    ids=["lookup", "step_plant", "closed_loop"],
)
def test_a_psnr_interpolated_past_the_float_range_raises(run):
    with pytest.raises(InputDomainError) as info:
        run(table_from_rows(OVERFLOWING_TRACE))
    assert str(info.value) == "psnr must be finite, got -inf"
