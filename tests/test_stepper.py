"""Differential tests: the per-run plant stepper and the run loops against
the step-by-step primitives, compared bit for bit with ``float.hex`` so that
a -0.0 against a 0.0 counts as a difference."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpcontrol import plant as plant_module
from qpcontrol.controller import (
    ControllerState,
    ControlObjective,
    FrameKind,
    PidGains,
    QpRange,
    clamp_round_qp,
    compute_error,
    controller_frame,
)
from qpcontrol.disturbance import _memo_column, _shared_column, disturbance_at
from qpcontrol.errors import InputDomainError
from qpcontrol.harness import (
    ExperimentConfig,
    RunMode,
    parse_kind_pattern,
    run_closed_loop,
    run_fixed_qp,
)
from qpcontrol.plant import (
    DisturbanceKind,
    DisturbanceSpec,
    PlantKind,
    PlantModel,
    plant_stepper,
    step_plant,
)
from trace_rows import table_from_rows

QP_MIN, QP_MAX = 0, 51
MAX_FRAMES = 40
# Example counts scale with the loaded Hypothesis profile: 100 by default.
EXAMPLES = settings.default.max_examples

disturbances = st.builds(
    DisturbanceSpec,
    kind=st.sampled_from(DisturbanceKind),
    amplitude=st.floats(-5.0, 5.0),
    period=st.integers(3, 60),
    step_frame=st.integers(-3, MAX_FRAMES),
    seed=st.integers(-(2**70), 2**70),
)

synthetic_plants = st.builds(
    PlantModel,
    kind=st.sampled_from([PlantKind.ZERO_ORDER, PlantKind.FIRST_ORDER]),
    psnr_intercept=st.floats(20.0, 80.0),
    psnr_slope=st.floats(0.01, 2.0),
    inertia=st.floats(0.0, 1.0, exclude_max=True),
    rate_ref_bits=st.floats(0.0, 1e7),
    rate_ref_qp=st.integers(QP_MIN, QP_MAX),
    disturbance=disturbances,
    initial_psnr=st.none() | st.floats(0.0, 60.0),
)


@st.composite
def trace_plants(draw):
    """A trace-driven plant whose every frame spans [QP_MIN, QP_MAX] with a
    few tabulated QPs in between, so most QPs interpolate."""
    rows = {}
    for t in range(MAX_FRAMES):
        inner = draw(st.sets(st.integers(QP_MIN + 1, QP_MAX - 1), max_size=6))
        rows[t] = [
            (qp, draw(st.floats(0.0, 60.0)), draw(st.floats(0.0, 1e6)))
            for qp in sorted({QP_MIN, QP_MAX, *inner})
        ]
    return PlantModel(
        kind=PlantKind.TRACE_DRIVEN,
        trace=table_from_rows(rows),
        disturbance=draw(disturbances),
        initial_psnr=draw(st.none() | st.floats(0.0, 60.0)),
    )


plants = synthetic_plants | trace_plants()


def bit_pattern(pairs):
    return [(psnr.hex(), bits.hex()) for psnr, bits in pairs]


def record_bits(records):
    return [
        (r.frame, r.qp, r.psnr.hex(), r.bits.hex(), r.error.hex(), r.o.hex())
        for r in records
    ]


@given(
    plant=plants,
    override=st.none() | disturbances,
    qps=st.lists(st.integers(QP_MIN, QP_MAX), min_size=1, max_size=MAX_FRAMES),
)
def test_stepper_matches_step_plant_bit_for_bit(plant, override, qps):
    reference = plant if override is None else dataclasses.replace(
        plant, disturbance=override
    )
    step = plant_stepper(reference, len(qps))
    want = [step_plant(reference, qp, t) for t, qp in enumerate(qps)]
    got = [step(t, qp) for t, qp in enumerate(qps)]
    assert bit_pattern(got) == bit_pattern((o.psnr, o.bits) for o in want)


def controller_outcomes(psnrs, kind_pattern, state, gains, objective, qp_range):
    """``controller_frame`` over frames 0..len(psnrs), fed frame t-1's PSNR;
    each frame's ``(qp, o.hex())``, ending with the exception type on the
    frame that raises."""
    kind_at = parse_kind_pattern(kind_pattern)
    outcomes = []
    for t, psnr in enumerate([None, *psnrs]):
        try:
            qp = controller_frame(psnr, kind_at(t), state, gains, objective, qp_range)
        except Exception as exc:
            outcomes.append(type(exc))
            break
        outcomes.append((qp, state.last_o.hex()))
    return outcomes


def loop_outcomes(config):
    """``run_closed_loop``'s ``(qp, o.hex())`` per frame, ending with the
    exception type on the frame that raises: the first frame count whose
    run raises names that frame."""
    records = []
    for n in range(1, config.n_frames + 1):
        try:
            records = run_closed_loop(dataclasses.replace(config, n_frames=n))
        except Exception as exc:
            return [(r.qp, r.o.hex()) for r in records] + [type(exc)]
    return [(r.qp, r.o.hex()) for r in records]


def psnr_stream_config(psnrs, gains, objective, qp_range, qp_offset, kind_pattern):
    """A closed loop whose plant reads ``psnrs[j]`` at frame j whatever the
    QP: every QP of the range is tabulated, so no lookup interpolates. The
    run has one frame more than ``psnrs``, as the controller sees
    frames 0..len(psnrs)."""
    qps = range(qp_range.qp_min, qp_range.qp_max + 1)
    rows = {j: [(qp, psnr, 0.0) for qp in qps] for j, psnr in enumerate([*psnrs, 0.0])}
    return ExperimentConfig(
        plant=PlantModel(kind=PlantKind.TRACE_DRIVEN, trace=table_from_rows(rows)),
        objective=objective,
        gains=gains,
        qp_range=qp_range,
        qp_offset=qp_offset,
        kind_pattern=kind_pattern,
        n_frames=len(psnrs) + 1,
    )


wide = st.floats(-1e308, 1e308)
gain_values = st.floats(0.0, 4.0) | st.floats(0.0, 1e300)


controller_inputs = dict(
    gains=st.builds(PidGains, kp=gain_values, ki=gain_values, kd=gain_values),
    objective=st.builds(
        ControlObjective,
        target_psnr=st.floats(20.0, 50.0) | st.floats(0.0, 1e308, exclude_min=True),
        lambda_=st.floats(0.0, 1.0),
    ),
    qp_bounds=st.lists(st.integers(-60, 60), min_size=2, max_size=2).map(sorted),
    qp_offset=st.floats(-10.0, 60.0) | wide,
    kind_pattern=st.sampled_from(["inter", "intra"])
    | st.integers(1, 5).map(lambda n: f"intra_every:{n}"),
    psnrs=st.lists(st.floats(20.0, 50.0) | wide, max_size=MAX_FRAMES),
)


def loop_and_reference(gains, objective, qp_bounds, qp_offset, kind_pattern, psnrs):
    qp_range = QpRange(*qp_bounds)
    config = psnr_stream_config(psnrs, gains, objective, qp_range, qp_offset, kind_pattern)
    state = ControllerState(qp_offset=qp_offset)
    return loop_outcomes(config), controller_outcomes(
        psnrs, kind_pattern, state, gains, objective, qp_range
    )


@settings(max_examples=3 * EXAMPLES)
@given(**controller_inputs)
@example(  # psnr - prev_psnr overflows on frame 2: a non-finite error
    gains=PidGains(),
    objective=ControlObjective(37.2),
    qp_bounds=[0, 51],
    qp_offset=32.0,
    kind_pattern="intra",
    psnrs=[1e308, -1e308, 40.0],
)
@example(  # a negative tie rounds away from zero, to -3
    gains=PidGains(),
    objective=ControlObjective(37.2),
    qp_bounds=[-10, 10],
    qp_offset=-2.5,
    kind_pattern="inter",
    psnrs=[],
)
def test_closed_loop_matches_controller_frame_bit_for_bit(
    gains, objective, qp_bounds, qp_offset, kind_pattern, psnrs
):
    loop, reference = loop_and_reference(
        gains, objective, qp_bounds, qp_offset, kind_pattern, psnrs
    )
    assert loop == reference


@settings(max_examples=3 * EXAMPLES)
@given(**controller_inputs)
def test_every_qp_lies_in_range_or_the_frame_raises(
    gains, objective, qp_bounds, qp_offset, kind_pattern, psnrs
):
    qp_min, qp_max = qp_bounds
    for outcomes in loop_and_reference(
        gains, objective, qp_bounds, qp_offset, kind_pattern, psnrs
    ):
        for outcome in outcomes:
            assert outcome is InputDomainError or qp_min <= outcome[0] <= qp_max


@pytest.mark.parametrize(
    "gains, psnrs, message",
    [
        # psnr - prev_psnr overflows, so the error is -inf
        (PidGains(), [1e308, -1e308], "error must be finite"),
        # the same error with every gain 0: o is nan (0 * inf) on that frame
        # too, and the error's message comes first
        (PidGains(kp=0.0, ki=0.0, kd=0.0), [1e308, -1e308], "error must be finite"),
        # kp * error overflows
        (PidGains(kp=1e300), [1e300], "o must be finite"),
        # o is finite, but qp_offset + o_integral is not
        (PidGains(kp=2.0, ki=0.0, kd=0.0), [1e308, 1e308], "raw_qp must be finite"),
    ],
    ids=["error", "error_with_zero_gains", "o", "raw_qp"],
)
def test_closed_loop_raises_where_the_primitives_raise(gains, psnrs, message):
    objective = ControlObjective(target_psnr=37.2, lambda_=0.5)
    config = psnr_stream_config(psnrs, gains, objective, QpRange(), 32.0, "inter")
    with pytest.raises(InputDomainError, match=message):
        run_closed_loop(config)
    state = ControllerState(qp_offset=32.0)
    with pytest.raises(InputDomainError, match=message):
        for psnr in [None, *psnrs]:
            controller_frame(psnr, FrameKind.INTER, state, gains, objective, QpRange())
    # Both raise on the last frame, the one fed the PSNR that breaks it.
    assert loop_outcomes(config)[len(psnrs)] is InputDomainError


@pytest.mark.parametrize(
    "qp_offset, qp_bounds, qp",
    [(32.0, (0, 51), 32), (-2.5, (-10, 10), -3), (60.4, (0, 51), 51)],
    ids=["anchor", "negative_tie", "clamped"],
)
def test_frame_zero_emits_the_rounded_anchor(qp_offset, qp_bounds, qp):
    config = psnr_stream_config(
        [], PidGains(), ControlObjective(37.2), QpRange(*qp_bounds), qp_offset, "intra"
    )
    record = run_closed_loop(config)[0]
    assert (record.qp, record.o.hex()) == (qp, (0.0).hex())
    with pytest.raises(InputDomainError, match="qp_offset must be finite"):
        dataclasses.replace(config, qp_offset=float("nan"))


def reference_run(config):
    """A run built from the primitives alone: controller_frame (or the held
    anchor QP) + step_plant + compute_error, on a reset copy of the plant."""
    plant = dataclasses.replace(config.plant)
    plant.reset()
    kind_at = parse_kind_pattern(config.kind_pattern)
    state = ControllerState(qp_offset=config.qp_offset)
    anchor = clamp_round_qp(config.qp_offset, config.qp_range)
    records, prev = [], None
    for t in range(config.n_frames):
        if config.mode is RunMode.CONTROLLED:
            qp = controller_frame(
                prev, kind_at(t), state, config.gains, config.objective, config.qp_range
            )
        else:
            qp = anchor
        outcome = step_plant(plant, qp, t)
        error = compute_error(outcome.psnr, prev, config.objective)
        o = state.last_o
        records.append(
            (t, qp, outcome.psnr.hex(), outcome.bits.hex(), error.hex(), o.hex())
        )
        prev = outcome.psnr
    return records


@st.composite
def configs(draw):
    qp_min = draw(st.integers(QP_MIN, QP_MAX))
    return ExperimentConfig(
        plant=draw(plants),
        objective=ControlObjective(
            target_psnr=draw(st.floats(20.0, 50.0)), lambda_=draw(st.floats(0.0, 1.0))
        ),
        gains=PidGains(
            kp=draw(st.floats(0.0, 4.0)),
            ki=draw(st.floats(0.0, 1.0)),
            kd=draw(st.floats(0.0, 2.0)),
        ),
        qp_range=QpRange(qp_min, draw(st.integers(qp_min, QP_MAX))),
        qp_offset=draw(st.floats(-10.0, 60.0)),
        kind_pattern=draw(st.sampled_from(["inter", "intra", "intra_every:3"])),
        n_frames=draw(st.integers(1, MAX_FRAMES)),
        mode=draw(st.sampled_from(RunMode)),
    )


@settings(max_examples=EXAMPLES * 3 // 5)
@given(config=configs())
def test_run_records_match_the_primitive_loop(config):
    before = dict(vars(config.plant))
    run = run_closed_loop if config.mode is RunMode.CONTROLLED else run_fixed_qp
    assert record_bits(run(config)) == reference_run(config)
    assert vars(config.plant) == before


OVERFLOWING = PlantModel.zero_order(
    psnr_intercept=1e308,
    disturbance=DisturbanceSpec(kind=DisturbanceKind.CONSTANT, amplitude=1e308),
)


@pytest.mark.parametrize(
    "run",
    [
        lambda: plant_stepper(OVERFLOWING, 1)(0, 32),
        lambda: run_closed_loop(
            ExperimentConfig(plant=OVERFLOWING, objective=ControlObjective(37.2))
        ),
        lambda: run_fixed_qp(
            ExperimentConfig(
                plant=OVERFLOWING,
                objective=ControlObjective(37.2),
                mode=RunMode.FIXED_QP,
            )
        ),
    ],
    ids=["stepper", "closed_loop", "fixed_qp"],
)
def test_psnr_overflow_raises_on_the_frame(run):
    with pytest.raises(InputDomainError, match="psnr must be finite"):
        run()


def test_non_finite_bits_raise_when_the_rate_entry_is_made():
    step = plant_stepper(
        PlantModel.zero_order(rate_ref_bits=1e308, rate_ref_qp=40), 3
    )
    assert step(0, 40)[1] == 1e308
    for t in (1, 2):  # a refused QP is never cached, so it raises again
        with pytest.raises(InputDomainError, match="bits must be finite"):
            step(t, 0)


def count_rate_model_calls(monkeypatch):
    """The QP of every ``rate_model`` call a stepper makes from now on."""
    calls = []
    rate_model = plant_module.rate_model

    def counted(model, qp):
        calls.append(qp)
        return rate_model(model, qp)

    monkeypatch.setattr(plant_module, "rate_model", counted)
    return calls


def test_the_rate_memo_makes_each_qps_bits_once_per_run(monkeypatch):
    config = ExperimentConfig(
        plant=PlantModel.first_order(
            0.5, disturbance=DisturbanceSpec(DisturbanceKind.SINUSOID, 4.0, period=30)
        ),
        objective=ControlObjective(target_psnr=37.2),
        n_frames=300,
    )
    calls = count_rate_model_calls(monkeypatch)
    qps = [r.qp for r in run_closed_loop(config)]
    assert len(set(qps)) > 1  # the QP moves
    assert sorted(calls) == sorted(set(qps))


def test_a_refused_qp_raises_on_its_first_frame_and_is_not_stored(monkeypatch):
    step = plant_stepper(PlantModel.zero_order(rate_ref_bits=1e308, rate_ref_qp=40), 5)
    calls = count_rate_model_calls(monkeypatch)
    assert step(0, 40)[1] == 1e308
    assert step(1, 41)[1] < 1e308
    for t in (2, 3):  # QP 0's bits overflow: each use makes and refuses them
        with pytest.raises(InputDomainError, match="bits must be finite") as refused:
            step(t, 0)
        assert refused.value.__context__ is None
    assert step(4, 40)[1] == 1e308
    assert calls == [40, 41, 0, 0]


@pytest.mark.parametrize(
    "rate_ref_qp", [10**400, 10000], ids=["offset_past_the_float_range", "scale_overflows"]
)
def test_step_plant_rejects_inf_bits_as_the_stepper_does(rate_ref_qp):
    plant = PlantModel(rate_ref_qp=rate_ref_qp)
    message = "bits must be finite and >= 0, got inf"
    with pytest.raises(InputDomainError) as reference:
        step_plant(plant, 0, 0)
    with pytest.raises(InputDomainError) as stepper:
        plant_stepper(plant, 1)(0, 0)
    assert str(reference.value) == str(stepper.value) == message


def test_one_config_runs_on_many_threads_at_once():
    config = ExperimentConfig(
        plant=PlantModel.first_order(
            0.5,
            disturbance=DisturbanceSpec(
                kind=DisturbanceKind.SEEDED_NOISE, amplitude=1.0, seed=8
            ),
        ),
        objective=ControlObjective(target_psnr=37.2),
        n_frames=400,
    )
    want = run_closed_loop(config)
    _memo_column.cache_clear()  # the threads race to fill the shared column
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run_closed_loop, config) for _ in range(16)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == want for result in results)


def test_one_trace_table_backs_many_threads_at_once():
    """Runs on one table race to fill the memo of its shared QP tuple; each
    must still read the trace a run on a table of its own reads."""

    def config():
        rows = {
            t: [(qp, 50.0 - 0.4 * qp + 0.1 * (t % 5), 3e5 / (1 + qp)) for qp in range(0, 52, 3)]
            for t in range(400)
        }
        return ExperimentConfig(
            plant=PlantModel(kind=PlantKind.TRACE_DRIVEN, trace=table_from_rows(rows)),
            objective=ControlObjective(target_psnr=37.2),
            n_frames=400,
        )

    want = run_closed_loop(config())
    assert len({record.qp for record in want}) > 1  # the QP moves
    shared = config()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run_closed_loop, shared) for _ in range(16)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(record_bits(result) == record_bits(want) for result in results)


@settings(max_examples=EXAMPLES)
@given(
    kind=st.sampled_from(DisturbanceKind),
    amplitudes=st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, 1)]),
    period=st.integers(3, 60),
    step_frame=st.integers(-3, MAX_FRAMES),
    seed=st.integers(-(2**70), 2**70),
    n_frames=st.integers(1, MAX_FRAMES),
)
def test_a_run_after_an_equal_spec_reads_a_column_of_its_own(
    kind, amplitudes, period, step_frame, seed, n_frames
):
    # Specs that compare equal but hold 0.0 and -0.0 (or 1 and 1.0) must not
    # share a column. At QP 0 on a zero-order plant with intercept -0.0, the
    # PSNR is -0.0 + w, so a column of the other sign of zero shows.
    first, second = (
        DisturbanceSpec(kind, amplitude, period, step_frame, seed) for amplitude in amplitudes
    )
    assert first == second
    configs = [
        ExperimentConfig(
            plant=PlantModel.zero_order(psnr_intercept=-0.0, disturbance=spec),
            objective=ControlObjective(target_psnr=37.2),
            qp_offset=0.0,
            n_frames=n_frames,
        )
        for spec in (first, second)
    ]
    for run in (run_fixed_qp, run_closed_loop):
        _memo_column.cache_clear()
        run(configs[0])
        got = record_bits(run(configs[1]))
        column = _shared_column(second, n_frames)
        _memo_column.cache_clear()
        assert got == record_bits(run(configs[1]))
        assert [repr(w) for w in column] == [
            repr(disturbance_at(second, t)) for t in range(n_frames)
        ]


def test_the_memo_keeps_its_bound_and_an_evicted_column_is_rebuilt_the_same():
    def noise_run(seed):
        spec = DisturbanceSpec(DisturbanceKind.SEEDED_NOISE, 1.0, seed=seed)
        plant = PlantModel.first_order(0.5, disturbance=spec)
        config = ExperimentConfig(plant, ControlObjective(), n_frames=50)
        return record_bits(run_closed_loop(config))

    _memo_column.cache_clear()
    bound = _memo_column.cache_info().maxsize
    first = noise_run(0)
    for seed in range(1, bound + 4):
        noise_run(seed)
        assert _memo_column.cache_info().currsize <= bound
    misses = _memo_column.cache_info().misses
    assert noise_run(0) == first
    assert _memo_column.cache_info().misses == misses + 1  # evicted, so rebuilt


def test_the_shared_column_is_an_immutable_tuple():
    spec = DisturbanceSpec(DisturbanceKind.SINUSOID, 2.0, period=30)
    column = _shared_column(spec, 40)
    assert type(column) is tuple
    assert _shared_column(spec, 40) is column
    with pytest.raises(TypeError):
        column[0] = 99.0
