"""Differential tests: the per-run plant and controller steppers and the run
loop against the step-by-step primitives, compared bit for bit with ``float.hex`` so that a
-0.0 against a 0.0 counts as a difference."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpcontrol.controller import (
    ControllerState,
    ControlObjective,
    PidGains,
    QpRange,
    clamp_round_qp,
    compute_error,
    controller_frame,
    controller_stepper,
)
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
    TraceTable,
    plant_stepper,
    step_plant,
)

QP_MIN, QP_MAX = 0, 51
MAX_FRAMES = 40

disturbances = st.builds(
    DisturbanceSpec,
    kind=st.sampled_from(DisturbanceKind),
    amplitude=st.floats(-5.0, 5.0),
    period=st.integers(1, 60),
    step_frame=st.integers(0, MAX_FRAMES),
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
    return PlantModel.trace_driven(
        TraceTable(rows),
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
    step = plant_stepper(reference)
    want = [step_plant(reference, qp, t) for t, qp in enumerate(qps)]
    got = [step(qp, t) for t, qp in enumerate(qps)]
    assert bit_pattern(got) == bit_pattern((o.psnr, o.bits) for o in want)


def controller_outcomes(psnrs, frame_qp):
    """``frame_qp(psnr_prev_frame, t) -> (qp, o)`` over frames 0..len(psnrs);
    each frame's ``(qp, o.hex())``, ending with the exception type on the
    frame that raises."""
    outcomes = []
    for t, psnr in enumerate([None, *psnrs]):
        try:
            qp, o = frame_qp(psnr, t)
        except Exception as exc:
            outcomes.append(type(exc))
            break
        outcomes.append((qp, o.hex()))
    return outcomes


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


def controller_pair(gains, objective, qp_range, qp_offset, kind_pattern):
    """One fresh stream's ``(stepped, reference)`` frame functions, each
    ``(psnr_prev_frame, t) -> (qp, o)``: the ``controller_stepper`` fed
    ``compute_error`` of each PSNR, and ``controller_frame``."""
    kind_at = parse_kind_pattern(kind_pattern)
    state = ControllerState(qp_offset=qp_offset)

    def reference(psnr, t):
        qp = controller_frame(psnr, kind_at(t), state, gains, objective, qp_range)
        return qp, state.last_o

    step = controller_stepper(qp_offset, kind_at, gains, qp_range)
    error, prev = None, None

    def stepped(psnr, t):
        nonlocal error, prev
        if psnr is not None:
            error, prev = compute_error(psnr, prev, objective), psnr
        return step(error, t)

    return stepped, reference


@settings(max_examples=300)
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
def test_controller_stepper_matches_controller_frame_bit_for_bit(
    gains, objective, qp_bounds, qp_offset, kind_pattern, psnrs
):
    stepped, reference = controller_pair(
        gains, objective, QpRange(*qp_bounds), qp_offset, kind_pattern
    )
    assert controller_outcomes(psnrs, stepped) == controller_outcomes(psnrs, reference)


@settings(max_examples=300)
@given(**controller_inputs)
def test_every_qp_lies_in_range_or_the_frame_raises(
    gains, objective, qp_bounds, qp_offset, kind_pattern, psnrs
):
    qp_min, qp_max = qp_bounds
    frame_qps = controller_pair(
        gains, objective, QpRange(qp_min, qp_max), qp_offset, kind_pattern
    )
    for frame_qp in frame_qps:
        for outcome in controller_outcomes(psnrs, frame_qp):
            assert outcome is InputDomainError or qp_min <= outcome[0] <= qp_max


@pytest.mark.parametrize(
    "gains, psnrs, message",
    [
        # psnr - prev_psnr overflows, so the error is -inf
        (PidGains(), [1e308, -1e308], "error must be finite"),
        # kp * error overflows
        (PidGains(kp=1e300), [1e300], "o must be finite"),
        # o is finite, but qp_offset + o_integral is not
        (PidGains(kp=2.0, ki=0.0, kd=0.0), [1e308, 1e308], "raw_qp must be finite"),
    ],
    ids=["error", "o", "raw_qp"],
)
def test_controller_stepper_raises_where_the_primitives_raise(gains, psnrs, message):
    objective = ControlObjective(target_psnr=37.2, lambda_=0.5)
    kind_at = parse_kind_pattern("inter")
    qp_range = QpRange()
    state = ControllerState(qp_offset=32.0)
    step = controller_stepper(32.0, kind_at, gains, qp_range)
    errors, prev = [None], None
    for psnr in psnrs:
        errors.append(compute_error(psnr, prev, objective))
        prev = psnr
    *settled, (t, psnr, error) = zip(range(len(errors)), [None, *psnrs], errors)
    for t_ok, psnr_ok, error_ok in settled:
        controller_frame(psnr_ok, kind_at(t_ok), state, gains, objective, qp_range)
        step(error_ok, t_ok)
    with pytest.raises(InputDomainError, match=message):
        controller_frame(psnr, kind_at(t), state, gains, objective, qp_range)
    with pytest.raises(InputDomainError, match=message):
        step(error, t)


def test_controller_stepper_checks_the_frame_zero_contract():
    kind_at = parse_kind_pattern("inter")
    with pytest.raises(InputDomainError, match="frame 0 has no preceding frame"):
        controller_stepper(32.0, kind_at, PidGains(), QpRange())(0.5, 0)
    step = controller_stepper(32.0, kind_at, PidGains(), QpRange())
    assert step(None, 0) == (32, 0.0)
    with pytest.raises(InputDomainError, match="frame 1 requires the error of frame 0"):
        step(None, 1)
    with pytest.raises(InputDomainError, match="qp_offset must be finite"):
        controller_stepper(float("nan"), kind_at, PidGains(), QpRange())
    with pytest.raises(InputDomainError, match="kind must be a FrameKind"):
        controller_stepper(32.0, lambda t: "inter", PidGains(), QpRange())(None, 0)


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


@settings(max_examples=60)
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
        lambda: plant_stepper(OVERFLOWING)(32, 0),
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
    step = plant_stepper(PlantModel.zero_order(rate_ref_bits=1e308, rate_ref_qp=40))
    assert step(40, 0)[1] == 1e308
    with pytest.raises(InputDomainError, match="bits must be finite"):
        step(0, 1)


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
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run_closed_loop, config) for _ in range(16)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == want for result in results)
