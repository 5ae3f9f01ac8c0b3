"""Cross-plant oracle: a zero-order plant written out as a trace table runs
as the plant itself.

``tabulate`` writes each frame's PSNR and bits at each QP by ``repr``, so
the table reads back the synthetic plant's values exactly, and a
trace-driven run that only meets tabulated QPs must equal the synthetic run
bit for bit, compared with ``float.hex``. The two plants share no stepping
code: the synthetic stepper computes each frame from its disturbance column
and rate memo, the trace-driven stepper is ``TraceTable.lookup``."""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpcontrol.cli import main
from qpcontrol.config import parse_config
from qpcontrol.controller import ControlObjective, PidGains, QpRange, clamp_round_qp
from qpcontrol.disturbance import DisturbanceKind, DisturbanceSpec, disturbance_at
from qpcontrol.errors import TraceDomainError
from qpcontrol.harness import ExperimentConfig, run_closed_loop, run_fixed_qp
from qpcontrol.plant import PlantKind, PlantModel, TraceTable, rate_model

MAX_FRAMES = 40
MAX_SPAN = 60  # QPs tabulated at a frame, at most


def tabulate(plant, n_frames, path, qps):
    """Write frames ``0 .. n_frames - 1`` of the zero-order ``plant`` as a
    trace CSV at ``path``. Frame t tabulates the QPs of
    ``qps[t % len(qps)]``, each QP list in increasing order."""
    assert plant.kind is PlantKind.ZERO_ORDER
    lines = ["frame,qp,psnr_db,bits"]
    for t in range(n_frames):
        w = disturbance_at(plant.disturbance, t)
        for qp in qps[t % len(qps)]:
            psnr = plant.psnr_intercept - plant.psnr_slope * qp + w
            lines.append(f"{t},{qp},{psnr!r},{rate_model(plant, qp)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def tabulated(config, qps):
    """``config`` with its zero-order plant replaced by the plant's table
    over ``qps``, as ``tabulate`` writes it."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.csv"
        tabulate(config.plant, config.n_frames, path, qps)
        table = TraceTable.load(path)
    plant = PlantModel(kind=PlantKind.TRACE_DRIVEN, trace=table)
    return dataclasses.replace(config, plant=plant)


def record_bits(records):
    return [
        (r.frame, r.qp, r.psnr.hex(), r.bits.hex(), r.error.hex(), r.o.hex())
        for r in records
    ]


disturbances = st.builds(
    DisturbanceSpec,
    kind=st.sampled_from(DisturbanceKind),
    amplitude=st.floats(-5.0, 5.0),
    period=st.integers(3, 60),
    step_frame=st.integers(-3, MAX_FRAMES),
    seed=st.integers(-(2**70), 2**70),
)

gains = st.builds(
    PidGains,
    kp=st.floats(0.0, 5.0),
    ki=st.floats(0.0, 2.0),
    kd=st.floats(0.0, 2.0),
)


@st.composite
def configs(draw):
    """A closed-loop run on a zero-order plant, on at most ``MAX_SPAN - 4``
    QPs, so that a table padded by two QPs each side stays within
    ``MAX_SPAN``. Most targets are a PSNR the plant makes at some QP of
    the range, so that the loop moves its QP instead of resting at a
    clamp."""
    qp_min = draw(st.integers(-10, 60))
    qp_max = qp_min + draw(st.integers(0, MAX_SPAN - 5))
    intercept, slope = draw(st.floats(-20.0, 80.0)), draw(st.floats(0.01, 2.0))
    reached = intercept - slope * draw(st.integers(qp_min, qp_max))
    plant = PlantModel.zero_order(
        psnr_intercept=intercept,
        psnr_slope=slope,
        rate_ref_bits=draw(st.floats(0.0, 1e7)),
        rate_ref_qp=draw(st.integers(-10, 70)),
        disturbance=draw(disturbances),
    )
    target = draw(st.floats(1.0, 70.0) | st.floats(-2.0, 2.0).map(reached.__add__))
    return ExperimentConfig(
        plant=plant,
        objective=ControlObjective(
            target_psnr=max(target, 1.0), lambda_=draw(st.floats(0.0, 1.0))
        ),
        gains=draw(gains),
        qp_range=QpRange(qp_min, qp_max),
        qp_offset=draw(st.floats(qp_min - 5.0, qp_max + 5.0)),
        kind_pattern=draw(
            st.just("inter") | st.integers(1, 12).map("intra_every:{}".format)
        ),
        n_frames=draw(st.integers(1, MAX_FRAMES)),
    )


pads = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3)


@given(config=configs(), pads=pads)
def test_a_tabulated_plant_runs_as_the_plant(config, pads):
    # Frames on one QP list share its position memo; a padded list that no
    # other frame holds is bisected on every lookup.
    qp_min, qp_max = config.qp_range.qp_min, config.qp_range.qp_max
    table = tabulated(config, [range(qp_min - lo, qp_max + 1 + hi) for lo, hi in pads])
    for run in (run_closed_loop, run_fixed_qp):
        assert record_bits(run(table)) == record_bits(run(config))


@given(config=configs(), data=st.data())
def test_a_partly_tabulated_plant_runs_as_the_plant_until_it_leaves_the_span(
    config, data
):
    # Most spans hold frame 0's QP, the rounded anchor, so the run leaves
    # them later if at all.
    qp_min, qp_max = config.qp_range.qp_min, config.qp_range.qp_max
    first = clamp_round_qp(config.qp_offset, config.qp_range)
    lo = data.draw(st.integers(qp_min, first) | st.integers(qp_min, qp_max))
    hi = data.draw(st.integers(max(lo, first), qp_max) | st.integers(lo, qp_max))
    table = tabulated(config, [range(lo, hi + 1)])
    for run in (run_closed_loop, run_fixed_qp):
        want = record_bits(run(config))
        leaves = next((r for r in want if not lo <= r[1] <= hi), None)
        if leaves is None:
            assert record_bits(run(table)) == want
            continue
        frame, qp = leaves[:2]
        message = f"qp {qp} outside tabulated span [{lo}, {hi}] at frame {frame}"
        with pytest.raises(TraceDomainError) as raised:
            run(table)
        assert str(raised.value) == message
        if frame:  # the frames before it, run alone, equal the plant's
            prefix = dataclasses.replace(table, n_frames=frame)
            assert record_bits(run(prefix)) == want[:frame]


@pytest.mark.parametrize(
    "sets",
    [[], ["kind_pattern=intra_every:12"], ["objective.target_psnr=60"]],
    ids=["defaults", "intra_every_12", "target_60"],
)
def test_the_cli_writes_the_same_files_for_a_plant_and_its_table(tmp_path, sets):
    # No disturbance: identify drops a synthetic plant's disturbance, but
    # not the one a table holds.
    config = parse_config(None, ["plant.kind=zero_order", *sets])
    assert config.plant.disturbance.kind is DisturbanceKind.NONE
    trace = tmp_path / "trace.csv"
    qps = range(config.qp_range.qp_min, config.qp_range.qp_max + 1)
    tabulate(config.plant, config.n_frames, trace, [qps])
    plants = {
        "plant": ["plant.kind=zero_order"],
        "table": ["plant.kind=trace_driven", f"plant.trace_path={trace}"],
    }
    sweep = ["--grid", "objective.lambda=0,0.5,1", "--grid", "mode=controlled,fixed"]
    commands = [("simulate", []), ("compare", []), ("sweep", sweep), ("identify", [])]
    for command, extra in commands:
        written = []
        for name, plant_sets in plants.items():
            out = tmp_path / f"{command}_{name}"
            flags = [word for s in [*plant_sets, *sets] for word in ("--set", s)]
            assert main([command, *flags, *extra, "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] == written[1] and written[0]
