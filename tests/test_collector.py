"""The run loops hold the cyclic collector off: a run leaves its switch as
it found it, starts no collection while it runs, and makes no reference
cycles, which is what makes holding the collector safe."""

import gc
import threading

import pytest

from qpcontrol.config import parse_config
from qpcontrol.controller import ControlObjective
from qpcontrol.errors import InputDomainError, TraceDomainError
from qpcontrol.harness import (
    ExperimentConfig,
    _collector_held,
    run_closed_loop,
    run_fixed_qp,
)
from qpcontrol.plant import PlantKind, PlantModel

from trace_rows import table_from_rows

RUNS = [run_closed_loop, run_fixed_qp]
NOISE = [
    "plant.disturbance.kind=seeded_noise",
    "plant.disturbance.amplitude=1.5",
    "plant.disturbance.seed=7",
]


def noisy_config(n_frames):
    return parse_config(None, [*NOISE, f"n_frames={n_frames}"])


def trace_config(n_frames, short_frame=None):
    """A trace-driven plant near the default anchor QP 32. Frame
    ``short_frame``, if given, tabulates only QPs 0..9, so a run fails
    there with a TraceDomainError."""
    rows = {
        t: [
            (qp, 50.0 - 0.4 * qp + 0.1 * (t % 5), 3e5 / (1 + qp))
            for qp in (range(10) if t == short_frame else range(0, 52, 3))
        ]
        for t in range(n_frames)
    }
    return ExperimentConfig(
        plant=PlantModel(kind=PlantKind.TRACE_DRIVEN, trace=table_from_rows(rows)),
        objective=ControlObjective(target_psnr=37.2),
        n_frames=n_frames,
    )


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector_was(request):
    """Turn the collector on or off for the test, and back as it was after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("run", RUNS)
def test_a_run_leaves_the_collector_as_it_found_it(collector_was, run):
    assert len(run(noisy_config(200))) == 200
    assert gc.isenabled() is collector_was
    assert len(run(trace_config(200))) == 200
    assert gc.isenabled() is collector_was


def test_a_run_that_fails_on_a_non_finite_o_restores_the_collector(collector_was):
    config = parse_config(
        None,
        [
            "gains.kp=1e308",
            "plant.disturbance.kind=step",
            "plant.disturbance.amplitude=3",
            "plant.disturbance.step_frame=5",
            "n_frames=50",
        ],
    )
    with pytest.raises(InputDomainError, match="o must be finite"):
        run_closed_loop(config)
    assert gc.isenabled() is collector_was


@pytest.mark.parametrize("run", RUNS)
def test_a_run_that_leaves_the_trace_span_restores_the_collector(collector_was, run):
    config = trace_config(50, short_frame=7)
    with pytest.raises(TraceDomainError, match="at frame 7$"):
        run(config)
    assert gc.isenabled() is collector_was


def test_overlapping_holds_restore_the_collector_when_the_last_ends(
    collector_was, monkeypatch
):
    # Forces the interleaving a check-then-switch without a lock loses: the
    # first hold ends between the second's read of the switch and its
    # gc.disable(), so the second finds the collector off and never turns
    # it back on. Shared holds read the switch only in the first to begin.
    first, second = _collector_held(), _collector_held()
    held = []
    real_isenabled = gc.isenabled

    def first_ends_on_a_read():
        found = real_isenabled()
        if held:
            other = threading.Thread(target=held.pop().__exit__, args=(None,) * 3)
            other.start()
            other.join(timeout=5)
        return found

    first.__enter__()
    held.append(first)
    monkeypatch.setattr(gc, "isenabled", first_ends_on_a_read)
    second.__enter__()
    monkeypatch.undo()
    if held:
        held.pop().__exit__(None, None, None)
    assert not gc.isenabled()  # the second still holds it
    second.__exit__(None, None, None)
    assert gc.isenabled() is collector_was


@pytest.mark.parametrize("switch", [gc.disable, gc.enable])
def test_a_hold_undoes_only_a_disable_made_while_it_runs(collector_was, switch):
    hold = _collector_held()
    hold.__enter__()
    other = threading.Thread(target=switch)
    other.start()
    other.join()
    hold.__exit__(None, None, None)
    assert gc.isenabled() is (collector_was or switch is gc.enable)


@pytest.mark.parametrize("run", RUNS)
def test_a_run_starts_no_collection_while_it_runs(run):
    # 20,000 records outnumber the gen-0 threshold many times over, so a
    # loop the collector may enter starts a collection again and again.
    config = noisy_config(20_000)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        records = run(config)
    finally:
        gc.callbacks.remove(count)
        if not was_enabled:
            gc.disable()
    assert len(records) == 20_000
    assert starts == []


@pytest.mark.parametrize("plant", ["synthetic", "trace_driven"])
@pytest.mark.parametrize("run", RUNS)
def test_a_run_leaves_no_reference_cycles(run, plant):
    config = noisy_config(2_000) if plant == "synthetic" else trace_config(2_000)
    gc.collect()
    records = run(config)
    assert len(records) == 2_000
    del records
    assert gc.collect() == 0
