"""The benchmark's primitive replay against the package.

The benchmark in ``bench/`` times each per-frame primitive by replaying
every run frame by frame with ``step_plant``, ``PlantModel.reset``,
``controller_frame`` and ``ControllerState.last_o``, and it traces the CLI
by patching the names ``qpcontrol.cli`` imports. Only its traced mode runs
either, so these tests pin both: a change to those names or to what they
compute fails here rather than only in a traced benchmark run.
"""

import ast
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["cold_cli", "synthetic_sweep", "trace_sweep"]
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_run_equals_its_primitive_replay(tmp_path, name):
    workload = workloads.generate(name, 1, tmp_path / name)
    for run in layers.prepare(workload):
        replayed = layers.replay_timed(run, Counter(), Counter())
        assert layers.replay_mismatch(run, layers.execute(run), replayed) is None


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_traced_cli_exits_zero(tmp_path, capsys, name):
    workload = workloads.generate(name, 1, tmp_path / name)
    tracer = layers.Tracer(name)
    with layers.traced_cli(tracer):
        problems = layers.run_cli(workload, tmp_path / "out", tracer)
    assert problems == []
    assert tracer.spans


def test_the_trace_row_count_reads_the_tables_data_rows(tmp_path):
    # bench/measure.py reports plant.trace_rows as this sum over rows[frame].
    workload = workloads.generate("trace_sweep", 1, tmp_path)
    with open(tmp_path / "trace_table.csv", encoding="utf-8") as table_file:
        data_rows = sum(1 for line in table_file if line.strip()) - 1
    table = layers.prepare(workload)[0].config.plant.trace
    assert sum(len(rows) for rows in table.rows.values()) == data_rows == 18_000


def test_the_traced_trace_load_wraps_a_classmethod():
    # bench/layers.traced_cli re-wraps TraceTable.__dict__["load"].__func__.
    assert isinstance(layers.TraceTable.__dict__["load"], classmethod)


def test_every_module_that_raises_has_a_declared_error_metric():
    # bench/layers.module_of charges a failed operation to the innermost
    # qpcontrol module in its traceback, and bench/measure.py reports the
    # count only under a declared <module>.errors metric.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in benchmark["per_layer"]}
    undeclared = [
        path.stem
        for path in sorted((ROOT / "src" / "qpcontrol").glob("*.py"))
        if f"{path.stem}.errors" not in declared
        and any(
            isinstance(node, ast.Raise)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert undeclared == []
