"""The package's boundaries: its export list and its modules' imports."""

import ast
from pathlib import Path

import qpcontrol

PACKAGE = Path(qpcontrol.__file__).resolve().parent

EXPORTS = {
    "ControlObjective",
    "ControllerState",
    "DisturbanceKind",
    "DisturbanceSpec",
    "ExperimentConfig",
    "FrameKind",
    "FrameOutcome",
    "FrameRecord",
    "ImpulseExperiment",
    "MetricsReport",
    "OrderEstimate",
    "PidGains",
    "PlantKind",
    "PlantModel",
    "QpRange",
    "RunMode",
    "TraceTable",
    "clamp_round_qp",
    "compute_error",
    "compute_metrics",
    "controller_frame",
    "disturbance_at",
    "emit_config",
    "estimate_order",
    "fluctuation_reduction_pct",
    "parse_config",
    "pid_step",
    "policy_qp",
    "rate_model",
    "run_closed_loop",
    "run_fixed_qp",
    "run_impulse",
    "step_plant",
}


def test_the_star_import_binds_the_pinned_export_list():
    namespace = {}
    exec("from qpcontrol import *", namespace)
    assert len(qpcontrol.__all__) == len(set(qpcontrol.__all__))
    assert set(qpcontrol.__all__) == EXPORTS
    assert EXPORTS <= namespace.keys()


def test_no_module_imports_a_private_name_from_a_sibling():
    # A private name is the module's own decision; a sibling that needs it
    # should get a public name, or the code should move.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "qpcontrol"
            ):
                found += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_only_the_run_loops_hold_the_collector_and_only_through_one_helper():
    # The collector switch is process-wide, so it is flipped on one code
    # path: harness._collector_held, entered by the two run loops.
    flips, held_by = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            helper = isinstance(top, ast.ClassDef) and top.name == "_collector_held"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    flips.append(f"{path.name}: from gc import ...")
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("disable", "enable")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "gc"
                ):
                    where = "" if helper else " outside the helper"
                    flips.append(f"{path.name}{where}: gc.{node.attr}")
                if (
                    isinstance(node, ast.withitem)
                    and isinstance(node.context_expr, ast.Call)
                    and getattr(node.context_expr.func, "id", None) == "_collector_held"
                ):
                    held_by.add(f"{path.name}: {top.name}")
    assert flips == ["harness.py: gc.disable", "harness.py: gc.enable"]
    assert held_by == {"harness.py: run_closed_loop", "harness.py: run_fixed_qp"}
