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
