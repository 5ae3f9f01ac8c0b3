"""Closed-loop quality control for video encoders via per-frame QP feedback."""

from .controller import (
    ControllerState,
    ControlObjective,
    FrameKind,
    PidGains,
    QpRange,
    clamp_round_qp,
    compute_error,
    controller_frame,
    pid_step,
    policy_qp,
)
from .config import emit_config, parse_config
from .harness import (
    ExperimentConfig,
    FrameRecord,
    MetricsReport,
    RunMode,
    compute_metrics,
    fluctuation_reduction_pct,
    run_closed_loop,
    run_fixed_qp,
)
from .plant import (
    DisturbanceKind,
    DisturbanceSpec,
    FrameOutcome,
    PlantKind,
    PlantModel,
    TraceTable,
    disturbance_at,
    rate_model,
    step_plant,
)
from .sysid import ImpulseExperiment, OrderEstimate, estimate_order, run_impulse

__version__ = "0.1.0"

__all__ = [
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
]
