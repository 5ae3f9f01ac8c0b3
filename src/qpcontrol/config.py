"""Line-oriented experiment configuration with dotted keys.

Grammar: one ``key = value`` assignment per line, ``#`` starts a comment,
blank lines are ignored. Keys are dotted paths into the experiment
configuration (``gains.kp``, ``plant.disturbance.seed``); unknown keys are
rejected, never ignored. Absent keys take the dataclass field defaults,
except the few keys whose configuration default differs. The same
key syntax backs CLI ``--set`` overrides, and ``emit_config`` writes a file
that parses back to an equal configuration.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .controller import ControlObjective, PidGains, QpRange
from .errors import (
    ConfigInvariantError,
    ConfigParseError,
    InputDomainError,
    MissingConfigFile,
    UnknownConfigKey,
)
from .harness import ExperimentConfig, RunMode
from .plant import DisturbanceKind, DisturbanceSpec, PlantKind, PlantModel, TraceTable


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigParseError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigParseError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_optional_float(key: str, raw: str) -> float | None:
    if raw == "none":
        return None
    return _parse_float(key, raw)


def _parse_optional_str(key: str, raw: str) -> str | None:
    return None if raw == "none" else raw


def _parse_enum(enum: type[Enum]) -> Callable[[str, str], Enum]:
    choices = tuple(member.value for member in enum)

    def parse(key: str, raw: str) -> Enum:
        if raw not in choices:
            raise ConfigParseError(
                f"{key}: expected one of {', '.join(choices)}; got {raw!r}"
            )
        return enum(raw)

    return parse


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, Enum):
        return value.value
    return str(value)


class Key(NamedTuple):
    """One configuration key: its parser, the dotted ``ExperimentConfig``
    attribute it reads (empty when that is the key) and its default, None
    when the dataclass field supplies it."""

    parse: Callable[[str, str], object]
    attr: str = ""
    default: object = None


_TRACE_PATH = "plant.trace_path"

# The only list of keys; it drives parsing, emission and --grid validation.
# Order is the canonical emission order.
SCHEMA: dict[str, Key] = {
    "objective.target_psnr": Key(_parse_float, default=37.2),
    "objective.lambda": Key(_parse_float, "objective.lambda_"),
    "gains.kp": Key(_parse_float),
    "gains.ki": Key(_parse_float),
    "gains.kd": Key(_parse_float),
    "range.qp_min": Key(_parse_int, "qp_range.qp_min"),
    "range.qp_max": Key(_parse_int, "qp_range.qp_max"),
    "qp_offset": Key(_parse_float),
    "kind_pattern": Key(lambda key, raw: raw),
    "n_frames": Key(_parse_int),
    "mode": Key(_parse_enum(RunMode)),
    "plant.kind": Key(_parse_enum(PlantKind), default=PlantKind.FIRST_ORDER),
    "plant.psnr_intercept": Key(_parse_float),
    "plant.psnr_slope": Key(_parse_float),
    "plant.inertia": Key(_parse_float, default=0.5),
    "plant.rate_ref_bits": Key(_parse_float),
    "plant.rate_ref_qp": Key(_parse_int),
    "plant.initial_psnr": Key(_parse_optional_float),
    _TRACE_PATH: Key(_parse_optional_str),
    "plant.disturbance.kind": Key(_parse_enum(DisturbanceKind)),
    "plant.disturbance.amplitude": Key(_parse_float),
    "plant.disturbance.period": Key(_parse_int),
    "plant.disturbance.step_frame": Key(_parse_int),
    "plant.disturbance.seed": Key(_parse_int),
}

# Keys that a fixed-QP run's metrics never read: the run holds the anchor
# QP, so no gain or frame kind reaches it, and the objective weight enters
# only its records' error column.
FIXED_QP_METRICS_UNREAD = frozenset(
    {"objective.lambda", "gains.kp", "gains.ki", "gains.kd", "kind_pattern"}
)


def _attr(key: str) -> str:
    return SCHEMA[key].attr or key


def _load_trace(trace_path: str | None) -> TraceTable:
    if trace_path is None:
        raise ConfigInvariantError(f"{_TRACE_PATH}: required for a trace_driven plant")
    trace_file = Path(trace_path)
    if not trace_file.is_file():
        raise ConfigInvariantError(
            f"{_TRACE_PATH}: trace file not found: {trace_file}"
        )
    try:
        return TraceTable.load(trace_file)
    except InputDomainError as exc:
        raise ConfigInvariantError(f"{_TRACE_PATH}: {exc}") from exc


def _plant(trace_table: Callable[[str | None], TraceTable], **fields) -> PlantModel:
    trace = None
    if fields["kind"] is PlantKind.TRACE_DRIVEN:
        trace = trace_table(fields.get("trace_path"))
    return PlantModel(trace=trace, **fields)


# Sections from the innermost out: attribute path, the key prefix that
# turns a field named in an error message into its config key, and the
# constructor taking the section's fields.
_SECTIONS: tuple[tuple[str, str, Callable[..., object]], ...] = (
    ("gains", "gains.", PidGains),
    ("objective", "objective.", ControlObjective),
    ("qp_range", "range.", QpRange),
    ("plant.disturbance", "plant.disturbance.", DisturbanceSpec),
    ("plant", "plant.", _plant),
    ("", "", ExperimentConfig),
)


def _parse_lines(text: str, source: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError(
                f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}"
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise UnknownConfigKey(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = SCHEMA[key].parse(key, raw)
    return values


def _build(
    kv: dict[str, object], trace_table: Callable[[str | None], TraceTable]
) -> ExperimentConfig:
    fields: dict[str, dict[str, object]] = {section: {} for section, _, _ in _SECTIONS}
    fields["plant"]["trace_table"] = trace_table
    for key, value in kv.items():
        section, _, name = _attr(key).rpartition(".")
        fields[section][name] = value
    for section, prefix, build in _SECTIONS:
        try:
            built = build(**fields[section])
        except InputDomainError as exc:
            raise ConfigInvariantError(f"{prefix}{exc}") from exc
        parent, _, name = section.rpartition(".")
        fields[parent][name] = built
    return built


def parse_configs(
    path: str | Path | None,
    overrides: Sequence[str] = (),
    points: Iterable[Sequence[str]] = ((),),
) -> list[ExperimentConfig]:
    """Build and validate one configuration per point, reading the file once.

    ``overrides`` entries are ``key=value`` strings applied after the file,
    in order, and each point is a sequence of them applied after
    ``overrides``, on a copy of the file's values; error messages number
    the two as one list, ``override[i]``. Keys set nowhere take their
    ``Key.default`` or, without one, the dataclass field's. Missing file,
    malformed line, unknown key and invariant violation each raise their
    own ConfigError subclass, naming the offending key, before any
    configuration is returned. Each distinct ``plant.trace_path`` is loaded
    once, and its table is shared by the configurations that name it;
    nothing is cached between calls.
    """
    kv = {key: e.default for key, e in SCHEMA.items() if e.default is not None}

    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise MissingConfigFile(f"config file not found: {file_path}")
        kv.update(_parse_lines(file_path.read_text(), str(file_path)))

    for i, line in enumerate(overrides):
        kv.update(_parse_lines(line, f"override[{i}]"))

    trace_table = cache(_load_trace)  # one load per path, for this call only
    configs = []
    for point in points:
        point_kv = dict(kv)
        for i, line in enumerate(point, start=len(overrides)):
            point_kv.update(_parse_lines(line, f"override[{i}]"))
        configs.append(_build(point_kv, trace_table))
    return configs


def parse_config(
    path: str | Path | None, overrides: Sequence[str] = ()
) -> ExperimentConfig:
    """The one-point case of ``parse_configs``."""
    return parse_configs(path, overrides)[0]


def emit_config(config: ExperimentConfig) -> str:
    """Serialize a configuration so that parsing it back compares equal."""
    if config.plant.kind is PlantKind.TRACE_DRIVEN and config.plant.trace_path is None:
        raise ConfigInvariantError(
            f"{_TRACE_PATH}: required to serialize a trace_driven plant"
        )
    lines = [f"{key} = {_fmt(attrgetter(_attr(key))(config))}" for key in SCHEMA]
    return "\n".join(lines) + "\n"
