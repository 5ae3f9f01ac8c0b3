"""Line-oriented experiment configuration with dotted keys.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
are ignored. A file is read as a trace table is: UTF-8, a leading BOM
skipped, lines ending at \\n, \\r and \\r\\n only. Keys are dotted paths
(``gains.kp``, ``plant.disturbance.seed``); unknown keys are rejected, never
ignored. Absent keys take the dataclass field defaults. Each CLI ``--set``
is one such line, whose value may not hold a ``#``, and ``emit_config``
writes a file that parses back equal.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .controller import ControlObjective, PidGains, QpRange
from .disturbance import DisturbanceKind, DisturbanceSpec
from .errors import ConfigError, InputDomainError
from .harness import ExperimentConfig, RunMode
from .plant import PlantKind, PlantModel, TraceTable


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


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
            raise ConfigError(
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
    """One configuration key: its parser and the dotted ``ExperimentConfig``
    attribute it reads (empty when that is the key)."""

    parse: Callable[[str, str], object]
    attr: str = ""


_TRACE_PATH = "plant.trace_path"

# The only list of keys; it drives parsing, emission and --grid validation.
# Order is the canonical emission order.
SCHEMA: dict[str, Key] = {
    "objective.target_psnr": Key(_parse_float),
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
    "plant.kind": Key(_parse_enum(PlantKind)),
    "plant.psnr_intercept": Key(_parse_float),
    "plant.psnr_slope": Key(_parse_float),
    "plant.inertia": Key(_parse_float),
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


def _attr(key: str) -> str:
    return SCHEMA[key].attr or key


def _load_trace(trace_path: str | None) -> TraceTable:
    if trace_path is None:
        raise ConfigError(f"{_TRACE_PATH}: required for a trace_driven plant")
    trace_file = Path(trace_path)
    if not trace_file.is_file():
        raise ConfigError(f"{_TRACE_PATH}: trace file not found: {trace_file}")
    try:
        return TraceTable.load(trace_file)
    except (InputDomainError, OSError) as exc:
        raise ConfigError(f"{_TRACE_PATH}: {exc}") from exc


def _plant(trace_table: Callable[[str | None], TraceTable], **fields) -> PlantModel:
    trace = None
    if fields.get("kind") is PlantKind.TRACE_DRIVEN:
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


def _parse_lines(lines: Iterable[str], source: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped or "\n" in stripped or "\r" in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}"
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = SCHEMA[key].parse(key, raw)
    return values


def _parse_override(line: str, i: int) -> dict[str, object]:
    # As a config line, an override would lose what follows a '#'.
    key, _, raw = line.partition("=")
    if "#" in raw:
        raise ConfigError(f"{key.strip()}: a command-line value cannot hold '#'")
    return _parse_lines((line,), f"override[{i}]")


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
            raise ConfigError(f"{prefix}{exc}") from exc
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
    the two as one list, ``override[i]``; a ``#`` in the value of either
    raises ConfigError naming the key. Keys set nowhere take the
    dataclass field's default. A missing or non-UTF-8 file, a malformed
    line, an unknown key or an invariant violation raises ConfigError,
    naming the offending key, before any configuration is returned. Each
    distinct ``plant.trace_path`` is loaded once, and its table is shared
    by the configurations that name it; nothing is cached between calls.
    """
    kv: dict[str, object] = {}
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ConfigError(f"config file not found: {file_path}")
        try:
            with open(file_path, encoding="utf-8-sig") as lines:
                kv.update(_parse_lines(lines, str(file_path)))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{file_path}: not UTF-8 text: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"{file_path}: {exc}") from exc

    for i, line in enumerate(overrides):
        kv.update(_parse_override(line, i))

    trace_table = cache(_load_trace)  # one load per path, for this call only
    configs = []
    for point in points:
        point_kv = dict(kv)
        for i, line in enumerate(point, start=len(overrides)):
            point_kv.update(_parse_override(line, i))
        configs.append(_build(point_kv, trace_table))
    return configs


def parse_config(
    path: str | Path | None, overrides: Sequence[str] = ()
) -> ExperimentConfig:
    """The one-point case of ``parse_configs``."""
    return parse_configs(path, overrides)[0]


def emit_config(config: ExperimentConfig) -> str:
    """Serialize a configuration so that parsing it back compares equal.

    Raises ConfigError naming ``plant.trace_path`` when a trace-driven plant
    has none, or when the path would not parse back as itself: it holds a
    ``#``, \\n or \\r, has leading or trailing whitespace, or is the word
    ``none``.
    """
    trace_path = config.plant.trace_path
    if config.plant.kind is PlantKind.TRACE_DRIVEN and trace_path is None:
        raise ConfigError(f"{_TRACE_PATH}: required to serialize a trace_driven plant")
    if trace_path is not None and (
        any(char in trace_path for char in "#\n\r")
        or trace_path != trace_path.strip()
        or trace_path == "none"
    ):
        raise ConfigError(f"{_TRACE_PATH}: {trace_path!r} would not parse back")
    lines = [f"{key} = {_fmt(attrgetter(_attr(key))(config))}" for key in SCHEMA]
    return "\n".join(lines) + "\n"
