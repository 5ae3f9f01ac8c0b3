"""Line-oriented experiment configuration with dotted keys.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
are ignored. A file is read as a trace table is: UTF-8, a leading BOM
skipped, lines ending at \\n, \\r and \\r\\n only. Keys are dotted paths
(``gains.kp``, ``plant.disturbance.seed``); unknown keys are rejected, never
ignored. Absent keys take the dataclass field defaults. A command-line
assignment is exactly one ``key=value``, with no comment or blank, and a
``#`` in its value is refused. ``emit_config`` writes a file that parses
back equal.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


_TRACE_PATH = "plant.trace_path"

# The only list of keys, each with its parser; it drives parsing, emission
# and --grid validation. Order is the canonical emission order.
SCHEMA: dict[str, Callable[[str, str], object]] = {
    "objective.target_psnr": _parse_float,
    "objective.lambda": _parse_float,
    "gains.kp": _parse_float,
    "gains.ki": _parse_float,
    "gains.kd": _parse_float,
    "range.qp_min": _parse_int,
    "range.qp_max": _parse_int,
    "qp_offset": _parse_float,
    "kind_pattern": lambda key, raw: raw,
    "n_frames": _parse_int,
    "mode": _parse_enum(RunMode),
    "plant.kind": _parse_enum(PlantKind),
    "plant.psnr_intercept": _parse_float,
    "plant.psnr_slope": _parse_float,
    "plant.inertia": _parse_float,
    "plant.rate_ref_bits": _parse_float,
    "plant.rate_ref_qp": _parse_int,
    "plant.initial_psnr": _parse_optional_float,
    _TRACE_PATH: lambda key, raw: None if raw == "none" else raw,
    "plant.disturbance.kind": _parse_enum(DisturbanceKind),
    "plant.disturbance.amplitude": _parse_float,
    "plant.disturbance.period": _parse_int,
    "plant.disturbance.step_frame": _parse_int,
    "plant.disturbance.seed": _parse_int,
}

# The keys whose dotted ExperimentConfig attribute is not the key itself.
_ATTRS = {
    "objective.lambda": "objective.lambda_",
    "range.qp_min": "qp_range.qp_min",
    "range.qp_max": "qp_range.qp_max",
}


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


# Sections from the innermost out: attribute path, the key prefix that
# turns a field named in an error message into its config key, and the
# constructor taking the section's fields.
_SECTIONS: tuple[tuple[str, str, Callable[..., object]], ...] = (
    ("gains", "gains.", PidGains),
    ("objective", "objective.", ControlObjective),
    ("qp_range", "range.", QpRange),
    ("plant.disturbance", "plant.disturbance.", DisturbanceSpec),
    ("plant", "plant.", PlantModel),
    ("", "", ExperimentConfig),
)


def _assign(kv: dict[str, object], text: str, where: str, line: str) -> None:
    # Every assignment's one rule: split at the first '=', check the key,
    # parse the value. Errors open with where and quote the input line.
    key, eq, raw = text.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
    key = key.strip()
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    kv[key] = SCHEMA[key](key, raw.strip())


def _parse_lines(lines: Iterable[str], source: str) -> dict[str, object]:
    # A config-file line: '#' starts a comment, and a blank line is skipped.
    kv: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0]
        if text.strip():
            _assign(kv, text, f"{source}:{lineno}", line)
    return kv


def _parse_assignment(kv: dict[str, object], text: str, i: int) -> None:
    # A command-line assignment is read whole, as exactly one key=value: a
    # '#' starts no comment, and a value holding one is refused, as a file
    # would cut it there.
    key, _, raw = text.partition("=")
    if "#" in raw:
        raise ConfigError(f"{key.strip()}: a command-line value cannot hold '#'")
    where, one_line = f"override[{i}]:1", text.strip()
    if "\n" in one_line or "\r" in one_line:
        raise ConfigError(f"{where}: expected 'key = value', got {one_line!r}")
    _assign(kv, text, where, text)


def _build(kv: dict[str, object], trace_table: Callable) -> ExperimentConfig:
    fields: dict[str, dict[str, object]] = {section: {} for section, _, _ in _SECTIONS}
    for key, value in kv.items():
        section, _, name = _ATTRS.get(key, key).rpartition(".")
        fields[section][name] = value
    for section, prefix, build in _SECTIONS:
        given = fields[section]
        if build is PlantModel and given.get("kind") is PlantKind.TRACE_DRIVEN:
            given["trace"] = trace_table(given.get("trace_path"))
        try:
            built = build(**given)
        except InputDomainError as exc:
            raise ConfigError(f"{prefix}{exc}") from exc
        parent, _, name = section.rpartition(".")
        fields[parent][name] = built
    return built


def parse_configs(
    path: str | Path | None, points: Iterable[Sequence[str]]
) -> list[ExperimentConfig]:
    """Build and validate one configuration per point, reading the file once.

    A point is the full list of one configuration's command-line
    assignments, each exactly one ``key=value`` string, applied in order
    after the file, on a copy of the file's values; error messages number
    them ``override[i]``. Keys set nowhere take the dataclass field's
    default. A missing or non-UTF-8 file, a malformed line or assignment,
    an unknown key, a ``#`` in an assignment's value or an invariant
    violation raises ConfigError, naming the offending key, before any
    configuration is returned. Each distinct ``plant.trace_path`` is loaded
    once, and its table is shared by the configurations that name it;
    nothing is cached between calls.
    """
    file_kv: dict[str, object] = {}
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ConfigError(f"config file not found: {file_path}")
        try:
            with open(file_path, encoding="utf-8-sig") as lines:
                file_kv = _parse_lines(lines, str(file_path))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{file_path}: not UTF-8 text: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"{file_path}: {exc}") from exc

    trace_table = cache(_load_trace)  # one load per path, for this call only
    configs = []
    for point in points:
        kv = dict(file_kv)
        for i, text in enumerate(point):
            _parse_assignment(kv, text, i)
        configs.append(_build(kv, trace_table))
    return configs


def parse_config(
    path: str | Path | None, overrides: Sequence[str] = ()
) -> ExperimentConfig:
    """The one-point case of ``parse_configs``."""
    return parse_configs(path, [overrides])[0]


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
    lines = [f"{key} = {_fmt(attrgetter(_ATTRS.get(key, key))(config))}" for key in SCHEMA]
    return "\n".join(lines) + "\n"
