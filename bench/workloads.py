"""Deterministic benchmark inputs: configs, grids and trace tables from a seed.

Each workload is generated from ``(name, seed)`` into a directory; the
program under test only ever sees the generated files. The seed moves
numeric values (plant inertia, targets, disturbance seed, table content)
but never the amount of work, so different seeds are comparable runs of
one workload.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path

# BENCHMARK.json records why each workload exists.
WORKLOADS = ("synthetic_sweep", "trace_sweep", "cold_cli")

SYNTHETIC_GRID = (
    ("objective.lambda", ("0", "0.2", "0.4", "0.6", "0.8", "1")),
    ("kind_pattern", ("inter", "intra_every:12")),
    ("mode", ("controlled", "fixed")),
    ("plant.disturbance.kind", ("seeded_noise", "sinusoid")),
)
TRACE_GRID = (
    ("objective.lambda", ("0.4", "0.8", "1")),
    ("mode", ("controlled", "fixed")),
)
TRACE_FRAMES = 1000
# Tabulated QPs 0, 3, ..., 51: the full default range, so two of every three
# integer QPs interpolate between rows.
TRACE_QPS = tuple(range(0, 52, 3))


@dataclass(frozen=True)
class Workload:
    """One generated workload: its config, CLI commands and sweep grid."""

    name: str
    config: Path
    commands: tuple[str, ...]
    grid: tuple[tuple[str, tuple[str, ...]], ...]
    n_frames: int
    qp_min: int
    qp_max: int
    inertia: float

    def cli_args(self, command: str, out: Path) -> list[str]:
        """Arguments after ``python -m qpcontrol.cli`` for one command."""
        args = [command, "--config", str(self.config), "--out", str(out)]
        for key, values in self.grid if command == "sweep" else ():
            args += ["--grid", f"{key}={','.join(values)}"]
        return args

    def to_json(self) -> str:
        return json.dumps({**dataclasses.asdict(self), "config": str(self.config)})

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        data = json.loads(text)
        data["config"] = Path(data["config"])
        data["commands"] = tuple(data["commands"])
        data["grid"] = tuple((key, tuple(values)) for key, values in data["grid"])
        return cls(**data)


def _write_config(path: Path, values: dict[str, object]) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))


def _write_trace_table(path: Path, rng: random.Random) -> None:
    """A per-frame table, PSNR falling in QP, bits halving every 6 QP."""
    lines = ["frame,qp,psnr_db,bits"]
    level = 48.0
    for frame in range(TRACE_FRAMES):
        level = min(max(level + rng.uniform(-0.4, 0.4), 44.0), 52.0)
        slope = rng.uniform(0.35, 0.45)
        ref_bits = rng.uniform(2.0e5, 5.0e5)
        for qp in TRACE_QPS:
            psnr = level - slope * qp + rng.uniform(-0.05, 0.05)
            bits = ref_bits * 2.0 ** (-(qp - 32) / 6.0)
            lines.append(f"{frame},{qp},{psnr:.6f},{bits:.3f}")
    path.write_text("\n".join(lines) + "\n")


def generate(name: str, seed: int, out: Path) -> Workload:
    """Write the workload's inputs under ``out`` and describe them."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    config = out / "experiment.cfg"
    target = round(rng.uniform(35.5, 38.5), 3)
    inertia = round(rng.uniform(0.3, 0.8), 3)
    if name == "synthetic_sweep":
        values = {
            "objective.target_psnr": target,
            "plant.kind": "first_order",
            "plant.inertia": inertia,
            "plant.disturbance.kind": "seeded_noise",
            "plant.disturbance.amplitude": 1.0,
            "plant.disturbance.period": 30,
            "plant.disturbance.seed": rng.randrange(1 << 31),
            "n_frames": 2000,
        }
        commands, grid = ("sweep",), SYNTHETIC_GRID
    elif name == "trace_sweep":
        table = out / "trace_table.csv"
        _write_trace_table(table, rng)
        values = {
            "objective.target_psnr": target,
            "plant.kind": "trace_driven",
            "plant.trace_path": table.resolve(),
            "n_frames": TRACE_FRAMES,
        }
        commands, grid = ("sweep",), TRACE_GRID
    else:
        values = {
            "objective.target_psnr": target,
            "plant.kind": "first_order",
            "plant.inertia": inertia,
            "plant.disturbance.kind": "sinusoid",
            "plant.disturbance.amplitude": 1.0,
            "plant.disturbance.period": rng.randint(20, 40),
            "n_frames": 300,
        }
        commands, grid = ("simulate", "compare", "identify"), ()
    _write_config(config, values)
    return Workload(
        name=name,
        config=config.resolve(),
        commands=commands,
        grid=grid,
        n_frames=int(values["n_frames"]),
        qp_min=0,
        qp_max=51,
        inertia=inertia if values["plant.kind"] == "first_order" else 0.0,
    )

