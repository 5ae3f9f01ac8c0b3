"""Output checks for the benchmark: every CLI output file and in-process run.

Each check returns a list of problems; an empty list means the output
passed. Metrics are recomputed with two-pass ``math.fsum`` (correctly
rounded sums), so a check holds whatever summation order the program
uses. No output digest is pinned; byte-identity is only required between
repetitions inside one benchmark run.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from typing import Sequence

METRIC_KEYS = (
    "avg_psnr",
    "control_error_db",
    "control_error_pct",
    "quality_fluc_db",
    "bitrate_mean",
    "bit_fluc",
)
# A value printed with 6 decimals is off by at most 5e-7; means and
# population standard deviations of such values move by at most twice that.
ROUNDED_TOL = 2e-6
EXACT_TOL = 1e-9
POLE_TOL = 0.01


def fsum_metrics(psnr: Sequence[float], bits: Sequence[float], target: float) -> dict:
    """The six report metrics by two-pass ``math.fsum``."""

    def mean(xs):
        return math.fsum(xs) / len(xs)

    def pstd(xs):
        m = mean(xs)
        return math.sqrt(math.fsum((x - m) ** 2 for x in xs) / len(xs))

    avg = mean(psnr)
    err = abs(avg - target)
    return {
        "avg_psnr": avg,
        "control_error_db": err,
        "control_error_pct": 100.0 * err / target,
        "quality_fluc_db": pstd(psnr),
        "bitrate_mean": mean(bits),
        "bit_fluc": pstd(bits),
    }


def metrics_problems(where: str, got: dict, want: dict, target: float, tol: float) -> list:
    if set(got) != set(METRIC_KEYS):
        return [f"{where}: keys {sorted(got)} are not the six metric keys"]
    problems = []
    for key in METRIC_KEYS:
        limit = tol * (100.0 / target if key == "control_error_pct" else 1.0)
        limit += 1e-12 * abs(want[key])
        value = got[key]
        if not (isinstance(value, float) and abs(value - want[key]) <= limit):
            problems.append(f"{where}: {key}={value!r}, recomputed {want[key]!r}")
    return problems


def records_problems(where: str, records, workload, config) -> list:
    """In-process run: length, frame order, QP range and metrics."""
    from qpcontrol import compute_metrics

    if len(records) != workload.n_frames:
        return [f"{where}: {len(records)} records, expected {workload.n_frames}"]
    problems = []
    for t, r in enumerate(records):
        if r.frame != t or not workload.qp_min <= r.qp <= workload.qp_max:
            problems.append(f"{where}: bad record {r!r}")
            break
    target = config.objective.target_psnr
    want = fsum_metrics([r.psnr for r in records], [r.bits for r in records], target)
    got = compute_metrics(records, config.objective).as_dict()
    return problems + metrics_problems(where, got, want, target, EXACT_TOL)


def _read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _read_metrics(path: Path) -> dict:
    return json.loads(path.read_text())


def check_simulate(out: Path, workload, target: float) -> list:
    rows = _read_csv(out / "trace.csv", "frame,qp,psnr_db,bits,error,o")
    if len(rows) != workload.n_frames:
        return [f"trace.csv: {len(rows)} rows, expected {workload.n_frames}"]
    problems = []
    for t, row in enumerate(rows):
        if len(row) != 6 or int(row[0]) != t:
            return [f"trace.csv: bad row {t}: {row}"]
        if not workload.qp_min <= int(row[1]) <= workload.qp_max:
            problems.append(f"trace.csv: frame {t} qp {row[1]} out of range")
    want = fsum_metrics(
        [float(r[2]) for r in rows], [float(r[3]) for r in rows], target
    )
    got = _read_metrics(out / "metrics.json")
    return problems + metrics_problems("metrics.json", got, want, target, ROUNDED_TOL)


def check_compare(out: Path, reference: dict, target: float) -> list:
    """``reference`` maps controlled/fixed to fsum metrics of in-process runs."""
    problems = []
    files = {"controlled": "metrics_controlled.json", "fixed": "metrics_fixed.json"}
    got = {mode: _read_metrics(out / name) for mode, name in files.items()}
    for mode, name in files.items():
        problems += metrics_problems(name, got[mode], reference[mode], target, EXACT_TOL)
    text = (out / "comparison.txt").read_text()
    labels = [line.split()[0] for line in text.splitlines()[1:3]]
    if labels != ["fixed_qp", "controlled"]:
        problems.append(f"comparison.txt: rows {labels}")
    match = re.search(r"quality fluctuation reduction: (\S+)%", text)
    base = reference["fixed"]["quality_fluc_db"]
    ours = reference["controlled"]["quality_fluc_db"]
    if match is None:
        problems.append("comparison.txt: no reduction line")
    elif base > 0 and abs(float(match.group(1)) - 100.0 * (base - ours) / base) > 0.051:
        problems.append(f"comparison.txt: reduction {match.group(1)}%")
    return problems


def check_identify(out: Path, workload) -> list:
    report = dict(
        line.split(" = ", 1)
        for line in (out / "identify_report.txt").read_text().splitlines()
    )
    problems = []
    if report.get("order") != "1":
        problems.append(f"identify_report.txt: order {report.get('order')}")
    elif abs(float(report["pole"]) - workload.inertia) > POLE_TOL:
        problems.append(
            f"identify_report.txt: pole {report['pole']} vs inertia {workload.inertia}"
        )
    rows = _read_csv(out / "impulse_response.csv", "frame,error_db")
    if len(rows) != workload.n_frames:
        problems.append(f"impulse_response.csv: {len(rows)} rows")
    return problems


def check_sweep(out: Path, expected_rows: Sequence[str], header: str) -> list:
    lines = (out / "sweep.csv").read_text().splitlines()
    if not lines or lines[0] != header:
        return ["sweep.csv: bad header"]
    if len(lines) - 1 != len(expected_rows):
        return [f"sweep.csv: {len(lines) - 1} rows, expected {len(expected_rows)}"]
    return [
        f"sweep.csv row {i}: {got!r} != in-process {want!r}"
        for i, (got, want) in enumerate(zip(lines[1:], expected_rows), start=1)
        if got != want
    ]


def digest(out: Path) -> dict:
    """sha256 of every file under ``out``, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def corrupt(command: str, out: Path) -> None:
    """Damage one output of ``command`` in a way its check must catch."""
    if command in ("simulate", "compare"):
        path = out / ("metrics.json" if command == "simulate" else "metrics_fixed.json")
        data = json.loads(path.read_text())
        data["avg_psnr"] += 1e-3
        path.write_text(json.dumps(data, indent=2) + "\n")
    elif command == "identify":
        path = out / "identify_report.txt"
        path.write_text(path.read_text().replace("order = 1", "order = 0"))
    else:
        path = out / "sweep.csv"
        lines = path.read_text().splitlines()
        last = lines[-1]
        lines[-1] = last[:-1] + str((int(last[-1]) + 1) % 10)
        path.write_text("\n".join(lines) + "\n")
