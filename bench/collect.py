"""Run the benchmark over several seeds and workloads and save a result set.

    python3 bench/collect.py --seeds 1-10 --trace 0 --out results.json

Runs ``BENCHMARK.json``'s command once per seed and workload it declares,
with its ``run_seconds``, one run at a time, seed-major so that slow drift
of the machine touches every workload alike. Prints every metric by name
with its unit for each workload, the failed fraction of operations, and
each end-to-end metric's spread (quartile distance over median) against
its bound. The result set records the
Python version, platform, CPU count and commit; ``compare.py`` reads two
of them. Exits 1 when any run failed validation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from compare import summary

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    result_set = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "runs": [],
    }
    ok = True
    for seed in seed_range(args.seeds):
        for workload in workloads:
            argv = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            ok &= proc.returncode == 0 and result["correct"]
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
            result_set["runs"].append({
                "workload": workload,
                "seed": seed,
                "exit": proc.returncode,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"seed {seed} {workload}: exit {proc.returncode}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    args.out.write_text(json.dumps(result_set, indent=1) + "\n")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    for workload in workloads:
        runs = [r for r in result_set["runs"] if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: fail_frac = {failed / max(attempted, 1):.6g} ratio "
              f"({failed}/{attempted} operations in {len(runs)} runs)")
        for metric in declared:
            values = [r["metrics"][metric["name"]] for r in runs if metric["name"] in r["metrics"]]
            if not values:
                continue
            median, q1, q3 = summary(values)
            line = (f"  {metric['name']} = {median:.6g} {metric['unit']} "
                    f"(p25 {q1:.6g}, p75 {q3:.6g}, n={len(values)})")
            if "bound" in metric and median:
                spread = (q3 - q1) / abs(median)
                verdict = "steady" if spread < metric["bound"] / 3 else "NOT STEADY"
                line += f"  spread {spread:.4f} vs bound {metric['bound']}: {verdict}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
