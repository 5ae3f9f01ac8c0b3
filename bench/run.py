"""qpcontrol benchmark: one workload, one seed, one measured window.

    python3 bench/run.py --workload synthetic_sweep --seed 1 --seconds 36 --trace 0

Run from the repository root. The inputs are generated from ``--seed``
into a scratch directory under ``.bench_work/`` and removed afterwards.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that measures the per-layer metrics and leaves
its spans in ``.bench_work/spans-<workload>-seed<seed>.jsonl``. Both
validate every output. The metric names and units are those in
``BENCHMARK.json``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every output validated, 1 when any operation failed
or the validator's self-check did not catch a corrupted output, 2 when the
program's source is missing.

One process drives the load and runs at most one child at a time; CLI
children are started as ``PYTHONPATH=src python -m qpcontrol.cli ...``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter_ns()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qpcontrol" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no qpcontrol source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import workloads
    from measure import Bench

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    bench = None
    try:
        workload = workloads.generate(args.workload, args.seed, work / "inputs")
        bench = Bench(workload, work)
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = bench.traced(args.seconds, started, spans)
        else:
            values = bench.end_to_end(args.seconds, started)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(f"benchmark bug: measured {sorted(values)} != declared {sorted(units)}")
    for problem in bench.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    fail_frac = bench.failed / bench.attempted
    for name in units:
        print(f"{args.workload} {name} = {values[name]:.6g} {units[name]}")
    print(f"{args.workload} fail_frac = {fail_frac:.6g} ratio "
          f"({bench.failed}/{bench.attempted} operations)")
    correct = bench.failed == 0 and bench.self_check_ok
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
