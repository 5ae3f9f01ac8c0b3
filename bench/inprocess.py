"""Fresh-process worker timing the workload's runs in-process.

    PYTHONPATH=src python3 bench/inprocess.py WORKLOAD_JSON SECONDS

Parses every config the workload's CLI sequence parses and runs all of
them once untimed: that pass warms the process and is the reference every
later pass must equal. Then it runs them in timed passes, timing each run,
until SECONDS have been spent in runs (at least one timed pass). The
benchmark starts a fresh worker every round: address space layout and hash
randomisation shift one process's speed by several percent, and many
short-lived workers average that out. Prints one JSON line: nanoseconds per
run label, the digest of the reference pass's outputs, operation counts,
failures per module and the first problems.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter

import layers
from workloads import Workload

pc = time.perf_counter_ns


def main(argv: list[str]) -> int:
    workload = Workload.from_json(argv[0])
    budget_ns = float(argv[1]) * 1e9
    runs = layers.prepare(workload)
    run_ns: dict[str, list] = {}
    errors: Counter = Counter()
    problems: list[str] = []
    attempted = spent = 0

    def run_pass(timed: bool) -> list:
        nonlocal attempted, spent
        gc.collect()
        outputs = []
        for run in runs:
            attempted += 1
            t0 = pc()
            try:
                output = layers.execute(run)
            except Exception as exc:  # counted as a failed operation
                errors[layers.module_of(exc)] += 1
                problems.append(f"{run.label}: {exc!r}")
                output = None
            ns = pc() - t0
            if timed:
                spent += ns
                run_ns.setdefault(run.label, []).append(ns)
            outputs.append(output)
        return outputs

    reference = run_pass(timed=False)
    while not run_ns or spent < budget_ns:
        if run_pass(timed=True) != reference:
            errors["harness"] += 1
            problems.append("outputs differ between passes")
    print(json.dumps({
        "run_ns": run_ns,
        "digest": layers.outputs_digest(reference),
        "attempted": attempted,
        "errors": errors,
        "problems": problems[:5],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
