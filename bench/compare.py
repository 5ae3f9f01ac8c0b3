"""Compare two benchmark result sets, metric by metric and workload by workload.

    python3 bench/compare.py BASE.json NEW.json

Result sets are written by ``collect.py``. For every metric and workload
this prints each side's median and quartiles, the ratio new/base, and a
verdict:

* improved: the new side is better in at least 9 of every 10 runs paired
  by seed (ties count for neither side), and the medians differ by more
  than the base's quartile distance;
* unresolved: the base's quartile distance is wider than the metric's
  bound, and not every new run is better than every base run;
* worse: the new median is worse than the base median by more than the
  bound (a share of the base median, from ``BENCHMARK.json``);
* no worse: otherwise.

Per-layer metrics have no bound; they read improved, worse (the mirror of
the improved rule) or unresolved. This is a reading aid, not a CI gate:
the exit status is 0 whatever the verdicts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base: dict, new: dict, better: str, bound: float | None) -> str:
    """``base``/``new`` map seed to value."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    base_median, q1, q3 = summary(list(base.values()))
    new_median = statistics.median(new.values())
    change = sign * (new_median - base_median)  # > 0: new is better
    beyond_spread = abs(new_median - base_median) > q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and beyond_spread and change > 0:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and beyond_spread and change < 0:
            return "worse"
        return "unresolved"
    worst_new = min(sign * v for v in new.values())
    best_base = max(sign * v for v in base.values())
    if q3 - q1 > bound * abs(base_median) and not worst_new > best_base:
        return "unresolved"
    if -change > bound * abs(base_median):
        return "worse"
    return "no worse"


def by_seed(result_set: dict, workload: str, metric: str) -> dict:
    return {
        run["seed"]: run["metrics"][metric]
        for run in result_set["runs"]
        if run["workload"] == workload and metric in run["metrics"]
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    for side, name in ((base, "base"), (new, "new")):
        print(f"{name}: commit {side['commit']}, python {side['python']}, "
              f"{side['platform']}, {side['cpu_count']} CPUs, trace {side['trace']}")
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"\n{workload}")
        for metric in metrics:
            a = by_seed(base, workload, metric["name"])
            b = by_seed(new, workload, metric["name"])
            if not a or not b:
                continue
            ma, qa1, qa3 = summary(list(a.values()))
            mb, qb1, qb3 = summary(list(b.values()))
            ratio = f"{mb / ma:.4f}" if ma else "n/a"
            print(
                f"  {metric['name']:<36} base {ma:.6g} [{qa1:.6g}, {qa3:.6g}]  "
                f"new {mb:.6g} [{qb1:.6g}, {qb3:.6g}] {metric['unit']}  "
                f"new/base {ratio}  "
                f"{verdict(a, b, metric['better'], metric.get('bound'))}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
