"""Compare two benchmark results files.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A results file holds one JSON record per run, as ``run.py --results``
appends them.  Only untraced runs are read.  For each workload and each
end-to-end metric of BENCHMARK.json it prints each side's median, quartiles
and spread (quartile distance over the median), and marks the metric:

* ``worse``: the new median is worse than the base median by more than the
  bound;
* ``unresolved``: either side spreads wider than the bound, and not every
  new run beats every base run;
* ``better``: every new run beats every base run, or the new median is
  better by more than the wider spread;
* ``same``: none of these.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over the untraced runs in ``path``."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        for name, m in rec["metrics"].items():
            runs[rec["workload"]][name].append(m["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def metrics_spec() -> list[dict]:
    return json.loads(BENCHMARK.read_text())["end_to_end"]


def verdict(spec: dict, base: list[float], new: list[float]) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    mb, mn = quartiles(base)[1], quartiles(new)[1]
    if not mb:  # a bound is a share of the base median
        return "same" if mn == mb else "unresolved"
    worse = sign * (mn - mb) / abs(mb)
    wide = max(spread(base), spread(new))
    if max(sign * x for x in new) < min(sign * x for x in base):  # every new run beats every base run
        return "better"
    if worse > spec["bound"]:
        return "worse"
    if wide > spec["bound"]:
        return "unresolved"
    if -worse > wide:
        return "better"
    return "same"


def compare(base_path, new_path) -> None:
    base, new = load(base_path), load(new_path)
    for workload in sorted(set(base) | set(new)):
        print(f"{workload}:")
        for spec in metrics_spec():
            b, n = base.get(workload, {}).get(spec["name"]), new.get(workload, {}).get(spec["name"])
            if not b or not n:
                print(f"  {spec['name']:<14} missing on one side")
                continue
            bq, nq = quartiles(b), quartiles(n)
            print(f"  {spec['name']:<14} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                  f"spread {spread(b):.3f} n={len(b)}  "
                  f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] spread {spread(n):.3f} n={len(n)}  "
                  f"bound {spec['bound']}: {verdict(spec, b, n)}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2:
        compare(*argv)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
