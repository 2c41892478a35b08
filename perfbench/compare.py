#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the standard output of one or more runs
of ``run.py``.  For every workload and metric, prints the median of each
side, the base side's spread (distance between quartiles over median)
and the ratio of the medians.  Refuses, with exit code 2, to compare
runs made on different machines, Python versions or kernel backends.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    reports = []
    with open(path) as f:
        for line in f:
            if line.startswith('{"report"'):
                reports.append(json.loads(line)["report"])
    if not reports:
        raise SystemExit(f"error: no benchmark reports in {path}")
    return reports


def by_metric(reports):
    out = defaultdict(list)
    for r in reports:
        for name, m in r["metrics"].items():
            out[(r["workload"], name, m["unit"])].append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(base_path, new_path):
    base, new = load(base_path), load(new_path)
    machines = {json.dumps(r["machine"], sort_keys=True) for r in base + new}
    if len(machines) != 1:
        print("error: refusing to compare runs from different machines or backends:",
              file=sys.stderr)
        for m in sorted(machines):
            print(f"  {m}", file=sys.stderr)
        return 2
    print(f"machine: {machines.pop()}")
    b, n = by_metric(base), by_metric(new)
    print(f"{'workload':16} {'metric':40} {'base':>12} {'new':>12} {'spread':>7} {'new/base':>8}")
    for key in sorted(b.keys() & n.keys()):
        workload, name, unit = key
        mb, mn = statistics.median(b[key]), statistics.median(n[key])
        ratio = mn / mb if mb else float("nan")
        print(f"{workload:16} {name + ' [' + unit + ']':40} {mb:12.6g} {mn:12.6g} "
              f"{spread(b[key]):7.3f} {ratio:8.3f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
