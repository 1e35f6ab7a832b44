#!/usr/bin/env python3
"""Print per-metric deltas between committed perf-trajectory files.

    python3 bench/bench_compare.py                 # every file, in PR order
    python3 bench/bench_compare.py OLD.json NEW.json

A trajectory file (bench/trajectory/BENCH_<pr>.json) holds one change's
perfbench medians: for each workload, each metric's unit and its median
on the parent commit and on the change, plus the host the runs were made
on.  With two files the script prints, per workload and metric, the
change median of OLD against the change median of NEW.  With no
arguments it reads every file in bench/trajectory, prints each file's own
parent -> change deltas, then the deltas from each file to the next.

Medians measured in different PRs ran on a shared host at different
times, so a file-to-file delta is a trend, not a measurement; the
parent -> change rows of one file are the paired comparison.

Exit status 0 when every file parses and has the expected fields, 1
otherwise.
"""
import json
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent / "trajectory"


class Malformed(Exception):
    pass


def load(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise Malformed(f"{path}: {e}") from e
    if not isinstance(doc.get("pr"), int):
        raise Malformed(f"{path}: 'pr' must be an integer")
    if not isinstance(doc.get("host"), dict):
        raise Malformed(f"{path}: 'host' must be an object")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise Malformed(f"{path}: 'workloads' must be a non-empty object")
    for wname, w in workloads.items():
        metrics = w.get("metrics") if isinstance(w, dict) else None
        if not isinstance(metrics, dict) or not metrics:
            raise Malformed(f"{path}: workload {wname} has no metrics")
        for mname, m in metrics.items():
            if not isinstance(m, dict) or not isinstance(m.get("unit"), str):
                raise Malformed(f"{path}: {wname}.{mname} needs a unit")
            for side in ("parent", "change"):
                if not isinstance(m.get(side), (int, float)):
                    raise Malformed(
                        f"{path}: {wname}.{mname} needs a numeric '{side}'")
    return doc


def delta(old, new):
    if old == 0:
        return "n/a" if new != 0 else "+0.0%"
    return f"{100.0 * (new - old) / old:+.1f}%"


def rows(a_workloads, a_side, b_workloads, b_side):
    for wname in sorted(set(a_workloads) & set(b_workloads)):
        a_metrics = a_workloads[wname]["metrics"]
        b_metrics = b_workloads[wname]["metrics"]
        for mname in sorted(set(a_metrics) & set(b_metrics)):
            old = a_metrics[mname][a_side]
            new = b_metrics[mname][b_side]
            unit = b_metrics[mname]["unit"]
            yield (f"  {wname:<10} {mname:<26} {old:>12.6g} -> {new:<12.6g}"
                   f" {unit:<6} {delta(old, new):>8}")


def within(doc):
    print(f"PR {doc['pr']}: parent -> change medians")
    for line in rows(doc["workloads"], "parent", doc["workloads"], "change"):
        print(line)


def across(a, b):
    print(f"PR {a['pr']} -> PR {b['pr']}: change medians")
    for line in rows(a["workloads"], "change", b["workloads"], "change"):
        print(line)


def main(argv):
    try:
        if len(argv) == 2:
            across(load(argv[0]), load(argv[1]))
            return 0
        if argv:
            print(__doc__, file=sys.stderr)
            return 1
        docs = sorted((load(p) for p in TRAJECTORY.glob("BENCH_*.json")),
                      key=lambda d: d["pr"])
        if not docs:
            raise Malformed(f"no BENCH_*.json in {TRAJECTORY}")
        for doc in docs:
            within(doc)
        for a, b in zip(docs, docs[1:]):
            across(a, b)
    except Malformed as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
