#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 benchmark/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ...

Each argument is a result file written by benchmark/run.py (or a directory
of them, taken in name order, which is time order). Run i of the parent is
paired with run i of the change; alternate which side runs first, and give
both sides the same seeds and --seconds. At least 5 pairs are required; 10
or more are needed before a gain can be claimed.

Per workload and metric it prints each side's median and quartiles, the
change's win fraction (ties count for neither side) and, for the end-to-end
metrics, a verdict from the bounds in BENCHMARK.json:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's inter-quartile range
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own spread is wider than the bound, and not every
              change run beats every parent run
  no-worse    otherwise

Per-layer metrics get no verdict; a "moved" flag marks any whose medians
differ. Runs whose workload fingerprints differ within a pair are refused:
they did not measure the same inputs.

Exit status: 0, 1 when any metric regressed, 2 when the runs are refused.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 5
GAIN_PAIRS = 10


def load_runs(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(os.path.join(path, f) for f in os.listdir(path)
                            if f.startswith("run-") and f.endswith(".json"))
        else:
            files.append(path)
    runs = []
    for path in files:
        with open(path) as f:
            runs.append(json.load(f)["workloads"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Judges one end-to-end metric; `bound` is a share of the parent's
    median."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if len(parent) >= GAIN_PAIRS and wins >= 0.9 * len(parent) and \
            abs(cm - pm) > p3 - p1 and sign * (cm - pm) > 0:
        return "improved"
    if sign * (cm - pm) < -bound * abs(pm):
        return "regressed"
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if spread > bound and not all(sign * (c - p) > 0
                                  for c in change for p in parent):
        return "unresolved"
    return "no-worse"


def main():
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark runs.")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    parent, change = load_runs(opts.parent), load_runs(opts.change)
    if len(parent) != len(change) or len(parent) < MIN_PAIRS:
        print(f"compare.py: need equal run counts of at least {MIN_PAIRS} "
              f"(parent {len(parent)}, change {len(change)})",
              file=sys.stderr)
        sys.exit(2)

    regressed = False
    workloads = [w for w in parent[0] if all(w in r for r in parent + change)]
    for name in workloads:
        for i, (p, c) in enumerate(zip(parent, change)):
            for key in ("graph_fingerprint", "input_fingerprint"):
                if p[name][key] != c[name][key]:
                    print(f"compare.py: refused: pair {i} of {name} has "
                          f"{key} {p[name][key]} vs {c[name][key]}",
                          file=sys.stderr)
                    sys.exit(2)
        print(f"== {name} ({len(parent)} pairs)")
        print(f"  {'metric':36s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'wins':>5s}  verdict")
        for kind in ("end_to_end", "per_layer"):
            metrics = [m for m in parent[0][name][kind] if m in better and
                       all(m in r[name][kind] for r in parent + change)]
            for metric in metrics:
                pv = [r[name][kind][metric]["value"] for r in parent]
                cv = [r[name][kind][metric]["value"] for r in change]
                if metric not in e2e and not any(pv + cv):
                    continue  # a layer this workload bypasses
                if metric in e2e:
                    result = verdict(pv, cv, better[metric],
                                     e2e[metric]["bound"])
                    regressed |= result == "regressed"
                else:
                    result = ("moved" if statistics.median(pv) !=
                              statistics.median(cv) else "")
                sign = 1 if better[metric] == "higher" else -1
                wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) > 0)
                fmt = "{:.4g}/{:.4g}/{:.4g}"
                print(f"  {metric:36s} {fmt.format(*quartiles(pv)):>32s} "
                      f"{fmt.format(*quartiles(cv)):>32s} "
                      f"{wins / len(pv):5.2f}  {result}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
