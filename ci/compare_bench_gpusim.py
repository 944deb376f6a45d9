#!/usr/bin/env python3
"""Check that a regenerated BENCH_gpusim.json simulates what the committed
one does.

    ci/compare_bench_gpusim.py COMMITTED.json REGENERATED.json

Rows are matched by (device, workload). For every row of REGENERATED, the
simulated columns (simulated_ms, warp_instructions, trace_bytes,
bit_identical) must equal COMMITTED's; only the wall-clock columns may
move. A row missing from either file is an error, except that
REGENERATED may omit rows (a run without --scale21 has no capacity row).
Exit status 0 when every column agrees, 1 otherwise.
"""
import json
import sys

SIMULATED = ["simulated_ms", "warp_instructions", "trace_bytes",
             "bit_identical"]


def rows_by_key(path):
    with open(path) as f:
        return {(r["device"], r["workload"]): r for r in json.load(f)["rows"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().split("\n\n")[1])
    committed = rows_by_key(sys.argv[1])
    regenerated = rows_by_key(sys.argv[2])
    problems = []
    for key, row in regenerated.items():
        if key not in committed:
            problems.append(f"{key}: not in {sys.argv[1]}")
            continue
        for column in SIMULATED:
            old = committed[key].get(column)
            new = row.get(column)
            if old != new:
                problems.append(f"{key} {column}: {old} -> {new}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(regenerated)} rows compared, {len(problems)} differences")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
