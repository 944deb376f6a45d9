#!/usr/bin/env python3
"""Check that a regenerated BENCH_gpusim.json simulates what the committed
one does, and optionally splice the regeneration into it.

    ci/compare_bench_gpusim.py [--splice] COMMITTED.json REGENERATED.json

Rows are matched by (device, workload). For every row of REGENERATED, the
simulated columns (simulated_ms, warp_instructions, trace_bytes,
bit_identical) must equal COMMITTED's; only the wall-clock columns may
move. A row missing from either file is an error, except that
REGENERATED may omit rows (a run without --scale21 has no capacity row).
Exit status 0 when every column agrees, 1 otherwise.

With --splice, and only when every column agrees, COMMITTED is rewritten in
place: REGENERATED's header (the lines before "rows"), then in COMMITTED's
row order REGENERATED's line for each row it has and COMMITTED's line for
each row it lacks. bench/gpusim_throughput writes one row per line and only
the rows it ran, so a regeneration without --scale21 keeps the committed
SCALE-21 row, and a row it did not rerun keeps its bytes.
"""
import json
import sys

SIMULATED = ["simulated_ms", "warp_instructions", "trace_bytes",
             "bit_identical"]


def row_key(row):
    return (row["device"], row["workload"])


def rows_by_key(path):
    with open(path) as f:
        return {row_key(r): r for r in json.load(f)["rows"]}


def split_lines(path):
    """The header lines, the row lines (trailing commas dropped) and the
    footer lines of a report."""
    with open(path) as f:
        lines = f.read().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.strip() == '"rows": [') + 1
    end = next(i for i in range(start, len(lines)) if lines[i].strip() == "]")
    rows = [line.rstrip().rstrip(",") for line in lines[start:end]]
    return lines[:start], rows, lines[end:]


def splice(committed_path, regenerated_path):
    _, old_rows, _ = split_lines(committed_path)
    header, new_rows, footer = split_lines(regenerated_path)
    fresh = {row_key(json.loads(line)): line for line in new_rows}
    rows = [fresh.get(row_key(json.loads(line)), line) for line in old_rows]
    body = [line + "," for line in rows[:-1]] + rows[-1:]
    text = "\n".join(header + body + footer) + "\n"
    json.loads(text)  # the splice is still one JSON document
    with open(committed_path, "w") as f:
        f.write(text)
    print(f"spliced {len(fresh)} of {len(rows)} rows into {committed_path}")


def main():
    args = sys.argv[1:]
    do_splice = "--splice" in args
    args = [a for a in args if a != "--splice"]
    if len(args) != 2:
        sys.exit(__doc__.strip().split("\n\n")[1])
    committed = rows_by_key(args[0])
    regenerated = rows_by_key(args[1])
    problems = []
    for key, row in regenerated.items():
        if key not in committed:
            problems.append(f"{key}: not in {args[0]}")
            continue
        for column in SIMULATED:
            old = committed[key].get(column)
            new = row.get(column)
            if old != new:
                problems.append(f"{key} {column}: {old} -> {new}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(regenerated)} rows compared, {len(problems)} differences")
    if problems:
        sys.exit(1)
    if do_splice:
        splice(args[0], args[1])


if __name__ == "__main__":
    main()
