#!/usr/bin/env python3
"""Build the benchmark program and run workloads.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

With --workload, runs that one workload and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Without --workload, runs every workload and prints a
summary. Every run also writes a result file under build-benchmark/results/
(the input of benchmark/compare.py); a traced run writes a Chrome
trace-event JSON file next to it.

Exit status: 0 ok, 1 a build failure or a correctness, conservation or
determinism gate failed, 2 the workload's inputs no longer match the
fingerprints pinned in benchmark/fingerprints.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(BUILD, "rdbs_benchmark")
WORKLOADS = ["kron-solve", "road-solve", "serve-zipf", "serve-storm"]
FINGERPRINT_SEED = 42


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds rdbs_benchmark; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "rdbs_benchmark",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")


def run_benchmark(args):
    """Runs rdbs_benchmark, echoes its report, returns its last-line JSON."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    report, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail(f"rdbs_benchmark {' '.join(args)} exited {proc.returncode} "
             "without a result")
    if report:
        print(report)
    return proc.returncode, result


def check_fingerprints(result):
    """Exit 2 when the workload's graph (any seed) or inputs (seed 42)
    differ from the pinned fingerprints."""
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        pinned = json.load(f)
    name = result["workload"]
    problems = []
    if pinned["graph"].get(name) != result["graph_fingerprint"]:
        problems.append(f"graph {result['graph_fingerprint']} != pinned "
                        f"{pinned['graph'].get(name)}")
    if (result["seed"] == FINGERPRINT_SEED and
            pinned["inputs_seed42"].get(name) != result["input_fingerprint"]):
        problems.append(f"inputs {result['input_fingerprint']} != pinned "
                        f"{pinned['inputs_seed42'].get(name)}")
    if problems:
        fail(f"{name}: workload changed: " + "; ".join(problems) +
             " (a generator, the source picker or the traffic code moved; "
             "the benchmark no longer measures the same inputs)", code=2)


def run_workload(name, seed, seconds, trace):
    args = [f"--workload={name}", f"--seed={seed}", f"--seconds={seconds}"]
    trace_path = None
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        trace_path = os.path.join(RESULTS, f"{name}-s{seed}.trace.json")
        args.append(f"--trace={trace_path}")
    code, result = run_benchmark(args)
    check_fingerprints(result)
    result["exit_code"] = code
    if trace_path:
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    return result


def contract_line(result, trace):
    """The last stdout line: the metrics BENCHMARK.json lists, by kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    source = result["per_layer"] if trace else result["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = source[m["name"]]
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["violations"] == 0 and result["exit_code"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def write_results(results, seed):
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(RESULTS, f"run-{stamp}-s{seed}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump({"seed": seed, "workloads": results}, f, indent=1)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=0,
                        help="wall-time budget for repeated timed passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()

    build()
    names = [opts.workload] if opts.workload else WORKLOADS

    if opts.smoke:
        start = time.monotonic()
        bad = [n for n in names
               if run_benchmark([f"--workload={n}", f"--seed={opts.seed}",
                              "--smoke"])[0] != 0]
        print(f"smoke: {len(names) - len(bad)}/{len(names)} workloads "
              f"passed in {time.monotonic() - start:.1f} s")
        sys.exit(1 if bad else 0)

    results = {}
    for name in names:
        results[name] = run_workload(name, opts.seed, opts.seconds,
                                     opts.trace)
    path = write_results(results, opts.seed)
    print(f"results written to {os.path.relpath(path, ROOT)}")
    ok = all(r["exit_code"] == 0 for r in results.values())
    if opts.workload:
        print(json.dumps(contract_line(results[opts.workload], opts.trace)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
