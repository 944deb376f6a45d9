#!/usr/bin/env bash
# Tier-1 gate: build + full ctest in two configurations, plus the bench
# and CLI checks below.
#
#   ci/run_tier1.sh [--asan] [build-root]
#
# Configurations (default run):
#   default    the default build
#   no-bench   -DRDBS_ENABLE_BENCH=OFF: the tests build without the bench
#              harness (test_bucket_queue still links rdbs_bench_support)
#
# There is no ThreadSanitizer stage: the program starts no thread
# (ci/check_determinism.sh keeps it so).
#
# With --asan, runs ONLY the asan configuration: -DRDBS_ASAN=ON
# (AddressSanitizer + UBSan, -fno-sanitize-recover=all) with the full
# ctest suite. CI runs it as its own job (analysis-asan) so the memory
# gate fails independently of the functional gate.
#
# All configurations build with -DRDBS_WERROR=ON (-Wall -Wextra -Wshadow
# -Werror): a new warning anywhere in the tree fails the gate.
#
# Environment:
#   RDBS_FUZZ_ITERS  differential-fuzz case count (default 50 in the test;
#                    the nightly workflow raises it — see
#                    .github/workflows/ci.yml). Exported to ctest, so it
#                    applies wherever test_fuzz_differential runs.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

ASAN_ONLY=0
if [[ "${1:-}" == "--asan" ]]; then
  ASAN_ONLY=1
  shift
fi

BUILD_ROOT="${1:-$ROOT/build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run_config() {
  local name="$1"; shift
  local dir="$BUILD_ROOT/$name"
  echo "=== [$name] configure: $* ==="
  cmake -S "$ROOT" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRDBS_WERROR=ON "$@"
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

if [[ "$ASAN_ONLY" == 1 ]]; then
  # halt_on_error is the default with -fno-sanitize-recover=all; the
  # detect_* knobs widen coverage beyond the defaults.
  export ASAN_OPTIONS="detect_stack_use_after_return=1:strict_string_checks=1"
  export UBSAN_OPTIONS="print_stacktrace=1"
  run_config asan -DRDBS_ASAN=ON
  echo "tier-1 (asan): passed"
  exit 0
fi

run_config default

echo "=== [default] gsan overhead guard ==="
# The three micro workloads on V100, each run with gsan off and on: the
# runs must simulate bit-identical results, and gsan's CPU time may not
# exceed GSAN_OVERHEAD_BOUND times the gsan-off run's (median of 5). The
# bound sits well above the spread measured over repeated runs
# (EXPERIMENTS.md, gpusim_throughput), so it trips on a sanitizer check
# that got slower, not on host noise.
GSAN_OVERHEAD_BOUND=12
"$BUILD_ROOT/default/bench/gpusim_throughput" --quick --reps 5 \
  --max-gsan-overhead "$GSAN_OVERHEAD_BOUND" --json /dev/null

SERVER_JSON="$(mktemp)"
BATCH_JSON="$(mktemp)"
trap 'rm -f "$SERVER_JSON" "$BATCH_JSON"' EXIT

echo "=== [default] BENCH_server.json is current ==="
# The full serving sweep (deadlines, fault routing, streaming, the result
# cache, the fault storm) through every QueryBatch lane. Its exit status
# carries all of the bench's gates, the result-cache ones among them: exact
# hits must be oracle-exact and bit-identical across two runs, the
# cache-hit p50 sojourn must beat the cold p50, and with a hot set 16x the
# cache the hit fraction must beat an offline LRU's. Its numbers are all
# simulated, so the committed table must regenerate byte for byte for any
# build type and host; a diff means a change moved them without
# regenerating the file (bench/server_tail_latency writes it).
"$BUILD_ROOT/default/bench/server_tail_latency" --json "$SERVER_JSON" \
  > /dev/null
cmp "$SERVER_JSON" "$ROOT/BENCH_server.json"

echo "=== [default] BENCH_batch.json is current ==="
# The committed batch table must be what the code produces. Its numbers are
# all simulated, so a regeneration gives the same bytes for any build type
# and host; a diff means a change moved them without regenerating the file
# (bench/batch_throughput writes it).
"$BUILD_ROOT/default/bench/batch_throughput" --json "$BATCH_JSON" > /dev/null
cmp "$BATCH_JSON" "$ROOT/BENCH_batch.json"

echo "=== [default] fault-injection CLI smoke ==="
# The full recovery path end to end through the CLI: deterministic faults,
# checkpoint-resume inside retries, mid-query lane migration, and a
# closed-loop client on a streamed batch. Guards the flag plumbing
# (sssp_tool is how the docs tell people to reproduce fault runs) and
# exits non-zero if the served stream violates its own invariants.
"$BUILD_ROOT/default/examples/sssp_tool" --dataset=k-n12-8 --batch \
  --batch-streams=4 --checkpoint-interval=2 --retry-attempts=2 \
  --serve-stream=poisson:n=200,rate=2,deadlines=2/8/-,seed=7 \
  --closed-loop=budget=2,backoff=0.5,depth=8 \
  --inject-faults=seed=7,launch=0.3,max=50 > /dev/null

echo "=== [default] t=0 serve CLI smoke ==="
# The batch served as a schedule whose arrivals are all at t=0: a tight
# --deadline-ms under faults makes EDF order, predicted-miss shedding and
# cooperative cancellation all act on one run_stream() call. The tool
# exits 1 if any served answer fails validate_distances.
"$BUILD_ROOT/default/examples/sssp_tool" --dataset=k-n12-8 --batch \
  --sources=16 --batch-streams=4 --deadline-ms=0.5 \
  --inject-faults=seed=7,launch=0.2,max=50 > /dev/null

echo "=== [default] gsan CLI smoke ==="
# The engines' device-queue protocols under the sanitizer, through the same
# code paths users run: single-query runs of all seven registered GPU
# engines (core/engine.hpp), then adds lanes sharing one simulator. The
# tool exits 3 on any hazard (race, uninitialized read, no-progress
# spin, ...).
"$BUILD_ROOT/default/examples/sssp_tool" --dataset=k-n12-8 --algorithm=all \
  --sanitize > /dev/null
"$BUILD_ROOT/default/examples/sssp_tool" --dataset=k-n12-8 --batch \
  --algorithm=adds --batch-streams=4 --sources=8 --sanitize > /dev/null

run_config no-bench -DRDBS_ENABLE_BENCH=OFF

echo "tier-1: all configurations passed"
