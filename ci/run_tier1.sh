#!/usr/bin/env bash
# Tier-1 gate: build + full ctest in both replay configurations, then a
# ThreadSanitizer pass over the parallel-determinism test.
#
#   ci/run_tier1.sh [--asan] [build-root]
#
# Configurations (default run):
#   parallel  -DRDBS_PARALLEL=ON   (default build; OpenMP replay workers)
#   serial    -DRDBS_PARALLEL=OFF  (no OpenMP dependency)
#   tsan      -DRDBS_PARALLEL=ON -fsanitize=thread, runs only
#             test_gpusim_parallel (the suite that exercises the replay
#             workers) — a data race between L1 shards would surface here —
#             plus test_query_batch (batch determinism across concurrent
#             streams with multi-threaded replay), test_fault_injection
#             (gfi chaos sweep: fault bookkeeping must stay race-free when
#             faulted launches replay on multiple workers),
#             test_query_server (serving determinism sweeps: deadlines,
#             admission, breakers over sim_threads {1,8} x streams {1,4}),
#             test_result_cache (result-cache hits, single-flight joins
#             and warm starts interleaved with parallel replay)
#             and test_streaming_soak (10k-query streaming schedule on
#             k-n18: the continuous dispatcher's pending-queue/breaker/
#             aging bookkeeping interleaved with parallel replay).
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
  run_config asan -DRDBS_PARALLEL=ON -DRDBS_ASAN=ON
  echo "tier-1 (asan): passed"
  exit 0
fi

run_config parallel -DRDBS_PARALLEL=ON

echo "=== [parallel] replay-throughput regression guard ==="
# Two micro workloads (streaming loads, atomic hammer) on V100: the fused
# pipeline (--par-threads 4 workers for any launch that goes two-pass)
# must stay bit-identical to the two-pass baseline (compressed trace
# materialized, then replayed on 1 worker) and at least match its
# wall-clock (--min-speedup 1.0; the CI host is a single shared core, so
# no parallel-replay headroom is assumed beyond parity). A divergence
# between the two paths, or a fused-path slowdown, shows up here before
# it reaches the nightly full bench.
"$BUILD_ROOT/parallel/bench/gpusim_throughput" --quick --par-threads 4 \
  --min-speedup 1.0 --reps 3 --json /dev/null

echo "=== [parallel] result-cache latency guard ==="
# The cache sweep alone (hot-Zipf schedule, cache on vs off): exact hits
# must be oracle-exact and bit-identical across sim_threads, and the
# cache-hit p50 sojourn must beat the cold p50 — a cache that stops
# hitting, or hits slower than solving, fails the gate here before it
# reaches the nightly full bench.
"$BUILD_ROOT/parallel/bench/server_tail_latency" --cache --json /dev/null

echo "=== [parallel] fault-injection CLI smoke ==="
# The full recovery path end to end through the CLI: deterministic faults,
# checkpoint-resume inside retries, mid-query lane migration, and a
# closed-loop client on a streamed batch. Guards the flag plumbing
# (sssp_tool is how the docs tell people to reproduce fault runs) and
# exits non-zero if the served stream violates its own invariants.
"$BUILD_ROOT/parallel/examples/sssp_tool" --dataset=k-n12-8 --batch \
  --batch-streams=4 --checkpoint-interval=2 --retry-attempts=2 \
  --serve-stream=poisson:n=200,rate=2,deadlines=2/8/-,seed=7 \
  --closed-loop=budget=2,backoff=0.5,depth=8 \
  --inject-faults=seed=7,launch=0.3,max=50 > /dev/null

echo "=== [parallel] t=0 serve CLI smoke ==="
# The batch served as a schedule whose arrivals are all at t=0: a tight
# --deadline-ms under faults makes EDF order, predicted-miss shedding and
# cooperative cancellation all act on one run_stream() call. The tool
# exits 1 if any served answer fails validate_distances.
"$BUILD_ROOT/parallel/examples/sssp_tool" --dataset=k-n12-8 --batch \
  --sources=16 --batch-streams=4 --serve --deadline-ms=0.5 \
  --inject-faults=seed=7,launch=0.2,max=50 > /dev/null

echo "=== [parallel] gsan CLI smoke ==="
# The engines' device-queue protocols under the sanitizer, through the same
# code paths users run: hn07, sep-hybrid, adds and rdbs single-query runs,
# then adds lanes sharing one simulator. The tool exits 3 on any hazard
# (race, uninitialized read, no-progress spin, ...).
"$BUILD_ROOT/parallel/examples/sssp_tool" --dataset=k-n12-8 --algorithm=all \
  --sanitize > /dev/null
"$BUILD_ROOT/parallel/examples/sssp_tool" --dataset=k-n12-8 --batch \
  --algorithm=adds --batch-streams=4 --sources=8 --sanitize > /dev/null

run_config serial -DRDBS_PARALLEL=OFF

echo "=== [tsan] configure ==="
TSAN_DIR="$BUILD_ROOT/tsan"
cmake -S "$ROOT" -B "$TSAN_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRDBS_PARALLEL=ON -DRDBS_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target test_gpusim_parallel test_query_batch test_fault_injection \
           test_query_server test_result_cache test_streaming_soak
echo "=== [tsan] test_gpusim_parallel ==="
# The two Kronecker engine tests simulate millions of warp tasks and take
# tens of minutes under TSan instrumentation; the road-graph engine tests
# and the direct-simulator tests drive the same parallel replay path.
"$TSAN_DIR/tests/test_gpusim_parallel" --gtest_filter='-*Kron*'
echo "=== [tsan] test_query_batch ==="
# Batch determinism with sim_threads=8 over concurrent streams: races
# between replay workers and the per-stream accounting would surface here.
"$TSAN_DIR/tests/test_query_batch"
echo "=== [tsan] test_fault_injection ==="
# The chaos sweep retries faulted launches whose traces then replay on the
# worker pool; the fault log, poison bookkeeping and recovery accounting
# must stay race-free (and bit-identical — the sweep asserts that too).
"$TSAN_DIR/tests/test_fault_injection"
echo "=== [tsan] test_query_server ==="
# The serving layer's determinism sweep runs the same batch across
# sim_threads {1,8} x streams {1,4}: a race between the admission/breaker
# bookkeeping and the replay workers would break bit-identity here.
"$TSAN_DIR/tests/test_query_server"
echo "=== [tsan] test_result_cache ==="
# Cache hits are served host-side while misses replay on the worker pool;
# single-flight joins and warm-start seeding hand cached vectors to lanes
# that are busy replaying — exactly the sharing TSan should watch.
"$TSAN_DIR/tests/test_result_cache"
echo "=== [tsan] test_streaming_soak ==="
# The streaming soak pushes 10k timed queries through run_stream() while
# the replay pool is live: the golden aggregate doubles as a determinism
# check, and TSan watches the host-serial dispatcher's hand-offs to the
# parallel replay workers.
"$TSAN_DIR/tests/test_streaming_soak"

echo "tier-1: all configurations passed"
