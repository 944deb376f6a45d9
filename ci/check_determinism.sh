#!/usr/bin/env bash
# Determinism lint: grep-level gate banning constructs that make simulated
# runs (and therefore gsan hazard reports, golden traces and bench
# bit-identity checks) depend on wall-clock time, ambient entropy or
# allocator addresses.
#
#   ci/check_determinism.sh
#
# Scope: src/, bench/ and examples/. Timing for REPORTING is fine
# everywhere (common/timer.hpp wraps steady_clock); what is banned is
# anything that lets wall-clock time, ambient entropy or allocator
# addresses leak into simulated results — bench tables and example output
# are bit-compared across runs just like library traces. Tests stay out
# of scope (gtest itself seeds from the clock under --gtest_shuffle).
#
# Banned:
#   * std::chrono::system_clock       wall clock; steady_clock is fine for
#                                     host-side profiling but never feeds
#                                     simulated time, which is virtual
#   * time(, ctime(, gmtime(, localtime(, gettimeofday(
#                                     C wall-clock APIs
#   * rand(, srand(, random_device   ambient entropy; all randomness must
#                                     flow from an explicit seed
#                                     (common/rng.hpp Xoshiro256)
#   * iterating containers keyed by pointers
#                                     iteration order = allocation order;
#                                     any report or trace built that way
#                                     breaks run-to-run stability
#   * std::thread, std::jthread, std::async, pthread_create, #pragma omp
#                                     the program runs on one host thread:
#                                     bit-identical reruns and gsan's
#                                     canonical warp-task order assume it,
#                                     and the CPU comparators' work
#                                     counters would vary with thread
#                                     timing
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

fail=0
files=$(find src bench examples -name '*.hpp' -o -name '*.cpp' | sort)

# scan LABEL REGEX — grep each file with // comments stripped (prose like
# "at upload time (cudaMemset)" must not trip the call patterns), printing
# file:line hits. Sets fail=1 when anything matches.
scan() {
  local label="$1" regex="$2" hits="" f
  for f in $files; do
    local found
    found=$(sed 's@//.*@@' "$f" | grep -nE "$regex" | sed "s@^@$f:@" || true)
    [ -n "$found" ] && hits="$hits$found"$'\n'
  done
  if [ -n "$hits" ]; then
    echo "determinism lint: $label" >&2
    printf '%s' "$hits" >&2
    echo >&2
    fail=1
  fi
}

# 1. Wall-clock time. \b guards keep identifiers like elapsed_time_ms legal.
scan "wall-clock time source (simulated time is virtual; use the sim clocks)" \
     'std::chrono::system_clock|\b(time|ctime|gmtime|localtime|gettimeofday)\s*\('

# 2. Ambient entropy. Seeded Xoshiro256 (common/rng.hpp) is the only
# sanctioned randomness; rand()/srand()/std::random_device draw from
# process-global or hardware state and break reproduce-from-seed.
scan "ambient entropy (derive randomness from an explicit seed via common/rng.hpp)" \
     '\b(rand|srand)\s*\(|random_device'

# 3. Pointer-keyed container iteration. A map or set keyed by a pointer
# type iterates in address order — allocator-dependent, different every
# run under ASLR. Matches the key type position of map/set/unordered_map/
# unordered_set declarations.
scan "pointer-keyed container (iteration order follows allocation; key by a stable id instead)" \
     '(std::)?(unordered_)?(map|set)\s*<[^,>]*\*\s*[,>]'

# 4. Thread creation. Everything runs on one host thread, so no race
# checker is needed and reruns repeat every count, including the CPU
# comparators' work counters (PQ-Delta*'s differed run to run while it
# relaxed its batches on OpenMP threads).
scan "thread creation (the program runs on one host thread)" \
     'std::(thread|jthread|async)\b|\bpthread_create\s*\(|#\s*pragma\s+omp\b'

if [ "$fail" -ne 0 ]; then
  echo "determinism lint FAILED — see docs/sanitizer.md, 'Determinism'." >&2
  exit 1
fi
echo "determinism lint: clean ($(echo "$files" | wc -l) files)"
