// Result of a GPU-simulated SSSP run: distances plus the cost model's view
// of the execution (simulated milliseconds, nvprof-style counters, and the
// per-bucket trace the paper's figures are built from).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/counters.hpp"
#include "gpusim/fault.hpp"
#include "sssp/result.hpp"

namespace rdbs::core {

// Fault-recovery bookkeeping for one run (all zero when fault injection is
// off, except the checkpoint counts): what was injected, how the engine
// recovered, and whether the distances ultimately came from the GPU path
// or the CPU fallback.
struct RecoveryStats {
  std::uint64_t faults_injected = 0;  // events observed across all attempts
  std::uint64_t ecc_corrected = 0;    // benign subset (no retry needed)
  std::uint64_t retries = 0;          // discarded attempts that were rerun
  std::uint64_t resumed = 0;          // retries seeded from a checkpoint
  std::uint64_t cpu_fallbacks = 0;    // 1 when Dijkstra produced the result
  std::uint64_t attempts = 0;         // device attempts actually run
  double backoff_ms = 0;              // simulated backoff charged (retries)
  bool device_lost = false;           // device was lost during the run
  // Checkpoint snapshots whose asynchronous D2H had landed when a boundary,
  // a retry or a failed run needed them, and so became the checkpoint
  // (core/recovery.hpp), and those dropped uncommitted: their copy was
  // still in flight then, or a device loss caught them. A copy still in
  // flight when the run succeeds is in neither count.
  std::uint64_t checkpoints_landed = 0;
  std::uint64_t checkpoints_voided = 0;

  // Accumulates another run's bookkeeping (counts and backoff add,
  // device_lost ORs): how per-query stats roll up into batch and serving
  // totals, and how a migrated query folds in its failed first attempt.
  RecoveryStats& operator+=(const RecoveryStats& other) {
    faults_injected += other.faults_injected;
    ecc_corrected += other.ecc_corrected;
    retries += other.retries;
    resumed += other.resumed;
    cpu_fallbacks += other.cpu_fallbacks;
    attempts += other.attempts;
    backoff_ms += other.backoff_ms;
    device_lost = device_lost || other.device_lost;
    checkpoints_landed += other.checkpoints_landed;
    checkpoints_voided += other.checkpoints_voided;
    return *this;
  }
};

struct BucketStats {
  double delta = 0;                   // Δ_i used for this bucket
  double low = 0, high = 0;           // distance interval [low, high)
  std::uint64_t initial_active = 0;   // frontier handed over by phase 3
  std::uint64_t converged = 0;        // C_i: vertices settled in this bucket
  std::uint64_t threads_used = 0;     // T_i: lanes activated in phase 1
  std::uint64_t phase1_iterations = 0;
  std::uint64_t phase1_updates = 0;
  double phase1_ms = 0;               // simulated time in phase 1
  double phase23_ms = 0;              // simulated time in phases 2&3
  // ADWL workload-list classification counts (paper Fig. 5): how many
  // active-vertex processings fell into each granularity class.
  std::uint64_t small_workload = 0;   // < beta light edges: parent inline
  std::uint64_t medium_workload = 0;  // [beta, alpha): warp-granularity child
  std::uint64_t large_workload = 0;   // >= alpha: block-granularity child(s)
};

struct GpuRunResult {
  sssp::SsspResult sssp;
  double device_ms = 0;               // simulated kernel time
  // Time this run's kernels spent queued behind the device's concurrent-
  // kernel cap (always 0 for a single query on its own simulator; nonzero
  // only when sharing the device with other streams in a batch).
  double queue_wait_ms = 0;
  gpusim::Counters counters;          // profiling deltas for this run
  std::vector<BucketStats> buckets;   // per-bucket trace (if instrumented)
  // gsan hazard report accumulated on the engine's simulator (empty when
  // clean or when the sanitizer is off; see docs/sanitizer.md).
  std::string sanitizer_report;

  // --- fault injection / recovery (gfi; docs/fault_injection.md) -----------
  // False iff recovery was exhausted with cpu_fallback disabled: the
  // distances are then meaningless and `faults` explains why. True in every
  // other case — including after retries or a CPU fallback — and the
  // distances are exact.
  bool ok = true;
  std::vector<gpusim::GpuFault> faults;  // typed faults across all attempts
  RecoveryStats recovery;
  // True when cooperative cancellation fired: the query's CancelToken
  // expired mid-run, the engine stopped at its next cancellation point, and
  // no distances were produced (metrics cover the partial work). Always
  // false without a serving-layer deadline (docs/serving.md).
  bool deadline_exceeded = false;

  double gteps(std::uint64_t edges_traversed_basis) const {
    return device_ms <= 0 ? 0.0
                          : static_cast<double>(edges_traversed_basis) /
                                (device_ms * 1e6);
  }

  // Aggregate phase breakdown over the recorded buckets.
  double total_phase1_ms() const {
    double total = 0;
    for (const BucketStats& bs : buckets) total += bs.phase1_ms;
    return total;
  }
  double total_phase23_ms() const {
    double total = 0;
    for (const BucketStats& bs : buckets) total += bs.phase23_ms;
    return total;
  }
};

}  // namespace rdbs::core
