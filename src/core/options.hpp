// Configuration shared by every GPU engine (EngineOptions) and of the GPU
// Δ-stepping engine. The three paper optimizations are independent switches
// so the Fig. 8 ablation (BL, BASYN+PRO, BASYN+ADWL, BASYN+PRO+ADWL) can be
// expressed directly.
#pragma once

#include "gpusim/fault.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/sim.hpp"
#include "graph/types.hpp"

namespace rdbs::core {

// Engine-layer recovery from injected (or, on real hardware, genuine)
// device faults; see docs/fault_injection.md. An attempt whose fault scan
// shows a poisoning event (uncorrectable flip, launch failure, timeout) is
// discarded and rerun from scratch — every engine fully re-initializes its
// device state per run, so a full-query restart is a clean retry. Backoff
// and re-uploads are charged to the *simulated* clock.
struct RetryPolicy {
  int max_attempts = 3;          // total attempts, including the first
  double backoff_ms = 0.05;      // delay before the first retry
  double backoff_multiplier = 2.0;  // exponential growth per retry
  // When attempts are exhausted (or the device is lost), fall back to the
  // host-side Dijkstra reference so callers still get correct distances.
  // When false, the result carries ok == false and the typed faults
  // instead — never silently wrong distances.
  //
  // Under a serving-layer deadline (core/cancel.hpp, docs/serving.md) the
  // deadline dominates this policy: an expired CancelToken ends recovery
  // immediately — no further retries, no backoff charge, and no CPU
  // fallback (which would only produce a late answer) — and the result
  // reports deadline_exceeded instead.
  bool cpu_fallback = true;
};

// The settings every GPU engine shares: what its simulator checks and how
// it recovers. Each engine's options struct derives from it
// (HN07, which has no other option, takes it directly), and the engine
// hands it to its AttemptDriver (core/recovery.hpp).
struct EngineOptions {
  // Ignored: nothing reads it. gpusim runs every launch on the calling
  // thread, so there is no worker count to set. Kept only because the
  // repository benchmark (benchmark/rdbs_benchmark.cpp) still assigns it.
  int sim_threads = 0;

  // gsan hazard analysis over every launch (docs/sanitizer.md). Off by
  // default; results are unchanged either way — sanitizing only observes.
  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff;

  // gfi deterministic fault injection (docs/fault_injection.md). Off by
  // default; when enabled the engine runs under `retry` and reports the
  // injected faults plus recovery counters in GpuRunResult.
  gpusim::FaultConfig fault;
  RetryPolicy retry;

  // Checkpoint-resume: snapshot the tentative distance vector into a
  // host-side QueryCheckpoint every N bucket/round boundaries (0 = off).
  // Only the engines whose kernels call AttemptDriver::snapshot_into() and
  // boundary() use it (rdbs, adds); the others ignore it. The kernel ending
  // at the boundary writes the snapshot on the device, and its D2H copy
  // overlaps the query's next kernels instead of stopping its stream clock;
  // the snapshot commits once the copy has landed, and a due boundary skips
  // its snapshot while the previous copy is in flight (core/recovery.hpp).
  // Snapshots stop for an attempt once a poisoning fault is seen, so a
  // corrupt bound can never leak into a resume. With a committed
  // checkpoint, retries seed from it instead of rerunning cold
  // (RecoveryStats::resumed) and the serving layer can migrate the query to
  // another lane mid-flight (core/checkpoint.hpp, docs/serving.md
  // "Checkpoint-resume & lane migration").
  int checkpoint_interval = 0;

  // Applies the settings to a simulator before its first launch. Only the
  // simulator's owner calls it: the AttemptDriver of an engine with an
  // owned simulator, and QueryBatch for its lanes' shared one. It only
  // ever switches things on.
  void configure(gpusim::GpuSim& sim) const {
    if (sanitize != gpusim::SanitizeMode::kOff) sim.enable_sanitizer(sanitize);
    if (fault.enabled) sim.enable_fault_injection(fault);
  }
};

enum class EngineMode {
  // Bucketed Δ-stepping (phases 1-3); the BASYN/PRO/ADWL flags apply.
  kBucketDelta,
  // The paper's baseline BL: synchronous push-mode SSSP — a frontier
  // Bellman-Ford with one kernel launch per iteration, static
  // thread-per-vertex balancing, no buckets. PRO/ADWL flags still apply
  // (they are off for the paper's BL configuration).
  kSyncPushBellmanFord,
};

struct GpuSsspOptions : EngineOptions {
  EngineMode mode = EngineMode::kBucketDelta;

  // --- the paper's three optimizations -----------------------------------
  // Bucket-aware asynchronous execution (§4.3): phase 1 runs as one
  // persistent kernel per bucket with immediately-visible updates, and the
  // bucket width is readjusted per bucket via Eq. (1)-(2).
  bool basyn = true;
  // Property-driven reordering (§4.1): requires the input CSR to be
  // weight-sorted with heavy offsets (reorder::property_driven_reorder);
  // phase 1 then touches only light edges and pays no per-edge branch.
  bool pro = true;
  // Adaptive load balancing (§4.2): classify active vertices into
  // small/medium/large workload lists and process them at thread/warp/block
  // granularity through dynamic parallelism; phases 2&3 are kernel-fused.
  bool adwl = true;

  // --- Δ-stepping parameters ----------------------------------------------
  graph::Weight delta0 = 100.0;  // initial bucket width Δ0 (=Δ1)
};

}  // namespace rdbs::core
