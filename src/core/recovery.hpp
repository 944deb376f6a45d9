// Shared fault-recovery driver for the GPU engines (gfi; see
// docs/fault_injection.md).
//
// Every engine's attempt is *pure*: it fully re-initializes its mutable
// device state (distances, queues, cursors) before doing any work, so
// rerunning it from scratch is a clean recovery from any transient fault.
// AttemptDriver::run() wraps that attempt in the RetryPolicy loop:
//
//   1. snapshot the simulator's fault log, run the attempt;
//   2. scan the log tail: no poisoning event -> success (benign events —
//      ECC-corrected flips, stream stalls — are reported but need no
//      retry);
//   3. poisoned -> discard the attempt, charge the exponential backoff and
//      the re-upload of poisoned read-only buffers to the simulated clock,
//      and rerun — from the last committed checkpoint when there is one;
//   4. device lost or attempts exhausted -> fall back to the host Dijkstra
//      reference (policy.cpu_fallback) or return ok == false with the
//      typed faults. Never wrong distances, never a crash.
//
// Metrics accumulate across attempts: device_ms / queue_wait_ms / counters
// of the returned result cover every attempt plus backoff and re-upload
// charges, so recovery cost is visible in the timeline.
//
// The driver also owns the rest of the per-query engine contract, so an
// engine supplies only its kernels and loops: the fault-log watermark
// (poisoned()), cooperative cancellation (cancelled()), warm-start and
// one-shot resume bounds (warm_bounds(), apply_warm_start()), bucket/round
// checkpoints (snapshot_into(), boundary()) and the per-attempt metric
// deltas (finish()). An attempt body looks like:
//
//   GpuRunResult Engine::run_attempt(VertexId source) {
//     driver_.begin_attempt(dist_);
//     ... init kernels; driver_.apply_warm_start(dist_, source); ...
//     while (...) {
//       if (driver_.cancelled()) break;
//       ... one bucket/round; its last kernel, before finish(), calls
//           driver_.snapshot_into(kernel, dist_) ...
//       driver_.boundary(dist_);
//     }
//     GpuRunResult result;
//     result.sssp.work = work_;
//     return driver_.finish(std::move(result), dist_, source);
//   }
//   GpuRunResult Engine::run(VertexId source) {
//     return driver_.run(source, [&] { return run_attempt(source); });
//   }
//
// Checkpoints stay off the query's critical path. When a boundary is due a
// snapshot, the engine's kernel that ends at it also runs the snapshot
// warps, which copy the distances into the engine's `checkpoint` device
// buffer. boundary() then stages that snapshot and issues its D2H on the
// stream's copy queue (GpuSim::memcpy_d2h_async), which the stream clock
// does not wait for. The staged snapshot becomes the checkpoint only once
// its copy has landed on the stream clock at a point that needs it: a
// later boundary, a retry after its backoff, or the end of a failed run,
// where the serving layer takes it to migrate the query. A device loss
// voids an uncommitted snapshot. At most one copy is in flight per lane:
// a due boundary that finds one still in flight skips its snapshot.
//
// The driver also holds the engine's device (DeviceBinding): the simulator,
// the stream the engine issues on, and the resident CSR arrays.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/device_graph.hpp"
#include "core/options.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

// The device an engine runs on, in one of two forms:
//   * owned — a simulator of the engine's own, built from a DeviceSpec. The
//     driver configures it from the engine's options, uploads the CSR once
//     and resets the simulator at every attempt: each query is timed on a
//     cold device (the paper's single-query methodology).
//   * borrowed — one stream of a simulator someone else owns, plus the CSR
//     arrays that owner made resident (QueryBatch lanes). The driver never
//     configures, uploads or resets it: clocks, counters and caches carry
//     across queries and lanes.
// Either way the driver measures device_ms and queue_wait_ms on its own
// stream. A DeviceSpec converts implicitly, so Engine(device, csr, options)
// builds an engine with an owned simulator.
class DeviceBinding {
 public:
  DeviceBinding(gpusim::DeviceSpec device) : device_(std::move(device)) {}
  // `sim` and `graph` (uploaded from the engine's CSR) must outlive the
  // engine.
  DeviceBinding(gpusim::GpuSim& sim, gpusim::StreamId stream,
                const DeviceCsrBuffers& graph)
      : sim_(&sim), stream_(stream), graph_(&graph) {}

 private:
  friend class AttemptDriver;
  std::optional<gpusim::DeviceSpec> device_;  // set = owned
  gpusim::GpuSim* sim_ = nullptr;
  gpusim::StreamId stream_ = 0;
  const DeviceCsrBuffers* graph_ = nullptr;
};

class AttemptDriver {
 public:
  // Binds the engine to `device`; an owned simulator is built, configured
  // from `options` and given `csr` here. `csr` must outlive the driver.
  // `engine` names the engine in the out-of-range error. `options.retry` is
  // the recovery policy. `options.checkpoint_interval` > 0 snapshots the
  // distances every that many boundary() calls.
  AttemptDriver(std::string engine, DeviceBinding device,
                const graph::Csr& csr, const EngineOptions& options);
  // One driver per engine, holding its device: neither copied nor moved.
  AttemptDriver(const AttemptDriver&) = delete;
  AttemptDriver& operator=(const AttemptDriver&) = delete;

  // The bound device: the simulator, the stream every kernel of the engine
  // goes to, and the resident CSR arrays.
  gpusim::GpuSim& sim() { return sim_; }
  gpusim::StreamId stream() const { return stream_; }
  const DeviceCsrBuffers& graph() const { return *graph_; }

  // Runs `attempt` for `source` under the retry policy (see the header
  // comment). Throws std::out_of_range for an invalid source. Clears the
  // previous run's checkpoint first — a stale snapshot must never seed a
  // different query — and consumes the one-shot resume bounds.
  //
  // The deadline of the cancel token dominates the retry policy: an attempt
  // that returns deadline_exceeded is terminal (no retry, no CPU fallback —
  // a late answer is not an answer), and an expired token before a retry or
  // before the fallback likewise ends recovery with deadline_exceeded set.
  GpuRunResult run(graph::VertexId source,
                   const std::function<GpuRunResult()>& attempt);

  // --- per-query bindings (serving layer; docs/serving.md) ------------------
  // Cooperative cancellation: while set, cancelled() polls the token and
  // the attempt stops at its next cancellation point, returning a result
  // with deadline_exceeded set, partial metrics and NO distances. The token
  // must outlive the runs it governs; nullptr detaches.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  // Warm start: per-vertex upper bounds on the true distances (engine
  // numbering; kInfiniteDistance = no bound) for subsequent runs. Finite
  // bounds seed the tentative distances right after the init kernel, and
  // the covered vertices join the initial frontier window. The engines are
  // label-correcting, so any valid upper bound preserves exactness
  // (core/result_cache.hpp; docs/serving.md "Result cache"). nullptr
  // detaches. The array must outlive every run it seeds (retries re-apply
  // it).
  void set_warm_start(const std::vector<graph::Distance>* bounds) {
    warm_start_ = bounds;
  }
  // One-shot resume: the next run() seeds from `bounds` (engine numbering,
  // one entry per vertex) instead of the warm start — lane migration
  // continues a query that checkpointed on another lane. Cleared when that
  // run returns.
  void set_resume_bounds(std::vector<graph::Distance> bounds);
  // Moves out the last committed snapshot of the most recent run() (empty
  // when checkpointing is off or no snapshot's copy landed in time): the
  // serving layer's raw material for mid-query lane migration.
  QueryCheckpoint take_checkpoint() { return std::move(checkpoint_); }

  // --- the attempt body's side ---------------------------------------------
  // Starts an attempt: sets the fault-log watermark, clears the cancel
  // latch and the boundary counter, clears stale poison on `dist` (the
  // attempt re-initializes it), resets an owned simulator, and records the
  // metric baselines.
  void begin_attempt(const gpusim::Buffer<graph::Distance>& dist);
  // Whether the current attempt already took a poisoning fault — loop
  // invariants may legitimately break then, and the attempt aborts instead
  // of the process (recovery discards it anyway).
  bool poisoned() const;
  // Cancellation point: polls the token, latching the outcome so enclosing
  // loops unwind too; true once the attempt is over its deadline.
  bool cancelled();
  // The upper bounds seeding this attempt: the one-shot resume bounds when
  // set (they were produced by an attempt that had already absorbed the
  // warm start, so they are pointwise at least as tight), else the warm
  // start, else null.
  const std::vector<graph::Distance>* warm_bounds() const;
  // Writes warm_bounds() (if any) over the freshly initialized `dist`,
  // keeping the source's exact 0, and charges one H2D upload of the finite
  // bounds. Returns the number of vertices seeded. Exact because the
  // engines are label-correcting: relaxations only improve on a valid
  // upper bound, never trust it.
  std::uint64_t apply_warm_start(gpusim::Buffer<graph::Distance>& dist,
                                 graph::VertexId source);
  // Called by the kernel that ends at the next boundary(), after its own
  // warps: when that boundary is due a snapshot (snapshot_due()), appends
  // |V|/32 snapshot warps to `kernel`, each one load_range of `dist` and
  // one store into the engine's `checkpoint` device buffer. Otherwise adds
  // nothing.
  void snapshot_into(gpusim::KernelScope& kernel,
                     const gpusim::Buffer<graph::Distance>& dist);
  // Bucket/round boundary, where `dist` is a consistent set of upper
  // bounds. Commits a staged snapshot whose copy has landed, then stages
  // the snapshot the kernel just wrote and issues its asynchronous D2H —
  // unless the attempt or the buffer is poisoned: a corrupt bound could lie
  // below the true distance (core/checkpoint.hpp).
  void boundary(const gpusim::Buffer<graph::Distance>& dist);
  // Completes the attempt's result: the distances from `dist` (finalized
  // for `source`), or none and deadline_exceeded when cancelled; the
  // attempt's device_ms / queue_wait_ms deltas of the stream clock and its
  // counter deltas; the gsan report.
  GpuRunResult finish(GpuRunResult result,
                      const gpusim::Buffer<graph::Distance>& dist,
                      graph::VertexId source);

 private:
  // The recovery loop behind run().
  GpuRunResult recover(graph::VertexId source,
                       const std::function<GpuRunResult()>& attempt);
  // Whether the next boundary() is due a snapshot: checkpointing is on,
  // it is the checkpoint_interval-th boundary, the attempt is clean so far,
  // and the stream's D2H queue has drained (its last copy reads the
  // `checkpoint` buffer a new snapshot would overwrite).
  bool snapshot_due() const;
  // Makes the staged snapshot the checkpoint if its copy has landed on the
  // stream clock and the device is not lost.
  void commit_landed();
  // Drops the staged snapshot, if any, uncommitted.
  void void_staged();

  std::string engine_;
  // The owned simulator and CSR arrays; null when borrowed.
  std::unique_ptr<gpusim::GpuSim> own_sim_;
  std::unique_ptr<DeviceCsrBuffers> own_graph_;
  gpusim::GpuSim& sim_;
  gpusim::StreamId stream_;
  const DeviceCsrBuffers* graph_;
  const graph::Csr& csr_;
  RetryPolicy policy_;
  int checkpoint_interval_;

  // Per-query bindings.
  const CancelToken* cancel_ = nullptr;
  const std::vector<graph::Distance>* warm_start_ = nullptr;
  std::vector<graph::Distance> resume_bounds_;
  QueryCheckpoint checkpoint_;  // committed: its copy has landed
  QueryCheckpoint staged_;      // taken_ms = when its copy lands
  std::uint64_t snapshots_ = 0;  // staged this run
  std::uint64_t checkpoints_landed_ = 0;
  std::uint64_t checkpoints_voided_ = 0;
  // The snapshot warps' target, allocated by the first begin_attempt():
  // after every buffer the engine allocates up front, so checkpointing
  // leaves the engine's device layout as it was.
  gpusim::Buffer<graph::Distance> snapshot_;

  // Per-attempt state.
  std::size_t fault_scan_begin_ = 0;
  bool attempt_cancelled_ = false;
  std::uint64_t boundary_count_ = 0;
  bool snapshot_written_ = false;  // by the kernel ending at this boundary
  double ms_before_ = 0;
  double wait_before_ = 0;
  gpusim::Counters counters_before_;
};

}  // namespace rdbs::core
