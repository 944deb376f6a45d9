// GPU Δ-stepping engine on the gpusim substrate.
//
// One engine implements the whole ablation space of the paper's Fig. 8 via
// GpuSsspOptions:
//
//   BL   (mode = kSyncPushBellmanFord): the paper's baseline — synchronous
//        push-mode SSSP without buckets, one kernel launch per frontier
//        sweep, static thread-per-vertex balancing.
//   sync Δ-stepping (all flags off): bucketed, fixed Δ, per-iteration
//        launches, separate phase-2/phase-3 kernels, per-edge light/heavy
//        branch.
//   PRO : weight-sorted adjacency; phase 1 touches only the light range
//         (O(1) via the heavy offset, maintained incrementally when Δ is
//         readjusted), no per-edge weight branch.
//   ADWL: active vertices classified small/medium/large (β=32, α=256);
//         parents handle small vertices inline, spawn warp/block-granularity
//         child tasks for the rest (dynamic parallelism); phases 2&3 fused.
//   BASYN: phase 1 runs as one persistent kernel per bucket with
//         immediately-visible updates and no iteration barriers; bucket
//         width adapts per Eq. (1)-(2).
//
// Execution is functional (real distances are computed and validated) and
// costed by gpusim (see gpusim/sim.hpp for the cost model).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/delta_controller.hpp"
#include "core/device_graph.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

using graph::Csr;
using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

class GpuDeltaStepping {
 public:
  // `csr` must outlive the engine. With options.pro set the graph must have
  // weight-sorted adjacency (reorder::sort_adjacency_by_weight or the full
  // property_driven_reorder pipeline); this is checked once at construction.
  GpuDeltaStepping(gpusim::DeviceSpec device, const Csr& csr,
                   GpuSsspOptions options);

  // Shared-simulator variant for batched queries: the engine issues all its
  // kernels on `stream` of an externally owned simulator (which must outlive
  // the engine) and never resets it — run() reports per-query deltas of the
  // stream clock and counters instead. With `shared_graph` set (same sim,
  // same csr) the engine uses those device CSR arrays instead of uploading
  // its own copy; otherwise it uploads one. Per-query buffers (distances,
  // queues, heavy-offset mirror) are allocated once here and pooled across
  // run() calls.
  GpuDeltaStepping(gpusim::GpuSim& sim, gpusim::StreamId stream,
                   const Csr& csr, GpuSsspOptions options,
                   const DeviceCsrBuffers* shared_graph = nullptr);

  // Runs SSSP from `source` (in the *engine graph's* vertex numbering).
  // When the engine owns its simulator, simulated time/counters are reset
  // first; either way the result's device_ms / queue_wait_ms / counters
  // describe exactly this run. With fault injection enabled
  // (options.fault), the run executes under options.retry: poisoned
  // attempts are discarded and rerun, and the result carries the typed
  // faults plus recovery counters (see docs/fault_injection.md). Throws
  // std::out_of_range for an invalid source.
  GpuRunResult run(VertexId source);

  gpusim::GpuSim& sim() { return *sim_; }
  gpusim::StreamId stream() const { return stream_; }
  // The construction-time configuration; per-query bindings (cancel token,
  // warm start, resume bounds) live on the driver.
  const GpuSsspOptions& options() const { return options_; }

  // The query contract (core/recovery.hpp): cancel token and warm-start
  // bindings, the checkpoint of the last run (empty in BL mode) and the
  // one-shot resume bounds used by lane migration.
  AttemptDriver& driver() { return driver_; }

 private:
  struct ChildChunk {
    VertexId vertex;
    EdgeIndex edge_begin;  // first edge of this chunk
    EdgeIndex edge_end;    // one past last (within the light range)
  };

  // One recovery attempt: the full Δ-stepping run, re-initializing all
  // mutable device state first (so a retry starts clean).
  GpuRunResult run_attempt(VertexId source);

  // --- kernel bodies -------------------------------------------------------
  // Phase 1, synchronous mode: one kernel per frontier iteration.
  void phase1_sync(Weight lo, Weight hi, Weight delta, BucketStats& stats);
  // Phase 1, asynchronous mode: one persistent kernel per bucket.
  void phase1_async(Weight lo, Weight hi, Weight delta, BucketStats& stats);

  // Shared warp body: process up to 32 active vertices thread-per-vertex
  // (parent lanes). With ADWL, medium/large vertices spawn child chunks
  // instead of being processed inline.
  void parent_warp(gpusim::WarpCtx& ctx, std::span<const VertexId> lanes,
                   Weight lo, Weight hi, Weight delta,
                   std::vector<ChildChunk>* children, BucketStats& stats);
  // Child warp: one 32-edge coalesced chunk of a medium/large vertex.
  void child_warp(gpusim::WarpCtx& ctx, const ChildChunk& chunk, Weight hi,
                  Weight delta, BucketStats& stats);

  // Fused phase 2&3 scan (RDBS) or the two separate scans (BL). Relaxes the
  // heavy edges of vertices settled in [lo, hi), then collects the frontier
  // for [next_lo, next_hi) into the phase-1 queue. Returns the smallest
  // unsettled distance >= next_lo (infinity if none) and the number of
  // remaining unsettled vertices.
  struct ScanOutcome {
    Distance min_unsettled = graph::kInfiniteDistance;
    std::uint64_t remaining = 0;
    std::uint64_t converged = 0;  // settled in [lo, hi)
  };
  ScanOutcome phase23(Weight lo, Weight hi, Weight delta, Weight next_lo,
                      Weight next_hi, bool relax_heavy);

  // --- helpers -------------------------------------------------------------
  // Light-range end of v for threshold `delta` (functional value; the
  // device-side cost — offset load or incremental maintenance — is charged
  // at warp level by the callers).
  EdgeIndex light_end(VertexId v, Weight delta) const;
  // Host-seeds the phase-1 ring with the source plus — under a warm start —
  // every warm vertex whose seeded distance already lies inside the initial
  // window [0, hi).
  void seed_queue(VertexId source, Weight hi);

  // Allocates per-query device buffers and resolves the graph arrays
  // (shared or freshly uploaded). Common tail of both constructors.
  void init_device_state(const DeviceCsrBuffers* shared_graph);

  std::unique_ptr<gpusim::GpuSim> owned_sim_;  // null in shared-sim mode
  gpusim::GpuSim* sim_;                        // never null
  gpusim::StreamId stream_ = 0;
  const Csr& csr_;
  GpuSsspOptions options_;
  AttemptDriver driver_;

  // Device-resident data (device element sizes match the CUDA layout:
  // 4-byte offsets/ids/weights/distances). The read-only CSR arrays live in
  // *graph_bufs_ — either this engine's own upload or a shared one.
  std::unique_ptr<DeviceCsrBuffers> owned_graph_;
  const DeviceCsrBuffers* graph_bufs_ = nullptr;  // never null after ctor
  gpusim::Buffer<EdgeIndex> heavy_offsets_;  // present with PRO
  gpusim::Buffer<Distance> dist_;
  DeviceQueue queue_;  // phase-1 work queue (ring, in_queue flags)

  // Distinct-settlement tracking per bucket (C_i for the Δ-controller):
  // epoch_[v] == current_epoch_ iff v was already counted in this bucket.
  std::vector<std::uint64_t> epoch_;
  std::uint64_t current_epoch_ = 0;

  sssp::WorkStats work_;
};

}  // namespace rdbs::core
