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

#include <cstdint>
#include <span>
#include <vector>

#include "core/delta_controller.hpp"
#include "core/device_graph.hpp"
#include "core/engine.hpp"
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

// The phase-2&3 strip test: bit i is set iff !(d[i] < lo) && !(d[i] >= hi),
// for d.size() <= 32 lanes. That is lo <= d[i] < hi for ordered values; a
// NaN (a faulted load) lands inside every window, as in the CUDA compare.
// lanes_in_window runs two lanes per SSE2 compare where the target has
// SSE2 (the x86-64 baseline); lanes_in_window_scalar is the portable loop
// and the reference the vector version must equal bit for bit.
std::uint32_t lanes_in_window(std::span<const Distance> d, Weight lo,
                              Weight hi);
std::uint32_t lanes_in_window_scalar(std::span<const Distance> d, Weight lo,
                                     Weight hi);

class GpuDeltaStepping : public GpuEngine {
 public:
  // `csr` must outlive the engine. With options.pro set the graph must have
  // weight-sorted adjacency (reorder::sort_adjacency_by_weight or the full
  // property_driven_reorder pipeline); this is checked once at construction.
  // Kernels go to `device` (core/recovery.hpp): a simulator of the engine's
  // own, or one stream of a shared one (QueryBatch lanes). Per-query
  // buffers (distances, queue, heavy-offset mirror) are allocated once here
  // and pooled across run() calls.
  GpuDeltaStepping(DeviceBinding device, const Csr& csr,
                   GpuSsspOptions options);

  // Runs SSSP from `source` (in the *engine graph's* vertex numbering). The
  // result's device_ms / queue_wait_ms / counters describe exactly this
  // run. With fault injection enabled (options.fault), the run executes
  // under options.retry: poisoned attempts are discarded and rerun, and the
  // result carries the typed faults plus recovery counters (see
  // docs/fault_injection.md). Throws std::out_of_range for an invalid
  // source.
  GpuRunResult run(VertexId source) override;

  gpusim::GpuSim& sim() { return driver_.sim(); }
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
  // for [next_lo, next_hi) into the phase-1 queue. When that leaves the
  // queue empty, also returns the smallest unsettled distance >= next_lo
  // (infinity if none) and the number of remaining unsettled vertices;
  // otherwise those stay at infinity and 0.
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

  // The bound stream and resident CSR arrays.
  gpusim::StreamId stream() const { return driver_.stream(); }
  const DeviceCsrBuffers& graph() const { return driver_.graph(); }

  const Csr& csr_;
  GpuSsspOptions options_;
  AttemptDriver driver_;

  // Per-query device buffers (device element sizes match the CUDA layout:
  // 4-byte offsets/ids/weights/distances).
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
