// SEP-Graph-style hybrid engine (Wang et al., PPoPP'19 — paper ref [33]).
//
// SEP-Graph's idea: no single execution mode wins everywhere, so pick
// per-round between Sync/Async, Push/Pull and Data-/Topology-driven using
// cheap runtime signals. This model implements the SSSP instantiation:
//
//   * data-driven PUSH round — relax the out-edges of the current frontier
//     (atomicMin scatter); best when the frontier is sparse.
//   * topology-driven PULL round — every vertex recomputes its distance
//     from its in-neighbors (gather, NO atomics) in one full scan; best
//     when most vertices are active, where push's scattered atomics and
//     duplicated work dominate.
//   * sync vs async — a small frontier is drained in one persistent kernel
//     (async, no per-iteration barrier); a large one runs as barrier-
//     separated sweeps (sync, maximal occupancy).
//
// Switching heuristic (documented, deliberately simple): pull when the
// frontier's out-edge volume exceeds `pull_edge_fraction` of |E|; async
// when the frontier is smaller than `async_frontier_limit` vertices.
// The per-round decisions are recorded for inspection.
#pragma once

#include <deque>
#include <vector>

#include "core/device_graph.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

struct SepHybridOptions {
  double pull_edge_fraction = 0.10;
  std::uint64_t async_frontier_limit = 1024;
  bool instrument = true;
  // gsan hazard analysis over every launch (docs/sanitizer.md).
  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff;
  // Deterministic fault injection + recovery (gfi; docs/fault_injection.md).
  gpusim::FaultConfig fault;
  RetryPolicy retry;
};

enum class SepMode : std::uint8_t {
  kAsyncPush,
  kSyncPush,
  kSyncPull,
};

struct SepRound {
  SepMode mode;
  std::uint64_t frontier = 0;        // vertices entering the round
  std::uint64_t frontier_edges = 0;  // their out-edge volume
  double ms = 0;                     // simulated time of the round
};

struct SepRunResult {
  GpuRunResult gpu;
  std::vector<SepRound> rounds;
};

class SepHybrid {
 public:
  SepHybrid(gpusim::DeviceSpec device, const graph::Csr& csr,
            SepHybridOptions options = {});

  // Runs SSSP from `source`. With options.fault enabled the run executes
  // under options.retry; `rounds` describes the successful device attempt
  // (empty after a CPU fallback). Throws std::out_of_range for an invalid
  // source.
  SepRunResult run(graph::VertexId source);

  gpusim::GpuSim& sim() { return sim_; }

 private:
  // One recovery attempt (full run from a reset simulator clock).
  GpuRunResult run_attempt(graph::VertexId source,
                           std::vector<SepRound>& round_log);

  SepMode choose_mode(std::uint64_t frontier_vertices,
                      std::uint64_t frontier_edges) const;

  gpusim::GpuSim sim_;
  const graph::Csr& csr_;
  SepHybridOptions options_;
  AttemptDriver driver_;
  // Pull sweeps reuse the out-edge CSR as the in-edge list, which is
  // only valid on symmetric graphs; detected once at construction so
  // choose_mode can fall back to push on directed inputs.
  bool csr_symmetric_ = false;

  DeviceCsrBuffers graph_;
  gpusim::Buffer<graph::Distance> dist_;
  gpusim::Buffer<graph::VertexId> queue_;
  gpusim::Buffer<std::uint32_t> queue_ctrl_;  // [0]=tail, [1]=head cursors
  gpusim::Buffer<std::uint8_t> in_queue_;
  // Host mirrors of the device queue cursors (ring positions).
  std::uint64_t queue_tail_ = 0;
  std::uint64_t queue_head_ = 0;
};

}  // namespace rdbs::core
