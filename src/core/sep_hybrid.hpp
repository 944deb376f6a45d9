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
// The per-round decisions of the last run are kept for inspection
// (SepHybrid::rounds()).
#pragma once

#include <vector>

#include "core/device_graph.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

struct SepHybridOptions : EngineOptions {
  double pull_edge_fraction = 0.10;
  std::uint64_t async_frontier_limit = 1024;
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

class SepHybrid : public GpuEngine {
 public:
  // `csr` must outlive the engine; kernels go to `device`
  // (core/recovery.hpp).
  SepHybrid(DeviceBinding device, const graph::Csr& csr,
            SepHybridOptions options = {});

  // Runs SSSP from `source`. With options.fault enabled the run executes
  // under options.retry. Throws std::out_of_range for an invalid source.
  GpuRunResult run(graph::VertexId source) override;

  // The rounds of the last run's successful device attempt (empty after a
  // CPU fallback or a typed failure).
  const std::vector<SepRound>& rounds() const { return rounds_; }

  gpusim::GpuSim& sim() { return driver_.sim(); }

 private:
  // One recovery attempt (a full run); logs its rounds into rounds_.
  GpuRunResult run_attempt(graph::VertexId source);

  SepMode choose_mode(std::uint64_t frontier_vertices,
                      std::uint64_t frontier_edges) const;
  // The bound stream and resident CSR arrays.
  gpusim::StreamId stream() const { return driver_.stream(); }
  const DeviceCsrBuffers& graph() const { return driver_.graph(); }

  const graph::Csr& csr_;
  SepHybridOptions options_;
  AttemptDriver driver_;
  // Pull sweeps reuse the out-edge CSR as the in-edge list, which is
  // only valid on symmetric graphs; detected once at construction so
  // choose_mode can fall back to push on directed inputs.
  const bool csr_symmetric_;

  gpusim::Buffer<graph::Distance> dist_;
  DeviceQueue queue_;  // the frontier (ring, in_queue flags)
  std::vector<SepRound> rounds_;
};

}  // namespace rdbs::core
