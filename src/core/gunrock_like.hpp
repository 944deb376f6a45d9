// Gunrock-like SSSP (Wang et al., ToPC 2017 — paper ref [35]) on the
// gpusim substrate.
//
// Gunrock expresses graph algorithms as a pipeline of bulk operators over
// a frontier of vertices. Its sssp app runs two per iteration:
//
//   advance — expand the frontier's out-edges and relax them (load-balanced
//             across warps: edges are flattened into even 32-edge chunks,
//             Gunrock's per-load-balancing strategy);
//   filter  — compact the advance output, dropping duplicates (Gunrock's
//             bitmap-based dedup) and the vertices beyond the near/far
//             threshold, into the next iteration's frontier.
//
// The split into a "near" frontier and a "far" pile, re-split when near
// drains, is Gunrock's two-level priority queue — the paper's "priority
// queue" optimization. Each operator is one kernel launch: Gunrock is
// bulk-synchronous, the "slow convergence" the paper calls out.
#pragma once

#include <array>
#include <vector>

#include "core/device_graph.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

struct GunrockSsspOptions : EngineOptions {
  graph::Weight delta = 100.0;  // near/far threshold increment (> 0)
};

class GunrockLike : public GpuEngine {
 public:
  // `csr` must outlive the engine; kernels go to `device`
  // (core/recovery.hpp).
  GunrockLike(DeviceBinding device, const graph::Csr& csr,
              GunrockSsspOptions options);

  // Runs SSSP from `source` (under options.retry when fault injection is
  // on). Throws std::out_of_range for an invalid source.
  GpuRunResult run(graph::VertexId source) override;

  gpusim::GpuSim& sim() { return driver_.sim(); }

 private:
  using Frontier = std::vector<graph::VertexId>;

  GpuRunResult run_attempt(graph::VertexId source);
  // The advance kernel: relaxes the out-edges of `frontier` and returns the
  // destinations it improved, duplicates included.
  Frontier advance(const Frontier& frontier, sssp::WorkStats& work);
  // The filter kernel: keeps each vertex of `frontier` once if
  // lo <= dist < hi. A vertex it drops, duplicates aside, goes to `far`
  // when that is given.
  Frontier filter(const Frontier& frontier, graph::Distance lo,
                  graph::Distance hi, Frontier* far);
  // Makes `frontier` resident in the input buffer: the host mirror of the
  // previous operator's compact-store, or the upload of a host-built
  // frontier (the source seed, a far re-split).
  void seed_frontier(const Frontier& frontier);
  // The bound stream and resident CSR arrays.
  gpusim::StreamId stream() const { return driver_.stream(); }
  const DeviceCsrBuffers& graph() const { return driver_.graph(); }

  const graph::Csr& csr_;
  GunrockSsspOptions options_;
  AttemptDriver driver_;

  gpusim::Buffer<graph::Distance> dist_;
  // Double-buffered frontier (Gunrock's ping-pong): each operator reads
  // frontier_[in_] and compact-stores its output into the other buffer,
  // then the two swap. Reading and writing one array inside a bulk launch
  // would be a data race. Every attempt starts reading frontier_in.
  std::array<gpusim::Buffer<graph::VertexId>, 2> frontier_;
  int in_ = 0;
  gpusim::Buffer<std::uint32_t> frontier_ctrl_;  // [0]=output cursor
  gpusim::Buffer<std::uint8_t> visited_;
};

}  // namespace rdbs::core
