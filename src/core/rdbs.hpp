// RdbsSolver — the library's main public entry point.
//
// Wraps the full RDBS pipeline of the paper's Fig. 7: property-driven
// reordering at preprocessing time, then the bucket-aware asynchronous
// Δ-stepping engine with adaptive load balancing. Results are mapped back
// to the caller's original vertex numbering.
//
//   using namespace rdbs;
//   core::RdbsSolver solver(csr, gpusim::v100());
//   core::GpuRunResult r = solver.solve(source);
//   // r.sssp.distances[v] is the shortest distance to original vertex v
//
// Pass custom GpuSsspOptions to toggle individual optimizations (the
// Fig. 8 ablations) or a different DeviceSpec (the Fig. 12 platforms).
#pragma once

#include <memory>
#include <vector>

#include "core/gpu_sssp.hpp"
#include "reorder/pro.hpp"

namespace rdbs::core {

class RdbsSolver : public GpuEngine {
 public:
  // Preprocesses `csr` according to options (PRO reordering when
  // options.pro is set; plain weight-sort is NOT applied otherwise, so the
  // baseline configurations see the original layout). `csr` is copied into
  // the solver; the original need not outlive it.
  RdbsSolver(const Csr& csr, gpusim::DeviceSpec device,
             GpuSsspOptions options = {});

  // SSSP from a source in the ORIGINAL vertex numbering; distances in the
  // result are mapped back to original ids.
  GpuRunResult solve(VertexId source);
  GpuRunResult run(VertexId source) override { return solve(source); }

  // Optional per-vertex upper bounds in the ORIGINAL vertex numbering
  // (AttemptDriver::set_warm_start semantics; kInfiniteDistance = no bound),
  // mapped through the PRO permutation on the way in. The caller owns
  // `bounds`; the pointer must stay valid until the next set_warm_start()
  // or solver destruction. nullptr detaches.
  void set_warm_start(const std::vector<graph::Distance>* bounds);

  const Csr& engine_graph() const { return graph_.csr(); }
  const GpuSsspOptions& options() const { return engine_->options(); }
  // The simulator backing the engine — its counters and launch statistics
  // (read by the benches and the repository benchmark).
  gpusim::GpuSim& sim() { return engine_->sim(); }
  // Preprocessing (reordering) time on the host, milliseconds. The paper
  // reports SSSP kernel time only; preprocessing is a one-off per graph.
  double preprocessing_ms() const { return preprocessing_ms_; }

 private:
  reorder::ProFrontEnd graph_;  // the engine-facing CSR and numbering map
  double preprocessing_ms_ = 0;
  std::unique_ptr<GpuDeltaStepping> engine_;
};

}  // namespace rdbs::core
