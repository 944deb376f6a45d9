// ADDS-like comparator (paper Table 2 / Figs. 9-11).
//
// Wang, Fussell & Lin's ADDS (PPoPP'21) is the state-of-the-art GPU SSSP
// the paper compares against: an *asynchronous* Near-Far Δ-stepping with a
// dynamically adjusted Δ. Following the paper's Related-Work
// characterization ("Wang uses an asynchronous mode and changes Δ, which
// increases the difficulty of programming and ignores irregular memory
// access problems"), this model keeps ADDS's strengths — async execution,
// few kernel launches, no full-vertex scans (the Far pile is re-split
// instead) — and its weaknesses relative to RDBS: unsorted adjacency (per-
// edge branch, divergent accesses) and plain thread-per-vertex mapping (a
// hub vertex stalls its whole warp, the effect that makes ADDS collapse on
// Kronecker graphs in Fig. 8/Table 2).
#pragma once

#include "core/device_graph.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

struct AddsOptions : EngineOptions {
  graph::Weight delta = 100.0;  // Near/Far threshold increment
};

class AddsLike : public GpuEngine {
 public:
  // `csr` must outlive the engine. Kernels go to `device`: a simulator of
  // the engine's own, or one stream of a shared one (QueryBatch lanes; see
  // GpuDeltaStepping).
  AddsLike(DeviceBinding device, const graph::Csr& csr, AddsOptions options);

  // Runs SSSP from `source`. With fault injection enabled (options.fault)
  // the run executes under options.retry — poisoned attempts are discarded
  // and rerun, and the result carries the typed faults plus recovery
  // counters. Throws std::out_of_range for an invalid source.
  GpuRunResult run(graph::VertexId source) override;

  gpusim::GpuSim& sim() { return driver_.sim(); }

  // The query contract (core/recovery.hpp; see GpuDeltaStepping::driver):
  // cancellation is polled at the near/far round boundary, checkpoints are
  // taken at round boundaries every options.checkpoint_interval, and warm
  // starts are bound with driver().set_warm_start (Near-Far is
  // label-correcting like Δ-stepping, so valid bounds preserve exactness).
  AttemptDriver& driver() { return driver_; }

 private:
  // One recovery attempt: the full Near-Far run, re-initializing all
  // mutable device state first (so a retry starts clean).
  GpuRunResult run_attempt(graph::VertexId source);

  // The bound stream and resident CSR arrays.
  gpusim::StreamId stream() const { return driver_.stream(); }
  const DeviceCsrBuffers& graph() const { return driver_.graph(); }

  const graph::Csr& csr_;
  AddsOptions options_;
  AttemptDriver driver_;

  gpusim::Buffer<graph::Distance> dist_;
  DeviceQueue near_;  // Near ring (in_near flags)
  DeviceQueue far_;   // Far pile (duplicates, no flags)

  sssp::WorkStats work_;
};

}  // namespace rdbs::core
