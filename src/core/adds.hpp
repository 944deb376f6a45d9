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

#include <memory>

#include "core/device_graph.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

struct AddsOptions {
  graph::Weight delta = 100.0;  // Near/Far threshold increment
  bool instrument = false;
  int sim_threads = 0;          // gpusim replay threads (0 = library default)
  // gsan hazard analysis over every launch (docs/sanitizer.md).
  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff;
  // Deterministic fault injection + recovery (gfi; docs/fault_injection.md).
  gpusim::FaultConfig fault;
  RetryPolicy retry;
  // Per-vertex upper bounds seeding the tentative distances (engine
  // numbering; caller-owned; see GpuSsspOptions::warm_start). Near-Far is
  // label-correcting like Δ-stepping, so bounds preserve exactness.
  const std::vector<graph::Distance>* warm_start = nullptr;
  // Checkpoint-resume: snapshot the tentative distances every N near/far
  // round boundaries (0 = off); see GpuSsspOptions::checkpoint_interval.
  int checkpoint_interval = 0;
};

class AddsLike {
 public:
  AddsLike(gpusim::DeviceSpec device, const graph::Csr& csr,
           AddsOptions options);

  // Shared-simulator variant for batched queries: kernels go to `stream` of
  // an externally owned simulator (never reset by the engine; metrics are
  // per-query deltas). With `shared_graph` set, the device CSR arrays are
  // reused instead of uploaded again. See GpuDeltaStepping for the pattern.
  AddsLike(gpusim::GpuSim& sim, gpusim::StreamId stream,
           const graph::Csr& csr, AddsOptions options,
           const DeviceCsrBuffers* shared_graph = nullptr);

  // Runs SSSP from `source`. With fault injection enabled (options.fault)
  // the run executes under options.retry — poisoned attempts are discarded
  // and rerun, and the result carries the typed faults plus recovery
  // counters. Throws std::out_of_range for an invalid source.
  GpuRunResult run(graph::VertexId source);

  gpusim::GpuSim& sim() { return *sim_; }
  gpusim::StreamId stream() const { return stream_; }

  // The query contract (core/recovery.hpp; see GpuDeltaStepping::driver):
  // cancellation is polled at the near/far round boundary, and checkpoints
  // are taken at round boundaries every options.checkpoint_interval.
  AttemptDriver& driver() { return driver_; }

 private:
  // One recovery attempt: the full Near-Far run, re-initializing all
  // mutable device state first (so a retry starts clean).
  GpuRunResult run_attempt(graph::VertexId source);

  void init_device_state(const DeviceCsrBuffers* shared_graph);

  std::unique_ptr<gpusim::GpuSim> owned_sim_;  // null in shared-sim mode
  gpusim::GpuSim* sim_;                        // never null
  gpusim::StreamId stream_ = 0;
  const graph::Csr& csr_;
  AddsOptions options_;
  AttemptDriver driver_;

  std::unique_ptr<DeviceCsrBuffers> owned_graph_;
  const DeviceCsrBuffers* graph_bufs_ = nullptr;  // never null after ctor
  gpusim::Buffer<graph::Distance> dist_;
  DeviceQueue near_;  // Near ring (in_near flags)
  DeviceQueue far_;   // Far pile (duplicates, no flags)

  sssp::WorkStats work_;
};

}  // namespace rdbs::core
