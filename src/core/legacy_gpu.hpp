// Historical GPU SSSP baselines the paper builds its narrative on (§1):
//
//  * HarishNarayanan — Harish & Narayanan, HiPC 2007 [paper ref 17]: the
//    first CUDA SSSP. Topology-driven and doubly synchronous: every
//    iteration launches one kernel that relaxes the out-edges of all masked
//    vertices into a shadow "updating cost" array, and a second kernel that
//    commits improvements and rebuilds the mask — both scanning all V.
//    Work- and memory-inefficient by design; the natural floor for every
//    comparison.
//
//  * DavidsonNearFar — Davidson, Baxter, Garland & Owens, IPDPS 2014
//    [paper ref 10]: Workfront Sweep + Near-Far. Synchronous, but
//    data-driven with an edge-balanced workfront (the frontier's edges are
//    processed in even chunks — no thread-per-vertex divergence) and a
//    two-pile (Near/Far) distance classification instead of full buckets.
//
// Both run on gpusim with the same functional guarantees as the main
// engine (distances validated against Dijkstra in the test suite).
#pragma once

#include "core/device_graph.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

class HarishNarayanan {
 public:
  HarishNarayanan(gpusim::DeviceSpec device, const graph::Csr& csr,
                  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff,
                  const gpusim::FaultConfig& fault = {},
                  const RetryPolicy& retry = {});

  // Runs SSSP from `source` (under `retry` when fault injection is on).
  // Throws std::out_of_range for an invalid source.
  GpuRunResult run(graph::VertexId source);

  gpusim::GpuSim& sim() { return sim_; }

 private:
  GpuRunResult run_attempt(graph::VertexId source);

  gpusim::GpuSim sim_;
  const graph::Csr& csr_;
  AttemptDriver driver_;

  DeviceCsrBuffers graph_;
  gpusim::Buffer<graph::Distance> dist_;
  gpusim::Buffer<graph::Distance> updating_dist_;
  gpusim::Buffer<std::uint8_t> mask_;
};

struct DavidsonOptions {
  graph::Weight delta = 100.0;  // Near/Far threshold increment
  // gsan hazard analysis over every launch (docs/sanitizer.md).
  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff;
  // Deterministic fault injection + recovery (gfi; docs/fault_injection.md).
  gpusim::FaultConfig fault;
  RetryPolicy retry;
};

class DavidsonNearFar {
 public:
  DavidsonNearFar(gpusim::DeviceSpec device, const graph::Csr& csr,
                  DavidsonOptions options);

  // Runs SSSP from `source` (under options.retry when fault injection is
  // on). Throws std::out_of_range for an invalid source.
  GpuRunResult run(graph::VertexId source);

  gpusim::GpuSim& sim() { return sim_; }

 private:
  GpuRunResult run_attempt(graph::VertexId source);

  gpusim::GpuSim sim_;
  const graph::Csr& csr_;
  DavidsonOptions options_;
  AttemptDriver driver_;

  DeviceCsrBuffers graph_;
  gpusim::Buffer<graph::Distance> dist_;
  gpusim::Buffer<graph::VertexId> near_queue_;
  gpusim::Buffer<graph::VertexId> far_pile_;
  gpusim::Buffer<std::uint32_t> queue_ctrl_;  // [0]=near tail, [1]=far tail
  gpusim::Buffer<std::uint8_t> in_near_;
};

}  // namespace rdbs::core
