// One interface and one registry for the library's GPU SSSP engines.
//
// Every engine answers a query through GpuEngine::run(source): RDBS and the
// paper's BL baseline (both through RdbsSolver), the ADDS comparator, and
// the GPU lineage the paper builds on — HN07, Davidson's Near-Far, Gunrock
// and SEP-Graph. The registry names each one and builds it from a device,
// a graph, the shared EngineOptions block and a Δ. Code that means "every
// engine" — sssp_tool, the conformance, gsan and fault sweeps, the replay
// matrix — iterates gpu_engines() instead of naming types, so a new engine
// joins all of them with one entry in core/engine.cpp
// (docs/adding_an_engine.md).
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "core/options.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/device.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

class GpuEngine {
 public:
  GpuEngine() = default;
  GpuEngine(const GpuEngine&) = delete;
  GpuEngine& operator=(const GpuEngine&) = delete;
  virtual ~GpuEngine() = default;

  // Runs SSSP from `source`, in the numbering of the graph the engine was
  // built from. With fault injection on (EngineOptions::fault) the run
  // executes under EngineOptions::retry. Throws std::out_of_range for an
  // invalid source.
  virtual GpuRunResult run(graph::VertexId source) = 0;
};

struct GpuEngineEntry {
  const char* name;  // the sssp_tool --algorithm value and ctest suffix
  // Builds the engine. `csr` must outlive it. `delta` is the engine's
  // initial bucket width or Near/Far increment; engines without one (BL,
  // HN07, SEP) ignore it.
  std::unique_ptr<GpuEngine> (*make)(gpusim::DeviceSpec device,
                                     const graph::Csr& csr,
                                     const EngineOptions& options,
                                     graph::Weight delta);
};

// Every registered engine, in a fixed order: rdbs, baseline, adds, gunrock,
// sep, hn07, davidson.
std::span<const GpuEngineEntry> gpu_engines();

// The entry called `name`, or nullptr when no engine has that name.
const GpuEngineEntry* gpu_engine(std::string_view name);

}  // namespace rdbs::core
