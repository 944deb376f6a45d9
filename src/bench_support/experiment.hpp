// Shared machinery for the bench/ harness: dataset preparation, source
// selection, experiment runners for every solver in the library, and the
// paper's published numbers for side-by-side reporting.
//
// Experimental method follows §5.1.3 scaled to the simulator: sources are
// chosen pseudo-randomly inside the largest connected component; the
// simulator is deterministic, so one run per source replaces the paper's
// 10 repetitions, and the source count is configurable (default 4; the
// paper uses 64 sources x 10 runs on real hardware).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "core/adds.hpp"
#include "core/rdbs.hpp"
#include "graph/surrogates.hpp"
#include "sssp/result.hpp"

namespace rdbs::bench {

using core::GpuRunResult;
using core::GpuSsspOptions;
using graph::Csr;
using graph::VertexId;

// Harness-wide configuration parsed from the command line (every bench
// binary accepts the same flags).
struct HarnessConfig {
  int size_scale = 0;       // surrogate size (each +1 doubles vertices)
  int num_sources = 4;      // sources per dataset (sim is deterministic)
  std::uint64_t seed = 42;
  std::string data_dir;     // optional real-dataset directory
  std::string device = "v100";
  bool csv = false;         // also emit CSV rows

  static HarnessConfig from_cli(const CliArgs& args);
};

// The first call of every harness binary: the accepted flags are the
// harness flags above plus `own_flags`. Given --help it prints them and
// exits 0; given any other flag it exits 2, naming the flag on stderr.
void check_flags(const CliArgs& args,
                 std::initializer_list<std::string_view> own_flags = {});

gpusim::DeviceSpec device_by_name(const std::string& name);

// Loads a dataset by paper name with the harness config applied.
Csr load_bench_graph(const std::string& name, const HarnessConfig& config);

// `count` pseudo-random source vertices inside the largest component.
std::vector<VertexId> pick_sources(const Csr& csr, int count,
                                   std::uint64_t seed);

// Aggregated measurement over a set of sources.
struct Measurement {
  double mean_ms = 0;
  double mean_gteps = 0;
  double total_updates = 0;       // mean per source
  double valid_updates = 0;       // mean per source
  gpusim::Counters counters;      // mean per source (integer-truncated)
  double redundancy_ratio() const {
    return valid_updates == 0 ? 0 : total_updates / valid_updates;
  }
};

// RDBS engine (any flag combination) averaged over sources.
Measurement run_gpu_delta_stepping(const Csr& csr,
                                   const gpusim::DeviceSpec& device,
                                   const GpuSsspOptions& options,
                                   const std::vector<VertexId>& sources);

// ADDS comparator averaged over sources.
Measurement run_adds(const Csr& csr, const gpusim::DeviceSpec& device,
                     const core::AddsOptions& options,
                     const std::vector<VertexId>& sources);

// PQ-Δ* on the host CPU (wall-clock), averaged over sources.
Measurement run_pq_delta_star(const Csr& csr,
                              const std::vector<VertexId>& sources,
                              graph::Weight delta_star);

// Default Δ0 for the harness's uniform 1..1000 integer weights.
inline constexpr graph::Weight kDefaultDelta0 = 100.0;

// Empirical per-graph Δ0, mirroring the paper's "empirical Δ value"
// practice: sized so the bucket walk spans on the order of 64 buckets
// (estimated from hop diameter x mean weight). High-diameter road networks
// get a much wider Δ than low-diameter social graphs; without this, a road
// graph walks thousands of buckets of full-vertex scans (Algorithm 2's
// "for v in V" phase) and the scan cost swamps everything.
graph::Weight empirical_delta0(const Csr& csr, std::uint64_t seed);

// The six datasets of Fig. 8 / Table 2 / Fig. 10 / Fig. 12, paper order.
const std::vector<std::string>& six_graph_suite();
// The ten datasets of Fig. 9, paper order.
const std::vector<std::string>& ten_graph_suite();

// --- published numbers (for the "paper" columns) ---------------------------
struct PaperTable2Row {
  const char* graph;
  double pq_ms;    // PQ-Δ* (CPU)
  double adds_ms;  // ADDS (GPU)
  double rdbs_ms;  // RDBS
};
const std::vector<PaperTable2Row>& paper_table2();

struct PaperFig8Row {
  const char* graph;
  double basyn_pro;        // BASYN+PRO speedup over BL
  double basyn_adwl;       // BASYN+ADWL
  double all;              // BASYN+PRO+ADWL
};
const std::vector<PaperFig8Row>& paper_fig8();

struct PaperFig9Row {
  const char* graph;
  double rdbs_ratio;       // total/valid updates of RDBS
  double adds_update_factor;  // ADDS total updates / RDBS total updates
  double perf_speedup;     // RDBS speedup over ADDS
};
const std::vector<PaperFig9Row>& paper_fig9();

struct PaperFig11Row {
  int scale;
  int edgefactor;
  double gteps;            // RDBS performance
  double speedup_vs_adds;
};
const std::vector<PaperFig11Row>& paper_fig11();

struct PaperFig12Row {
  const char* graph;
  double v100_over_t4_speedup;
};
const std::vector<PaperFig12Row>& paper_fig12();

}  // namespace rdbs::bench
