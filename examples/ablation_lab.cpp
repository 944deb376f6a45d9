// Ablation lab: toggle the paper's three optimizations one by one on a
// graph of your choice and watch where the time and the work go.
//
//   $ ./ablation_lab --graph=soc-PK           # any Table-1 name or k-nXX-YY
//   $ ./ablation_lab --graph=k-n21-16 --size-scale=1 --device=t4
//
// Prints, per configuration: simulated ms, kernel launches, warp-level
// load/atomic instructions, L1 hit rate, lane efficiency and the update
// redundancy ratio — the quantities Figs. 8-10 are built from.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"graph"});
  bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const std::string graph_name = args.get_string("graph", "soc-PK");
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  const graph::Csr csr = bench::load_bench_graph(graph_name, config);
  const auto sources = bench::pick_sources(csr, config.num_sources,
                                           config.seed);
  const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
  std::printf("graph=%s: %u vertices, %llu directed edges, device=%s, "
              "delta0=%.1f, %zu sources\n\n",
              graph_name.c_str(), csr.num_vertices(),
              static_cast<unsigned long long>(csr.num_edges()),
              device.name.c_str(), delta0, sources.size());

  struct Config {
    const char* label;
    core::EngineMode mode;
    bool basyn, pro, adwl;
  };
  const Config configs[] = {
      {"BL (sync push)", core::EngineMode::kSyncPushBellmanFord, false,
       false, false},
      {"sync delta", core::EngineMode::kBucketDelta, false, false, false},
      {"BASYN", core::EngineMode::kBucketDelta, true, false, false},
      {"BASYN+PRO", core::EngineMode::kBucketDelta, true, true, false},
      {"BASYN+ADWL", core::EngineMode::kBucketDelta, true, false, true},
      {"RDBS (all)", core::EngineMode::kBucketDelta, true, true, true},
  };

  TextTable table({"config", "ms", "launches", "loads", "atomics",
                   "L1 hit", "lane eff", "redundancy"});
  for (const Config& c : configs) {
    core::GpuSsspOptions options;
    options.mode = c.mode;
    options.basyn = c.basyn;
    options.pro = c.pro;
    options.adwl = c.adwl;
    options.delta0 = delta0;
    const auto m =
        bench::run_gpu_delta_stepping(csr, device, options, sources);
    table.add_row({c.label, format_fixed(m.mean_ms, 3),
                   format_count(m.counters.kernel_launches),
                   format_count(m.counters.inst_executed_global_loads),
                   format_count(m.counters.inst_executed_atomics),
                   format_percent(m.counters.global_hit_rate(), 1),
                   format_percent(m.counters.lane_efficiency(), 1),
                   format_fixed(m.redundancy_ratio(), 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
