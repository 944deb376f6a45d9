// Fig. 10: profiling-counter comparison of RDBS vs ADDS.
//
// The four panels of the figure map to the simulator's nvprof-style
// counters: (a) inst_executed_global_loads, (b) inst_executed_global_stores,
// (c) inst_executed_atomics, (d) global_hit_rate in the unified L1. Shape to
// reproduce: RDBS issues fewer load/store warp instructions (0.41x / 0.57x
// on average in the paper), ~40% fewer atomics, and a higher hit rate
// (+3.59% average).
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  std::printf("== Fig. 10: nvprof-style counters, ADDS vs RDBS ==\n");
  std::printf("device=%s size-scale=%d sources=%d\n\n", device.name.c_str(),
              config.size_scale, config.num_sources);

  core::GpuSsspOptions rdbs_options;
  rdbs_options.delta0 = bench::kDefaultDelta0;
  core::AddsOptions adds_options;
  adds_options.delta = bench::kDefaultDelta0;

  TextTable table({"graph", "loads ADDS", "loads RDBS", "ratio",
                   "stores ADDS", "stores RDBS", "ratio", "atomics ADDS",
                   "atomics RDBS", "ratio", "hit% ADDS", "hit% RDBS"});
  double load_ratio_sum = 0, store_ratio_sum = 0, atomic_cut_sum = 0,
         hit_gain_sum = 0;

  for (const std::string& name : bench::six_graph_suite()) {
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
    rdbs_options.delta0 = delta0;
    adds_options.delta = delta0;

    const auto m_adds = bench::run_adds(csr, device, adds_options, sources);
    const auto m_rdbs =
        bench::run_gpu_delta_stepping(csr, device, rdbs_options, sources);

    const auto& ca = m_adds.counters;
    const auto& cr = m_rdbs.counters;
    const double load_ratio =
        ca.inst_executed_global_loads == 0
            ? 0
            : double(cr.inst_executed_global_loads) /
                  double(ca.inst_executed_global_loads);
    const double store_ratio =
        ca.inst_executed_global_stores == 0
            ? 0
            : double(cr.inst_executed_global_stores) /
                  double(ca.inst_executed_global_stores);
    const double atomic_ratio =
        ca.inst_executed_atomics == 0
            ? 0
            : double(cr.inst_executed_atomics) /
                  double(ca.inst_executed_atomics);
    load_ratio_sum += load_ratio;
    store_ratio_sum += store_ratio;
    atomic_cut_sum += 1.0 - atomic_ratio;
    hit_gain_sum += cr.global_hit_rate() - ca.global_hit_rate();

    table.add_row({name, format_count(ca.inst_executed_global_loads),
                   format_count(cr.inst_executed_global_loads),
                   format_fixed(load_ratio, 2),
                   format_count(ca.inst_executed_global_stores),
                   format_count(cr.inst_executed_global_stores),
                   format_fixed(store_ratio, 2),
                   format_count(ca.inst_executed_atomics),
                   format_count(cr.inst_executed_atomics),
                   format_fixed(atomic_ratio, 2),
                   format_percent(ca.global_hit_rate(), 1),
                   format_percent(cr.global_hit_rate(), 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  const double n = static_cast<double>(bench::six_graph_suite().size());
  std::printf("\naverages: RDBS/ADDS loads %.2fx (paper 0.41x), stores %.2fx "
              "(paper 0.57x), atomics reduced %.1f%% (paper 39.6%%), hit "
              "rate %+.2f points (paper +3.59)\n",
              load_ratio_sum / n, store_ratio_sum / n,
              100.0 * atomic_cut_sum / n, 100.0 * hit_gain_sum / n);
  return 0;
}
