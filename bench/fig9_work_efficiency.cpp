// Fig. 9: work efficiency across the ten real-world graphs.
//
// Reports, per graph: RDBS's total-updates / valid-updates ratio, the
// factor by which ADDS performs more updates than RDBS, and the RDBS
// performance speedup over ADDS. Shape to reproduce: RDBS ratios cluster
// between ~1 and ~2.4 with road-TX the outlier (~6.8); ADDS does 1.3-2.2x
// more updates everywhere; speedups follow the update savings.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  std::printf("== Fig. 9: work efficiency (total/valid updates) and ADDS "
              "comparison ==\n");
  std::printf("device=%s size-scale=%d sources=%d\n\n", device.name.c_str(),
              config.size_scale, config.num_sources);

  core::GpuSsspOptions rdbs_options;
  rdbs_options.delta0 = bench::kDefaultDelta0;
  core::AddsOptions adds_options;
  adds_options.delta = bench::kDefaultDelta0;

  TextTable table({"graph", "RDBS ratio", "paper ratio", "ADDS updates x",
                   "paper x", "RDBS speedup", "paper speedup"});

  for (std::size_t i = 0; i < bench::ten_graph_suite().size(); ++i) {
    const std::string& name = bench::ten_graph_suite()[i];
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
    rdbs_options.delta0 = delta0;
    adds_options.delta = delta0;

    const auto m_rdbs =
        bench::run_gpu_delta_stepping(csr, device, rdbs_options, sources);
    const auto m_adds = bench::run_adds(csr, device, adds_options, sources);

    const auto& paper = bench::paper_fig9()[i];
    const double update_factor =
        m_rdbs.total_updates <= 0 ? 0
                                  : m_adds.total_updates / m_rdbs.total_updates;
    table.add_row(
        {name, format_fixed(m_rdbs.redundancy_ratio(), 2),
         format_fixed(paper.rdbs_ratio, 2), format_speedup(update_factor),
         paper.adds_update_factor > 0 ? format_speedup(paper.adds_update_factor)
                                      : std::string("n/a"),
         format_speedup(m_adds.mean_ms / m_rdbs.mean_ms),
         format_speedup(paper.perf_speedup)});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
