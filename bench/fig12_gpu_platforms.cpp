// Fig. 12: RDBS running time on the two GPU platforms (V100 vs Tesla T4).
//
// Shape to reproduce: V100 wins everywhere; the paper's per-graph speedups
// range 1.47x-2.58x, consistent with the 2x SM-count and 2.8x bandwidth
// advantage. Launch overhead is platform-independent, so small graphs show
// a smaller gap (noted in EXPERIMENTS.md); use --size-scale to grow the
// inputs until compute/bandwidth dominate.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  // Default one notch larger than the other figures: the platform gap is a
  // compute/bandwidth effect.
  if (!args.has("size-scale")) config.size_scale = 4;

  std::printf("== Fig. 12: RDBS running time, Tesla T4 vs V100 ==\n");
  std::printf("size-scale=%d sources=%d\n\n", config.size_scale,
              config.num_sources);

  core::GpuSsspOptions rdbs_options;
  rdbs_options.delta0 = bench::kDefaultDelta0;

  TextTable table({"graph", "T4 ms", "V100 ms", "V100 speedup",
                   "paper speedup"});
  std::vector<bench::GBenchRow> gbench_rows;

  // Fig. 12 orders the graphs differently from the other figures.
  const std::vector<std::string> suite{"Amazon", "road-TX", "web-GL",
                                       "com-LJ", "soc-PK", "k-n21-16"};
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const graph::Csr csr = bench::load_bench_graph(suite[i], config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    rdbs_options.delta0 = bench::empirical_delta0(csr, config.seed);
    const auto m_t4 = bench::run_gpu_delta_stepping(csr, gpusim::tesla_t4(),
                                                    rdbs_options, sources);
    const auto m_v100 = bench::run_gpu_delta_stepping(csr, gpusim::v100(),
                                                      rdbs_options, sources);
    const auto& paper = bench::paper_fig12()[i];
    table.add_row({suite[i], format_fixed(m_t4.mean_ms, 3),
                   format_fixed(m_v100.mean_ms, 3),
                   format_speedup(m_t4.mean_ms / m_v100.mean_ms),
                   format_speedup(paper.v100_over_t4_speedup)});
    gbench_rows.push_back(
        {"fig12/T4/" + suite[i], m_t4.mean_ms, m_t4.mean_gteps});
    gbench_rows.push_back(
        {"fig12/V100/" + suite[i], m_v100.mean_ms, m_v100.mean_gteps});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}
