// Fig. 11: scalability with graph scale — GTEPS and speedup vs ADDS over a
// SCALE x edgefactor sweep of Graph500 Kronecker graphs.
//
// Paper: SCALE 22-24, edgefactor 8-64. We default to SCALE 13-15 (scaled
// to the harness; override with --scales / --min-scale). Shape to
// reproduce: GTEPS grows with edgefactor and (mildly) with SCALE; the
// ADDS speedup grows in the same directions.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"min-scale", "num-scales"});
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);
  const int min_scale = static_cast<int>(args.get_int("min-scale", 14));
  const int num_scales = static_cast<int>(args.get_int("num-scales", 3));

  std::printf("== Fig. 11: GTEPS and speedup vs ADDS across SCALE x "
              "edgefactor ==\n");
  std::printf("device=%s scales=%d..%d edgefactors=8,16,32,64 sources=%d\n\n",
              device.name.c_str(), min_scale, min_scale + num_scales - 1,
              config.num_sources);

  core::GpuSsspOptions rdbs_options;
  rdbs_options.delta0 = bench::kDefaultDelta0;
  core::AddsOptions adds_options;
  adds_options.delta = bench::kDefaultDelta0;

  TextTable table({"SCALE", "edgefactor", "RDBS ms", "RDBS GTEPS",
                   "ADDS ms", "speedup", "paper GTEPS", "paper speedup"});
  std::size_t paper_row = 0;

  for (int scale = min_scale; scale < min_scale + num_scales; ++scale) {
    for (const int edgefactor : {8, 16, 32, 64}) {
      graph::KroneckerParams params;
      params.scale = scale;
      params.edgefactor = edgefactor;
      params.seed = config.seed;
      graph::EdgeList edges = graph::generate_kronecker(params);
      graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000,
                            config.seed);
      graph::BuildOptions build;
      build.symmetrize = true;
      const graph::Csr csr = graph::build_csr(edges, build);
      const auto sources =
          bench::pick_sources(csr, config.num_sources, config.seed);
      const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
      rdbs_options.delta0 = delta0;
      adds_options.delta = delta0;

      const auto m_rdbs =
          bench::run_gpu_delta_stepping(csr, device, rdbs_options, sources);
      const auto m_adds = bench::run_adds(csr, device, adds_options, sources);

      const auto& paper =
          bench::paper_fig11()[std::min(paper_row,
                                        bench::paper_fig11().size() - 1)];
      table.add_row({std::to_string(scale), std::to_string(edgefactor),
                     format_fixed(m_rdbs.mean_ms, 3),
                     format_fixed(m_rdbs.mean_gteps, 2),
                     format_fixed(m_adds.mean_ms, 3),
                     format_speedup(m_adds.mean_ms / m_rdbs.mean_ms),
                     format_fixed(paper.gteps, 2),
                     format_speedup(paper.speedup_vs_adds)});
      ++paper_row;
    }
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
