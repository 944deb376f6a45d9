// Fig. 2: the number of active vertices in each bucket of Δ-stepping.
//
// Paper setting: Graph500 Kronecker graphs, SCALE 24/25, edgefactor 16,
// real weights in [0,1), Δ = 0.1, Graph500 reference Δ-stepping. We run the
// instrumented CPU Δ-stepping on two scaled-down Kronecker graphs (default
// SCALE 15/16, configurable) and print the per-bucket active-vertex series.
// The shape to reproduce: occupancy spikes in an early bucket, then decays
// over ~16 buckets — the load-imbalance motivation.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/delta_stepping.hpp"

using namespace rdbs;

namespace {

graph::Csr make_graph500(int scale, std::uint64_t seed) {
  graph::KroneckerParams params;
  params.scale = scale;
  params.edgefactor = 16;
  params.seed = seed;
  graph::EdgeList edges = graph::generate_kronecker(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformReal01, seed);
  graph::BuildOptions build;
  build.symmetrize = true;
  return graph::build_csr(edges, build);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"delta", "scale-a", "scale-b"});
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const int scale_a = static_cast<int>(args.get_int("scale-a", 15));
  const int scale_b = static_cast<int>(args.get_int("scale-b", 16));
  const double delta = args.get_double("delta", 0.1);

  std::printf("== Fig. 2: active vertices per bucket of Δ-stepping ==\n");
  std::printf("paper: SCALE 24/25, edgefactor 16, Δ=0.1 -> occupancy peaks "
              "early then decays over ~16 buckets\n");
  std::printf("ours: SCALE %d/%d (scaled down), same Δ and weights\n\n",
              scale_a, scale_b);

  std::vector<std::vector<std::uint64_t>> series;
  for (const int scale : {scale_a, scale_b}) {
    const graph::Csr csr = make_graph500(scale, config.seed);
    const auto sources = bench::pick_sources(csr, 1, config.seed);
    sssp::DeltaSteppingOptions options;
    options.delta = delta;
    options.instrument = true;
    const auto result = sssp::delta_stepping(csr, sources[0], options);
    series.push_back(result.trace.active_per_bucket);
    std::printf("SCALE=%d: %llu vertices, %llu directed edges, peak bucket "
                "%zu\n",
                scale,
                static_cast<unsigned long long>(csr.num_vertices()),
                static_cast<unsigned long long>(csr.num_edges()),
                result.trace.peak_bucket());
  }

  const std::size_t buckets =
      std::max(series[0].size(), series[1].size());
  TextTable table({"bucket id", "SCALE=" + std::to_string(scale_a),
                   "SCALE=" + std::to_string(scale_b)});
  for (std::size_t b = 0; b < std::min<std::size_t>(buckets, 24); ++b) {
    table.add_row({std::to_string(b),
                   b < series[0].size() ? format_count(series[0][b]) : "0",
                   b < series[1].size() ? format_count(series[1][b]) : "0"});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
