// Fig. 3: per-iteration active vertices of phase 1 in the peak bucket, and
// valid vs. total updates.
//
// Paper: for SCALE 24/25 Kronecker graphs the peak bucket's phase 1 runs
// 20-30 synchronous iterations, and total updates exceed valid updates by
// ~4.5x on SCALE 25 — the work-inefficiency motivation for BASYN. The same
// instrumented CPU Δ-stepping reproduces the shape on scaled-down graphs.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/delta_stepping.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"delta", "scale-a", "scale-b"});
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const int scale_a = static_cast<int>(args.get_int("scale-a", 15));
  const int scale_b = static_cast<int>(args.get_int("scale-b", 16));
  const double delta = args.get_double("delta", 0.1);

  std::printf("== Fig. 3: phase-1 iterations in the peak bucket ==\n");
  std::printf("paper (SCALE 25): >20 iterations; total updates 30,741,651 = "
              "4.49x valid updates 6,843,263\n\n");

  std::vector<bench::GBenchRow> gbench_rows;
  std::vector<std::vector<std::uint64_t>> iteration_series;
  for (const int scale : {scale_a, scale_b}) {
    graph::KroneckerParams params;
    params.scale = scale;
    params.edgefactor = 16;
    params.seed = config.seed;
    graph::EdgeList edges = graph::generate_kronecker(params);
    graph::assign_weights(edges, graph::WeightScheme::kUniformReal01,
                          config.seed);
    graph::BuildOptions build;
    build.symmetrize = true;
    const graph::Csr csr = graph::build_csr(edges, build);

    const auto sources = bench::pick_sources(csr, 1, config.seed);
    sssp::DeltaSteppingOptions options;
    options.delta = delta;
    options.instrument = true;
    Timer timer;
    const auto result = sssp::delta_stepping(csr, sources[0], options);
    const double wall_ms = timer.milliseconds();

    const std::size_t peak = result.trace.peak_bucket();
    iteration_series.push_back(result.trace.phase1_frontiers[peak]);
    const auto& work = result.sssp.work;
    std::printf(
        "SCALE=%d: peak bucket %zu with %zu phase-1 iterations; "
        "total updates %llu, valid updates %llu (ratio %.2fx)\n",
        scale, peak, result.trace.phase1_frontiers[peak].size(),
        static_cast<unsigned long long>(work.total_updates),
        static_cast<unsigned long long>(work.valid_updates),
        work.redundancy_ratio());
    gbench_rows.push_back({"fig3/delta_stepping/scale" + std::to_string(scale),
                           wall_ms, 0});
  }

  std::printf("\n");
  const std::size_t iterations = std::max(iteration_series[0].size(),
                                          iteration_series[1].size());
  TextTable table({"iteration", "SCALE=" + std::to_string(scale_a),
                   "SCALE=" + std::to_string(scale_b)});
  for (std::size_t i = 0; i < std::min<std::size_t>(iterations, 31); ++i) {
    table.add_row(
        {std::to_string(i + 1),
         i < iteration_series[0].size() ? format_count(iteration_series[0][i])
                                        : "0",
         i < iteration_series[1].size() ? format_count(iteration_series[1][i])
                                        : "0"});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}
