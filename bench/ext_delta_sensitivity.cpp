// Extension: Δ0 sensitivity with and without BASYN's adaptive Δ.
//
// Sweeps Δ0 over multiplier steps around the empirical value on each graph
// and reports RDBS time in two legs. The engine ties the Eq. (1)-(2)
// controller to BASYN: an asynchronous phase 1 readjusts Δ per bucket, a
// synchronous one keeps Δ0. So the "sync" leg turns off both, and the
// "BASYN gain" column measures the asynchronous phase 1 and the controller
// together, not the controller alone. A flatter curve in the BASYN leg
// means a bad initial Δ hurts less there. Also prints the BASYN leg's
// phase-1 / phase-2&3 time split per Δ0, showing the
// parallelism-vs-scan-overhead tradeoff that drives the choice.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"graph"});
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);
  const std::string graph_name = args.get_string("graph", "soc-PK");

  const graph::Csr csr = bench::load_bench_graph(graph_name, config);
  const auto sources = bench::pick_sources(csr, config.num_sources,
                                           config.seed);
  const graph::Weight base_delta = bench::empirical_delta0(csr, config.seed);

  std::printf("== Extension: Δ0 sensitivity on %s (empirical Δ0 = %.1f) ==\n",
              graph_name.c_str(), base_delta);
  std::printf("device=%s size-scale=%d sources=%zu\n\n", device.name.c_str(),
              config.size_scale, sources.size());

  TextTable table({"Δ0 multiplier", "sync, fixed Δ ms",
                   "BASYN, adaptive Δ ms", "BASYN gain", "phase1 ms",
                   "phase2&3 ms", "buckets"});

  for (const double multiplier : {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const graph::Weight delta0 = base_delta * multiplier;

    core::GpuSsspOptions adaptive;
    adaptive.delta0 = delta0;
    adaptive.basyn = true;  // adaptive Δ rides with BASYN
    core::GpuSsspOptions fixed = adaptive;
    // Everything else identical; turning BASYN off makes phase 1
    // synchronous and holds Δ at Δ0.
    fixed.basyn = false;

    core::RdbsSolver fixed_solver(csr, device, fixed);
    core::RdbsSolver adaptive_solver(csr, device, adaptive);
    double fixed_ms = 0, adaptive_ms = 0, p1 = 0, p23 = 0, buckets = 0;
    for (const auto s : sources) {
      fixed_ms += fixed_solver.solve(s).device_ms;
      const auto result = adaptive_solver.solve(s);
      adaptive_ms += result.device_ms;
      p1 += result.total_phase1_ms();
      p23 += result.total_phase23_ms();
      buckets += static_cast<double>(result.buckets.size());
    }
    const auto runs = static_cast<double>(sources.size());
    fixed_ms /= runs;
    adaptive_ms /= runs;
    p1 /= runs;
    p23 /= runs;
    buckets /= runs;

    table.add_row({format_fixed(multiplier, 3), format_fixed(fixed_ms, 3),
                   format_fixed(adaptive_ms, 3),
                   format_speedup(fixed_ms / adaptive_ms),
                   format_fixed(p1, 3), format_fixed(p23, 3),
                   format_fixed(buckets, 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
