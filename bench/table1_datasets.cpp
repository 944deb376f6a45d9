// Table 1: detailed information of the real-world graphs.
//
// Prints the published statistics of the originals next to the statistics
// of the surrogate actually instantiated at the configured size scale, so
// the fidelity of each substitution is visible (family, average degree,
// diameter class, skew).
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"
#include "graph/stats.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);

  std::printf("== Table 1: dataset statistics (paper originals vs. "
              "instantiated surrogates) ==\n");
  std::printf("size-scale=%d seed=%llu%s\n\n", config.size_scale,
              static_cast<unsigned long long>(config.seed),
              config.data_dir.empty() ? " (surrogates)"
                                      : " (real data dir)");

  TextTable table({"graph", "paper |V|", "paper |E|", "paper avg_deg",
                   "paper diam", "ours |V|", "ours |E|(dir)", "ours avg_deg",
                   "ours diam~", "max_deg", "top1% share"});
  std::vector<bench::GBenchRow> gbench_rows;
  for (const auto& spec : graph::real_world_datasets()) {
    const graph::Csr csr = bench::load_bench_graph(spec.name, config);
    const graph::DegreeStats stats = graph::compute_degree_stats(csr);
    const std::uint32_t diameter = graph::approximate_diameter(
        csr, /*samples=*/2, config.seed);
    // The paper's |E| counts each undirected edge once; our CSR stores both
    // directions, so halve for the comparable column.
    table.add_row({spec.name, format_count(spec.paper_vertices),
                   format_count(spec.paper_edges),
                   format_fixed(spec.paper_avg_degree, 2),
                   std::to_string(spec.paper_diameter),
                   format_count(csr.num_vertices()),
                   format_count(csr.num_edges() / 2),
                   format_fixed(stats.average_degree / 2.0, 2),
                   std::to_string(diameter),
                   format_count(stats.max_degree),
                   format_percent(stats.top1pct_edge_share, 1)});
    gbench_rows.push_back({"table1/load/" + spec.name, 0.001, 0});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}
