// Extension: ablate PRO's degree-descending choice (§4.1) against other
// vertex orderings. Every configuration gets the weight-sorted adjacency
// and heavy offsets (so only the relabeling varies), then the full RDBS
// engine runs on top. Expectation from the paper's reasoning: degree
// ordering wins on skewed graphs (hot distances cluster), loses nothing
// big elsewhere; random ordering is the floor.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"
#include "reorder/orderings.hpp"

using namespace rdbs;

namespace {

struct Ordering {
  const char* label;
  // Returns the permutation; identity when nullptr-like behavior desired.
  reorder::Permutation (*make)(const graph::Csr&, std::uint64_t seed);
};

reorder::Permutation identity_perm(const graph::Csr& csr, std::uint64_t) {
  std::vector<graph::VertexId> order(csr.num_vertices());
  for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) order[v] = v;
  return reorder::Permutation(std::move(order));
}
reorder::Permutation degree_perm(const graph::Csr& csr, std::uint64_t) {
  return reorder::degree_descending_permutation(csr);
}
reorder::Permutation random_perm(const graph::Csr& csr, std::uint64_t seed) {
  return reorder::random_permutation(csr, seed);
}
reorder::Permutation bfs_perm(const graph::Csr& csr, std::uint64_t) {
  return reorder::bfs_permutation(csr);
}
reorder::Permutation rcm_perm(const graph::Csr& csr, std::uint64_t) {
  return reorder::rcm_like_permutation(csr);
}
reorder::Permutation hub_perm(const graph::Csr& csr, std::uint64_t) {
  return reorder::hub_cluster_permutation(csr);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  std::printf("== Extension: vertex-ordering ablation of PRO ==\n");
  std::printf("device=%s size-scale=%d sources=%d (weight sort + heavy "
              "offsets on in every configuration)\n\n",
              device.name.c_str(), config.size_scale, config.num_sources);

  const Ordering orderings[] = {
      {"original", identity_perm}, {"random", random_perm},
      {"bfs", bfs_perm},           {"rcm-like", rcm_perm},
      {"hub-cluster", hub_perm},   {"degree (PRO)", degree_perm},
  };

  TextTable table({"graph", "original", "random", "bfs", "rcm-like",
                   "hub-cluster", "degree (PRO)", "best"});
  std::vector<bench::GBenchRow> gbench_rows;

  for (const std::string& name : bench::six_graph_suite()) {
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);

    std::vector<std::string> row{name};
    double best_ms = 1e300;
    std::string best_label;
    for (const Ordering& ordering : orderings) {
      const reorder::Permutation perm = ordering.make(csr, config.seed);
      const graph::Csr relabeled = reorder::apply_permutation(csr, perm);
      const graph::Csr prepared =
          reorder::sort_adjacency_by_weight(relabeled, delta0);

      core::GpuSsspOptions options;
      options.delta0 = delta0;
      // The graph is already fully prepared; construct the engine directly
      // (RdbsSolver would re-apply the degree ordering).
      core::GpuDeltaStepping engine(device, prepared, options);
      double total = 0;
      for (const auto s : sources) {
        total += engine.run(perm.to_reordered(s)).device_ms;
      }
      const double mean_ms = total / static_cast<double>(sources.size());
      row.push_back(format_fixed(mean_ms, 3));
      if (mean_ms < best_ms) {
        best_ms = mean_ms;
        best_label = ordering.label;
      }
      gbench_rows.push_back({"ordering/" + std::string(ordering.label) + "/" +
                                 name,
                             mean_ms, 0});
    }
    row.push_back(best_label);
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}
