// Tests for the extension modules: the legacy GPU baselines (Harish-
// Narayanan 2007, Davidson 2014) and alternative orderings.
#include <gtest/gtest.h>

#include <set>

#include "core/legacy_gpu.hpp"
#include "core/rdbs.hpp"
#include "reorder/orderings.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;
using test::random_grid_graph;
using test::random_powerlaw_graph;

// --- Harish-Narayanan -------------------------------------------------------

TEST(HarishNarayanan, TopologyDrivenScansAreVisible) {
  // HN07 scans all V every iteration: its load count must dwarf RDBS's on
  // the same graph.
  const Csr csr = random_powerlaw_graph(1000, 8000, 93);
  core::HarishNarayanan hn(gpusim::v100(), csr);
  core::RdbsSolver rdbs(csr, gpusim::v100());
  const auto hn_result = hn.run(0);
  const auto rdbs_result = rdbs.solve(0);
  EXPECT_GT(hn_result.counters.inst_executed_global_loads,
            rdbs_result.counters.inst_executed_global_loads);
  EXPECT_GT(hn_result.device_ms, rdbs_result.device_ms);
}

// --- Davidson Near-Far ------------------------------------------------------

TEST(DavidsonNearFar, EdgeBalancedSweepBeatsThreadPerVertexOnHubs) {
  // Workfront Sweep's raison d'etre: on a hub graph its edge-balanced
  // chunks avoid the max-degree warp stall of HN07's vertex mapping.
  // Hubs big enough that HN07's max-degree warp stall outweighs Davidson's
  // extra per-iteration launches.
  graph::StarHeavyParams params;
  params.num_vertices = 4000;
  params.num_hubs = 2;
  params.num_edges = 120000;
  params.seed = 99;
  graph::EdgeList edges = graph::generate_star_heavy(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, 99);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);

  core::DavidsonOptions options;
  options.delta = 300.0;
  core::DavidsonNearFar davidson(gpusim::v100(), csr, options);
  core::HarishNarayanan hn(gpusim::v100(), csr);
  EXPECT_LT(davidson.run(0).device_ms, hn.run(0).device_ms);
}

// --- alternative orderings --------------------------------------------------

class OrderingTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderingTest, IsValidPermutationAndPreservesDistances) {
  const Csr csr = random_powerlaw_graph(300, 2400, 107);
  reorder::Permutation perm;
  switch (GetParam()) {
    case 0: perm = reorder::random_permutation(csr, 9); break;
    case 1: perm = reorder::bfs_permutation(csr); break;
    case 2: perm = reorder::rcm_like_permutation(csr); break;
    default: perm = reorder::hub_cluster_permutation(csr); break;
  }
  ASSERT_EQ(perm.size(), csr.num_vertices());
  // Bijectivity.
  std::set<VertexId> seen;
  for (VertexId r = 0; r < perm.size(); ++r) {
    seen.insert(perm.to_original(r));
  }
  EXPECT_EQ(seen.size(), csr.num_vertices());

  const Csr relabeled = reorder::apply_permutation(csr, perm);
  const auto reference = sssp::dijkstra(csr, 5);
  const auto mapped = perm.unpermute(
      sssp::dijkstra(relabeled, perm.to_reordered(5)).distances);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(mapped[v], reference.distances[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, OrderingTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(Orderings, BfsPlacesNeighborsNearby) {
  // On a path graph, BFS ordering is (near-)sequential: the mean absolute
  // id distance between neighbors must be far below the random ordering's.
  graph::EdgeList edges;
  edges.num_vertices = 256;
  for (VertexId v = 0; v + 1 < 256; ++v) edges.add_edge(v, v + 1, 1.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);

  auto mean_gap = [&](const reorder::Permutation& perm) {
    double total = 0;
    std::uint64_t count = 0;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      for (const VertexId u : csr.neighbors(v)) {
        total += std::abs(static_cast<double>(perm.to_reordered(v)) -
                          static_cast<double>(perm.to_reordered(u)));
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };
  EXPECT_LT(mean_gap(reorder::bfs_permutation(csr)),
            mean_gap(reorder::random_permutation(csr, 3)) / 4);
}

TEST(Orderings, RcmReversesAndStaysBijective) {
  const Csr csr = random_grid_graph(10, 111);
  const reorder::Permutation perm = reorder::rcm_like_permutation(csr);
  EXPECT_EQ(perm.size(), csr.num_vertices());
  EXPECT_EQ(perm.to_reordered(perm.to_original(0)), 0u);
}

TEST(Orderings, HubClusterPutsTopHubFirst) {
  const Csr csr = random_powerlaw_graph(500, 8000, 113);
  VertexId top = 0;
  for (VertexId v = 1; v < csr.num_vertices(); ++v) {
    if (csr.degree(v) > csr.degree(top)) top = v;
  }
  const reorder::Permutation perm = reorder::hub_cluster_permutation(csr);
  EXPECT_EQ(perm.to_original(0), top);
}

}  // namespace
}  // namespace rdbs
