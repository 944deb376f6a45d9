// Tests for the SEP-Graph-style hybrid engine and the shortest-path-tree
// reconstruction utilities.
#include <gtest/gtest.h>

#include "core/sep_hybrid.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/paths.hpp"
#include "sssp/validate.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::Distance;
using graph::VertexId;
using test::paper_figure1_graph;
using test::random_grid_graph;
using test::random_powerlaw_graph;

// --- SEP hybrid --------------------------------------------------------------

TEST(SepHybrid, MatchesDijkstraOnFigure1) {
  const Csr csr = paper_figure1_graph();
  core::SepHybrid sep(gpusim::test_device(), csr);
  const auto result = sep.run(0);
  const auto reference = sssp::dijkstra(csr, 0);
  ASSERT_EQ(result.gpu.sssp.distances.size(), reference.distances.size());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(result.gpu.sssp.distances[v], reference.distances[v]);
  }
}

TEST(SepHybrid, MatchesDijkstraOnPowerLaw) {
  const Csr csr = random_powerlaw_graph(800, 6400, 141);
  core::SepHybrid sep(gpusim::test_device(), csr);
  const auto result = sep.run(5);
  const auto verdict =
      sssp::validate_distances(csr, 5, result.gpu.sssp.distances);
  EXPECT_FALSE(verdict.has_value()) << *verdict;
  const auto reference = sssp::dijkstra(csr, 5);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(result.gpu.sssp.distances[v], reference.distances[v]);
  }
}

TEST(SepHybrid, MatchesDijkstraOnGrid) {
  const Csr csr = random_grid_graph(20, 143);
  core::SepHybrid sep(gpusim::test_device(), csr);
  const auto result = sep.run(0);
  const auto reference = sssp::dijkstra(csr, 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(result.gpu.sssp.distances[v], reference.distances[v]);
  }
}

TEST(SepHybrid, UsesMultipleModesOnPowerLaw) {
  // A dense power-law frontier must trigger at least one pull round while
  // the narrow start/tail rounds run as push.
  const Csr csr = random_powerlaw_graph(2000, 32000, 145);
  core::SepHybridOptions options;
  options.pull_edge_fraction = 0.05;
  options.async_frontier_limit = 64;
  core::SepHybrid sep(gpusim::test_device(), csr, options);
  const auto result = sep.run(0);
  bool saw_pull = false, saw_push = false;
  for (const auto& round : result.rounds) {
    saw_pull |= (round.mode == core::SepMode::kSyncPull);
    saw_push |= (round.mode != core::SepMode::kSyncPull);
  }
  EXPECT_TRUE(saw_pull);
  EXPECT_TRUE(saw_push);
}

TEST(SepHybrid, PullRoundsIssueNoAtomics) {
  // Force pull-only by setting the threshold to zero: atomic instruction
  // count must stay at (almost) zero — pull's defining property.
  const Csr csr = random_powerlaw_graph(500, 4000, 147);
  core::SepHybridOptions options;
  options.pull_edge_fraction = 0.0;  // always pull
  core::SepHybrid sep(gpusim::test_device(), csr, options);
  const auto result = sep.run(0);
  EXPECT_EQ(result.gpu.counters.inst_executed_atomics, 0u);
  const auto reference = sssp::dijkstra(csr, 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(result.gpu.sssp.distances[v], reference.distances[v]);
  }
}

TEST(SepHybrid, RoundTraceAccountsForTime) {
  const Csr csr = random_powerlaw_graph(400, 3200, 149);
  core::SepHybrid sep(gpusim::test_device(), csr);
  const auto result = sep.run(0);
  ASSERT_FALSE(result.rounds.empty());
  double total = 0;
  for (const auto& round : result.rounds) {
    EXPECT_GT(round.frontier, 0u);
    total += round.ms;
  }
  EXPECT_LE(total, result.gpu.device_ms + 1e-9);
  EXPECT_GT(total, 0.5 * result.gpu.device_ms);  // init kernels excluded
}

// --- parent trees / path extraction ------------------------------------------

TEST(Paths, ParentTreeOnFigure1) {
  const Csr csr = paper_figure1_graph();
  const auto dist = sssp::dijkstra(csr, 0).distances;
  const auto parents = sssp::build_parent_tree(csr, 0, dist);
  EXPECT_EQ(parents[0], graph::kInvalidVertex);
  EXPECT_FALSE(sssp::validate_parent_tree(csr, 0, dist, parents).has_value());
  // dist[7] = 2 via 0-2-7.
  const auto path = sssp::extract_path(parents, 0, 7);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<VertexId>{0, 2, 7}));
}

TEST(Paths, PathCostsMatchDistances) {
  const Csr csr = random_powerlaw_graph(600, 4800, 151);
  const auto dist = sssp::dijkstra(csr, 3).distances;
  const auto parents = sssp::build_parent_tree(csr, 3, dist);
  EXPECT_FALSE(sssp::validate_parent_tree(csr, 3, dist, parents).has_value());
  for (VertexId target : {7u, 100u, 599u}) {
    if (dist[target] == graph::kInfiniteDistance) continue;
    const auto path = sssp::extract_path(parents, 3, target);
    ASSERT_TRUE(path.has_value());
    // Walk the path, summing edge weights in order.
    Distance total = 0;
    for (std::size_t i = 0; i + 1 < path->size(); ++i) {
      const VertexId u = (*path)[i];
      const VertexId v = (*path)[i + 1];
      bool found = false;
      const auto neighbors = csr.neighbors(u);
      const auto weights = csr.edge_weights(u);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        if (neighbors[k] == v && total + weights[k] == dist[v]) {
          total += weights[k];
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "missing attaining edge " << u << "->" << v;
    }
    EXPECT_DOUBLE_EQ(total, dist[target]);
  }
}

TEST(Paths, UnreachedTargetHasNoPath) {
  graph::EdgeList edges;
  edges.num_vertices = 4;
  edges.add_edge(0, 1, 1.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  const auto dist = sssp::dijkstra(csr, 0).distances;
  const auto parents = sssp::build_parent_tree(csr, 0, dist);
  EXPECT_FALSE(sssp::extract_path(parents, 0, 3).has_value());
  EXPECT_FALSE(sssp::validate_parent_tree(csr, 0, dist, parents).has_value());
}

TEST(Paths, SourcePathIsItself) {
  const Csr csr = paper_figure1_graph();
  const auto dist = sssp::dijkstra(csr, 4).distances;
  const auto parents = sssp::build_parent_tree(csr, 4, dist);
  const auto path = sssp::extract_path(parents, 4, 4);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<VertexId>{4}));
}

TEST(Paths, ValidatorCatchesCorruptTree) {
  const Csr csr = paper_figure1_graph();
  const auto dist = sssp::dijkstra(csr, 0).distances;
  auto parents = sssp::build_parent_tree(csr, 0, dist);
  parents[7] = 5;  // 5 is not adjacent to 7
  EXPECT_TRUE(sssp::validate_parent_tree(csr, 0, dist, parents).has_value());
}

TEST(Paths, ZeroWeightCycleParentsLeadBackToTheSource) {
  const Csr csr = test::zero_cycle_tie_graph();
  const auto dist = sssp::dijkstra(csr, 0).distances;
  const auto parents = sssp::build_parent_tree(csr, 0, dist);
  EXPECT_FALSE(sssp::validate_parent_tree(csr, 0, dist, parents).has_value());
  EXPECT_EQ(sssp::extract_path(parents, 0, 1),
            (std::vector<VertexId>{0, 3, 1}));
  EXPECT_EQ(sssp::extract_path(parents, 0, 2),
            (std::vector<VertexId>{0, 3, 2}));
}

TEST(Paths, ValidatorRejectsParentCycle) {
  const Csr csr = test::zero_cycle_tie_graph();
  const auto dist = sssp::dijkstra(csr, 0).distances;
  // Every parent edge exists and attains its distance, but 1 and 2 point
  // at each other instead of back to the source.
  const std::vector<VertexId> parents{graph::kInvalidVertex, 2, 1, 0};
  EXPECT_TRUE(sssp::validate_parent_tree(csr, 0, dist, parents).has_value());
}

TEST(Paths, ZeroWeightCycleBehindAnEdge) {
  const Csr csr = test::zero_cycle_graph();
  const auto dist = sssp::dijkstra(csr, 0).distances;
  const auto parents = sssp::build_parent_tree(csr, 0, dist);
  EXPECT_FALSE(sssp::validate_parent_tree(csr, 0, dist, parents).has_value());
  EXPECT_EQ(sssp::extract_path(parents, 0, 2),
            (std::vector<VertexId>{0, 1, 2}));
}

TEST(Paths, UnreachableZeroWeightPairHasNoPath) {
  const Csr csr = test::unreachable_zero_pair_graph();
  const auto dist = sssp::dijkstra(csr, 0).distances;
  const auto parents = sssp::build_parent_tree(csr, 0, dist);
  EXPECT_FALSE(sssp::validate_parent_tree(csr, 0, dist, parents).has_value());
  EXPECT_FALSE(sssp::extract_path(parents, 0, 2).has_value());
  EXPECT_FALSE(sssp::extract_path(parents, 0, 3).has_value());
}

TEST(Paths, WorksOnEngineOutput) {
  // Parent reconstruction is engine-agnostic: feed it RDBS distances.
  const Csr csr = random_powerlaw_graph(300, 2400, 153);
  core::SepHybrid sep(gpusim::test_device(), csr);
  const auto result = sep.run(1);
  const auto parents =
      sssp::build_parent_tree(csr, 1, result.gpu.sssp.distances);
  EXPECT_FALSE(sssp::validate_parent_tree(csr, 1, result.gpu.sssp.distances,
                                          parents)
                   .has_value());
}

}  // namespace
}  // namespace rdbs
