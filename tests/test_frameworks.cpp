// Tests for the related-work framework models: the Ligra-like edgeMap
// framework (CPU) and the Gunrock-like advance/filter SSSP (gpusim).
#include <gtest/gtest.h>

#include <set>

#include "core/gunrock_like.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/ligra_like.hpp"
#include "sssp/validate.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;
using test::paper_figure1_graph;
using test::random_grid_graph;
using test::random_powerlaw_graph;

// --- Ligra-like ---------------------------------------------------------------

TEST(VertexSubset, AddDeduplicates) {
  sssp::ligra::VertexSubset subset(10);
  subset.add(3);
  subset.add(3);
  subset.add(7);
  EXPECT_EQ(subset.size(), 2u);
  EXPECT_TRUE(subset.contains(3));
  EXPECT_TRUE(subset.contains(7));
  EXPECT_FALSE(subset.contains(5));
}

TEST(VertexSubset, ClearResetsBothForms) {
  sssp::ligra::VertexSubset subset(4);
  subset.add(1);
  subset.clear();
  EXPECT_TRUE(subset.empty());
  EXPECT_FALSE(subset.contains(1));
}

TEST(EdgeMap, SparseModeVisitsFrontierOutEdges) {
  // A single-vertex frontier on a larger graph stays far below the |E|/20
  // dense threshold, so the sparse (push) direction must run.
  const Csr csr = random_powerlaw_graph(400, 3200, 159);
  sssp::ligra::VertexSubset frontier(csr.num_vertices(), {0});
  std::set<VertexId> touched;
  sssp::ligra::EdgeMapFunctor f;
  f.cond = [](VertexId) { return true; };
  f.update = [&](VertexId, VertexId v, graph::Weight) {
    touched.insert(v);
    return true;
  };
  sssp::ligra::EdgeMapStats stats;
  const auto next = sssp::ligra::edge_map(csr, frontier, f, &stats);
  EXPECT_EQ(stats.sparse_rounds, 1u);
  EXPECT_EQ(stats.dense_rounds, 0u);
  // Every out-neighbor of vertex 0 was touched exactly once.
  std::set<VertexId> expected(csr.neighbors(0).begin(),
                              csr.neighbors(0).end());
  EXPECT_EQ(touched, expected);
  EXPECT_EQ(next.size(), expected.size());
}

TEST(EdgeMap, DenseModeKicksInForLargeFrontiers) {
  const Csr csr = random_powerlaw_graph(400, 3200, 161);
  std::vector<VertexId> everyone(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) everyone[v] = v;
  sssp::ligra::VertexSubset frontier(csr.num_vertices(), everyone);
  sssp::ligra::EdgeMapFunctor f;
  f.cond = [](VertexId) { return true; };
  f.update = [](VertexId, VertexId, graph::Weight) { return false; };
  sssp::ligra::EdgeMapStats stats;
  sssp::ligra::edge_map(csr, frontier, f, &stats);
  EXPECT_EQ(stats.dense_rounds, 1u);
  EXPECT_EQ(stats.sparse_rounds, 0u);
}

TEST(EdgeMap, CondGatesDestinations) {
  const Csr csr = paper_figure1_graph();
  sssp::ligra::VertexSubset frontier(csr.num_vertices(), {0});
  sssp::ligra::EdgeMapFunctor f;
  f.cond = [](VertexId v) { return v != 2; };  // never consider vertex 2
  f.update = [](VertexId, VertexId, graph::Weight) { return true; };
  const auto next = sssp::ligra::edge_map(csr, frontier, f);
  EXPECT_FALSE(next.contains(2));
  EXPECT_TRUE(next.contains(1));
}

TEST(LigraSssp, MatchesDijkstra) {
  const Csr csr = random_powerlaw_graph(700, 5600, 163);
  const auto result = sssp::ligra::sssp_bellman_ford(csr, 3);
  const auto reference = sssp::dijkstra(csr, 3);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_DOUBLE_EQ(result.sssp.distances[v], reference.distances[v]);
  }
  const auto verdict =
      sssp::validate_distances(csr, 3, result.sssp.distances);
  EXPECT_FALSE(verdict.has_value()) << *verdict;
}

TEST(LigraSssp, UsesBothDirectionsOnDenseGraph) {
  // A dense power-law graph pushes the mid-traversal frontiers over the
  // |E|/20 threshold, so the run must mix sparse and dense rounds.
  const Csr csr = random_powerlaw_graph(1000, 16000, 165);
  const auto result = sssp::ligra::sssp_bellman_ford(csr, 0);
  EXPECT_GT(result.stats.sparse_rounds, 0u);
  EXPECT_GT(result.stats.dense_rounds, 0u);
}

TEST(LigraSssp, GridMatchesDijkstraAndStartsSparse) {
  // Grid frontiers start as small BFS rings (sparse rounds first), whatever
  // the traversal switches to mid-run.
  const Csr csr = random_grid_graph(24, 167);
  const auto result = sssp::ligra::sssp_bellman_ford(csr, 0);
  EXPECT_GT(result.stats.sparse_rounds, 0u);
  const auto reference = sssp::dijkstra(csr, 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_DOUBLE_EQ(result.sssp.distances[v], reference.distances[v]);
  }
}

// --- Gunrock-like ---------------------------------------------------------------

TEST(GunrockSssp, BulkSynchronousLaunchesPerIteration) {
  // Gunrock's bulk-synchronous pipeline: at least two kernels (advance +
  // filter) per iteration — visibly more launches than iterations.
  const Csr csr = random_powerlaw_graph(500, 4000, 177);
  core::GunrockLike engine(gpusim::test_device(), csr, {});
  const auto result = engine.run(0);
  EXPECT_GE(result.counters.kernel_launches,
            2 * result.sssp.work.iterations);
}

}  // namespace
}  // namespace rdbs
