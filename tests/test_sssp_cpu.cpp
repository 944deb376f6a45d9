// Correctness and property tests for the CPU SSSP algorithms: Dijkstra is
// the oracle; every other implementation must produce identical distances
// on every test graph, and all must pass the independent certificate in
// sssp::validate_distances. Parameterized sweeps cover graph families,
// weight schemes and Δ values.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/stats.hpp"
#include "reorder/pro.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/ligra_like.hpp"
#include "sssp/pq_delta_star.hpp"
#include "sssp/validate.hpp"
#include "test_util.hpp"

namespace rdbs::sssp {
namespace {

using test::paper_figure1_graph;
using test::random_grid_graph;
using test::random_powerlaw_graph;

void expect_distances_equal(const std::vector<Distance>& actual,
                            const std::vector<Distance>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t v = 0; v < actual.size(); ++v) {
    EXPECT_DOUBLE_EQ(actual[v], expected[v]) << "vertex " << v;
  }
}

TEST(Dijkstra, PaperFigure1FromVertex0) {
  const Csr csr = paper_figure1_graph();
  const SsspResult result = dijkstra(csr, 0);
  // Hand-checked shortest distances on Fig. 1(a).
  EXPECT_DOUBLE_EQ(result.distances[0], 0);
  EXPECT_DOUBLE_EQ(result.distances[1], 5);
  EXPECT_DOUBLE_EQ(result.distances[2], 1);
  EXPECT_DOUBLE_EQ(result.distances[3], 3);
  EXPECT_DOUBLE_EQ(result.distances[4], 3);   // 0-2-7-4 = 1+1+1
  EXPECT_DOUBLE_EQ(result.distances[5], 6);   // 0-1-5
  EXPECT_DOUBLE_EQ(result.distances[6], 6);   // 0-3-6 = 3+3
  EXPECT_DOUBLE_EQ(result.distances[7], 2);   // 0-2-7
  EXPECT_FALSE(validate_distances(csr, 0, result.distances).has_value());
}

TEST(Dijkstra, UnreachableVerticesStayInfinite) {
  graph::EdgeList edges;
  edges.num_vertices = 4;
  edges.add_edge(0, 1, 1.0);
  graph::BuildOptions options;
  options.symmetrize = true;
  const Csr csr = graph::build_csr(edges, options);
  const SsspResult result = dijkstra(csr, 0);
  EXPECT_DOUBLE_EQ(result.distances[1], 1.0);
  EXPECT_EQ(result.distances[2], graph::kInfiniteDistance);
  EXPECT_EQ(result.distances[3], graph::kInfiniteDistance);
  EXPECT_EQ(result.reached_count(), 2u);
  EXPECT_EQ(result.work.valid_updates, 1u);  // source excluded
}

TEST(Dijkstra, SingleVertexGraph) {
  graph::EdgeList edges;
  edges.num_vertices = 1;
  const Csr csr = graph::build_csr(edges);
  const SsspResult result = dijkstra(csr, 0);
  EXPECT_DOUBLE_EQ(result.distances[0], 0);
  EXPECT_FALSE(validate_distances(csr, 0, result.distances).has_value());
}

TEST(Dijkstra, ZeroWeightEdges) {
  graph::EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 0.0);
  edges.add_edge(1, 2, 0.0);
  graph::BuildOptions options;
  options.symmetrize = true;
  const Csr csr = graph::build_csr(edges, options);
  const SsspResult result = dijkstra(csr, 0);
  EXPECT_DOUBLE_EQ(result.distances[2], 0.0);
}

TEST(Validate, DetectsRelaxableEdge) {
  const Csr csr = paper_figure1_graph();
  auto dist = dijkstra(csr, 0).distances;
  dist[7] = 100;  // feasibility violated: 0->2->7 relaxes it
  EXPECT_TRUE(validate_distances(csr, 0, dist).has_value());
}

TEST(Validate, DetectsUnattainedDistance) {
  const Csr csr = paper_figure1_graph();
  auto dist = dijkstra(csr, 0).distances;
  dist[7] = 0.5;  // nothing attains 0.5
  EXPECT_TRUE(validate_distances(csr, 0, dist).has_value());
}

TEST(Validate, DetectsWrongSource) {
  const Csr csr = paper_figure1_graph();
  auto dist = dijkstra(csr, 0).distances;
  dist[0] = 1.0;
  EXPECT_TRUE(validate_distances(csr, 0, dist).has_value());
}

TEST(Validate, RejectsZeroWeightCycleUnderestimate) {
  const Csr csr = test::zero_cycle_graph();
  const auto exact = dijkstra(csr, 0).distances;
  EXPECT_EQ(exact, (std::vector<Distance>{0, 10, 10}));
  EXPECT_FALSE(validate_distances(csr, 0, exact).has_value());
  // No edge relaxes and 1, 2 attain each other's 5 through the cycle, but
  // no tight path from the source reaches them.
  EXPECT_TRUE(validate_distances(csr, 0, {0, 5, 5}).has_value());
}

TEST(Validate, RejectsUnreachableZeroWeightPair) {
  const Csr csr = test::unreachable_zero_pair_graph();
  const auto exact = dijkstra(csr, 0).distances;
  EXPECT_EQ(exact[2], graph::kInfiniteDistance);
  EXPECT_FALSE(validate_distances(csr, 0, exact).has_value());
  EXPECT_TRUE(validate_distances(csr, 0, {0, 1, 7, 7}).has_value());
}

TEST(Validate, AcceptsZeroWeightTiesReachedFromTheSource) {
  const Csr csr = test::zero_cycle_tie_graph();
  const auto exact = dijkstra(csr, 0).distances;
  EXPECT_EQ(exact, (std::vector<Distance>{0, 10, 10, 5}));
  EXPECT_FALSE(validate_distances(csr, 0, exact).has_value());
}

TEST(BellmanFord, MatchesDijkstraOnFigure1) {
  const Csr csr = paper_figure1_graph();
  expect_distances_equal(bellman_ford(csr, 0).distances,
                         dijkstra(csr, 0).distances);
}

TEST(BellmanFord, DoesMoreWorkThanDijkstra) {
  const Csr csr = random_powerlaw_graph(1024, 8192, 17);
  const auto bf = bellman_ford(csr, 0);
  const auto dj = dijkstra(csr, 0);
  // Same distances, but Bellman-Ford's update redundancy is >= Dijkstra's.
  expect_distances_equal(bf.distances, dj.distances);
  EXPECT_GE(bf.work.total_updates, dj.work.total_updates);
}

TEST(DeltaStepping, ExtremesMatchTheory) {
  // Δ -> infinity degenerates to Bellman-Ford; tiny Δ approaches Dijkstra.
  const Csr csr = random_powerlaw_graph(512, 4096, 19);
  const auto reference = dijkstra(csr, 5);
  expect_distances_equal(delta_stepping_distances(csr, 5, 1e18).distances,
                         reference.distances);
  expect_distances_equal(delta_stepping_distances(csr, 5, 1.0).distances,
                         reference.distances);
}

TEST(DeltaStepping, InstrumentationTracksBuckets) {
  const Csr csr = random_powerlaw_graph(1024, 8192, 23);
  DeltaSteppingOptions options;
  options.delta = 200.0;
  options.instrument = true;
  const DeltaSteppingResult result = delta_stepping(csr, 0, options);
  ASSERT_FALSE(result.trace.active_per_bucket.empty());
  // Total distinct activations >= reached vertices (a vertex can activate
  // in multiple buckets, but each reached vertex activates at least once).
  std::uint64_t total = 0;
  for (const auto count : result.trace.active_per_bucket) total += count;
  EXPECT_GE(total, result.sssp.reached_count() - 1);
  // The peak bucket must be a valid index.
  EXPECT_LT(result.trace.peak_bucket(),
            result.trace.active_per_bucket.size());
  // Phase-1 frontier sizes of the peak bucket are non-empty.
  EXPECT_FALSE(
      result.trace.phase1_frontiers[result.trace.peak_bucket()].empty());
}

TEST(DeltaStepping, UsesHeavyOffsetsWhenPresent) {
  const Csr plain = random_powerlaw_graph(512, 4096, 29);
  Csr sorted = rdbs::reorder::sort_adjacency_by_weight(plain, 150.0);
  DeltaSteppingOptions options;
  options.delta = 150.0;
  const auto with_split = delta_stepping(sorted, 3, options);
  const auto without = delta_stepping(plain, 3, options);
  expect_distances_equal(with_split.sssp.distances, without.sssp.distances);
}

TEST(PqDeltaStar, MatchesDijkstra) {
  const Csr csr = random_powerlaw_graph(512, 4096, 37);
  PqDeltaStarOptions options;
  options.delta_star = 100.0;
  expect_distances_equal(pq_delta_star(csr, 2, options).distances,
                         dijkstra(csr, 2).distances);
}

TEST(PqDeltaStar, WindowAdaptationStaysCorrect) {
  const Csr csr = random_powerlaw_graph(2048, 32768, 41);
  PqDeltaStarOptions options;
  options.delta_star = 10.0;   // forces many window doublings
  options.target_batch = 64;
  expect_distances_equal(pq_delta_star(csr, 7, options).distances,
                         dijkstra(csr, 7).distances);
}

void expect_same_run(const SsspResult& a, const SsspResult& b) {
  EXPECT_EQ(a.distances, b.distances);
  EXPECT_EQ(a.work.iterations, b.work.iterations);
  EXPECT_EQ(a.work.relaxations, b.work.relaxations);
  EXPECT_EQ(a.work.total_updates, b.work.total_updates);
  EXPECT_EQ(a.work.valid_updates, b.work.valid_updates);
}

// The CPU comparators run on one host thread, so a rerun, and a run on a
// freshly built copy of the graph, repeat the same work exactly. PQ-Δ*'s
// counters on this graph are pinned.
TEST(CpuComparators, RerunsAndRebuiltGraphRepeatTheSameWork) {
  const Csr csr = random_powerlaw_graph(4096, 65536, 43);
  const Csr rebuilt = random_powerlaw_graph(4096, 65536, 43);
  PqDeltaStarOptions options;
  options.delta_star = 100.0;
  options.target_batch = 256;

  const SsspResult pq = pq_delta_star(csr, 5, options);
  expect_same_run(pq, pq_delta_star(csr, 5, options));
  expect_same_run(pq, pq_delta_star(rebuilt, 5, options));
  expect_distances_equal(pq.distances, dijkstra(csr, 5).distances);
  EXPECT_EQ(pq.work.iterations, 21u);
  EXPECT_EQ(pq.work.relaxations, 187122u);
  EXPECT_EQ(pq.work.total_updates, 16687u);

  const ligra::LigraSsspResult lg = ligra::sssp_bellman_ford(csr, 5);
  for (const Csr* graph : {&csr, &rebuilt}) {
    const ligra::LigraSsspResult again = ligra::sssp_bellman_ford(*graph, 5);
    expect_same_run(lg.sssp, again.sssp);
    EXPECT_EQ(lg.stats.sparse_rounds, again.stats.sparse_rounds);
    EXPECT_EQ(lg.stats.dense_rounds, again.stats.dense_rounds);
    EXPECT_EQ(lg.stats.edges_traversed, again.stats.edges_traversed);
  }
}

// ---------------------------------------------------------------------------
// Property sweep: every algorithm x several graph families x weight schemes
// x sources must equal Dijkstra and pass the certificate.
// ---------------------------------------------------------------------------

enum class Algo { kBellmanFord, kDeltaStepping, kPqDeltaStar, kLigra };

struct SweepParam {
  Algo algo;
  int graph_kind;  // 0 power-law, 1 grid, 2 star-heavy, 3 figure-1
  graph::WeightScheme scheme;
  VertexId source;
};

class SsspSweep : public ::testing::TestWithParam<SweepParam> {};

Csr make_graph(const SweepParam& p) {
  switch (p.graph_kind) {
    case 0:
      return test::random_powerlaw_graph(700, 5600, 101, p.scheme);
    case 1: {
      Csr csr = test::random_grid_graph(24, 103);
      graph::assign_weights(csr, p.scheme, 103);
      return csr;
    }
    case 2: {
      graph::StarHeavyParams params;
      params.num_vertices = 600;
      params.num_hubs = 6;
      params.num_edges = 2400;
      params.seed = 107;
      graph::EdgeList edges = graph::generate_star_heavy(params);
      graph::assign_weights(edges, p.scheme, 107);
      graph::BuildOptions options;
      options.symmetrize = true;
      return graph::build_csr(edges, options);
    }
    default: {
      Csr csr = paper_figure1_graph();
      graph::assign_weights(csr, p.scheme, 109);
      return csr;
    }
  }
}

TEST_P(SsspSweep, MatchesDijkstraAndCertificate) {
  const SweepParam p = GetParam();
  const Csr csr = make_graph(p);
  const VertexId source = p.source % csr.num_vertices();
  const auto reference = dijkstra(csr, source);

  // Δ tuned to the weight scheme's scale.
  const Weight delta =
      p.scheme == graph::WeightScheme::kUniformReal01 ? 0.1 : 100.0;

  SsspResult actual;
  switch (p.algo) {
    case Algo::kBellmanFord:
      actual = bellman_ford(csr, source);
      break;
    case Algo::kDeltaStepping:
      actual = delta_stepping_distances(csr, source, delta);
      break;
    case Algo::kPqDeltaStar: {
      PqDeltaStarOptions options;
      options.delta_star = delta;
      actual = pq_delta_star(csr, source, options);
      break;
    }
    case Algo::kLigra:
      actual = ligra::sssp_bellman_ford(csr, source).sssp;
      break;
  }
  expect_distances_equal(actual.distances, reference.distances);
  const auto verdict = validate_distances(csr, source, actual.distances);
  EXPECT_FALSE(verdict.has_value()) << *verdict;
  // Work accounting invariants.
  EXPECT_GE(actual.work.total_updates, actual.work.valid_updates);
  EXPECT_GE(actual.work.relaxations, actual.work.total_updates);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (const Algo algo : {Algo::kBellmanFord, Algo::kDeltaStepping,
                          Algo::kPqDeltaStar, Algo::kLigra}) {
    for (int kind = 0; kind < 4; ++kind) {
      for (const auto scheme : {graph::WeightScheme::kUniformInt1To1000,
                                graph::WeightScheme::kUniformReal01,
                                graph::WeightScheme::kUnit}) {
        for (const VertexId source : {0u, 13u}) {
          params.push_back({algo, kind, scheme, source});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SsspSweep,
                         ::testing::ValuesIn(sweep_params()));

}  // namespace
}  // namespace rdbs::sssp

namespace rdbs::sssp {
namespace {

// Directed graphs (no symmetrization): push-based algorithms must handle
// asymmetric reachability. (Pull-based modes document their symmetric-CSR
// requirement; the certificate works on any edge set.)
TEST(DirectedGraphs, AsymmetricReachability) {
  graph::EdgeList edges;
  edges.num_vertices = 4;
  edges.add_edge(0, 1, 2.0);
  edges.add_edge(1, 2, 3.0);
  edges.add_edge(3, 0, 1.0);  // 3 reaches everyone; nobody reaches 3
  const Csr csr = graph::build_csr(edges);  // directed: no symmetrize
  const auto from0 = dijkstra(csr, 0);
  EXPECT_DOUBLE_EQ(from0.distances[2], 5.0);
  EXPECT_EQ(from0.distances[3], graph::kInfiniteDistance);
  const auto from3 = dijkstra(csr, 3);
  EXPECT_DOUBLE_EQ(from3.distances[2], 6.0);
  EXPECT_FALSE(validate_distances(csr, 3, from3.distances).has_value());
}

TEST(DirectedGraphs, AllPushAlgorithmsAgree) {
  // A random directed graph: Bellman-Ford, Δ-stepping and Dijkstra must
  // agree without symmetrization.
  graph::UniformRandomParams params;
  params.num_vertices = 300;
  params.num_edges = 2400;
  params.seed = 331;
  graph::EdgeList edges = graph::generate_uniform_random(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, 331);
  const Csr csr = graph::build_csr(edges);  // directed
  const auto reference = dijkstra(csr, 0);
  const auto bf = bellman_ford(csr, 0);
  const auto ds = delta_stepping_distances(csr, 0, 150.0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_DOUBLE_EQ(bf.distances[v], reference.distances[v]);
    ASSERT_DOUBLE_EQ(ds.distances[v], reference.distances[v]);
  }
}

}  // namespace
}  // namespace rdbs::sssp
