// Property sweeps for the GPU engines.
//
// EngineConformance holds every registered engine (core/engine.hpp) to the
// minimum bar of docs/adding_an_engine.md §5: exact distances and the
// independent certificate on the paper's Fig. 1 graph, a power-law graph
// and a grid; termination from a disconnected source; identical results
// from two runs on one engine object. EngineSweep runs RDBS and ADDS
// across weight schemes, Δ0 choices, devices and graph families. These are
// the broad-coverage counterpart to the targeted cost-signature tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "core/adds.hpp"
#include "core/engine.hpp"
#include "core/rdbs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/validate.hpp"
#include "test_util.hpp"

namespace rdbs::core {
namespace {

using graph::Csr;
using graph::VertexId;
using graph::Weight;
using graph::WeightScheme;

// --- the conformance bar, engine by engine --------------------------------

class EngineConformance : public ::testing::TestWithParam<GpuEngineEntry> {
 protected:
  // Δ = 150 suits the graphs' integer weights in 1..1000.
  std::unique_ptr<GpuEngine> make(const Csr& csr) const {
    return GetParam().make(gpusim::test_device(), csr, EngineOptions{},
                           150.0);
  }

  void expect_exact(const Csr& csr, VertexId source) const {
    const GpuRunResult result = make(csr)->run(source);
    ASSERT_EQ(result.sssp.distances, sssp::dijkstra(csr, source).distances);
    const auto verdict =
        sssp::validate_distances(csr, source, result.sssp.distances);
    EXPECT_FALSE(verdict.has_value()) << *verdict;
  }
};

TEST_P(EngineConformance, ExactOnFigure1) {
  expect_exact(test::paper_figure1_graph(), 0);
}

TEST_P(EngineConformance, ExactOnPowerLaw) {
  expect_exact(test::random_powerlaw_graph(600, 4800, 77), 3);
}

TEST_P(EngineConformance, ExactOnGrid) {
  expect_exact(test::random_grid_graph(20, 79), 0);
}

TEST_P(EngineConformance, DisconnectedSourceTerminates) {
  graph::EdgeList edges;
  edges.num_vertices = 64;
  edges.add_edge(0, 1, 5.0);
  edges.add_edge(2, 3, 7.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  const GpuRunResult result = make(csr)->run(2);
  EXPECT_DOUBLE_EQ(result.sssp.distances[3], 7.0);
  EXPECT_EQ(result.sssp.distances[0], graph::kInfiniteDistance);
  EXPECT_EQ(result.sssp.reached_count(), 2u);
}

TEST_P(EngineConformance, RepeatedRunsAreIdentical) {
  const Csr csr = test::random_powerlaw_graph(400, 3200, 61);
  const std::unique_ptr<GpuEngine> engine = make(csr);
  const GpuRunResult a = engine->run(1);
  const GpuRunResult b = engine->run(1);
  EXPECT_EQ(a.device_ms, b.device_ms);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.sssp.distances, b.sssp.distances);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConformance,
                         ::testing::ValuesIn(gpu_engines()),
                         ::testing::PrintToStringParamName());

// --- RDBS and ADDS across graph families, weights, Δ0 and devices ---------

struct SweepCase {
  int graph_kind;      // 0 power-law, 1 grid, 2 kronecker, 3 small-world
  WeightScheme scheme;
  double delta_scale;  // Δ0 = delta_scale x (scheme's natural unit)
  bool t4;             // device: false = testdev, true = T4
};

// The case's name, e.g. "grid_real01_x16_t4". gtest prints the case this
// way too, so its ctest names carry no struct padding bytes and are the
// same in every build.
void PrintTo(const SweepCase& c, std::ostream* os) {
  static const char* const kKinds[] = {"powerlaw", "grid", "kron",
                                       "smallworld"};
  *os << kKinds[c.graph_kind] << '_';
  switch (c.scheme) {
    case WeightScheme::kUniformInt1To1000: *os << "int1000"; break;
    case WeightScheme::kUniformReal01: *os << "real01"; break;
    case WeightScheme::kUnit: *os << "unit"; break;
  }
  std::ostringstream scale;
  scale << c.delta_scale;  // 0.25 -> "0.25", 16.0 -> "16"
  std::string text = scale.str();
  // gtest names allow only letters, digits and '_'.
  std::replace(text.begin(), text.end(), '.', '_');
  *os << "_x" << text << (c.t4 ? "_t4" : "");
}

Csr build_graph(const SweepCase& c) {
  graph::EdgeList edges;
  switch (c.graph_kind) {
    case 0: {
      graph::ChungLuParams params;
      params.num_vertices = 500;
      params.num_edges = 4000;
      params.seed = 201;
      edges = graph::generate_chung_lu(params);
      break;
    }
    case 1: {
      graph::GridParams params;
      params.width = params.height = 20;
      params.keep_probability = 0.9;
      params.seed = 203;
      edges = graph::generate_grid(params);
      break;
    }
    case 2: {
      graph::KroneckerParams params;
      params.scale = 9;
      params.edgefactor = 8;
      params.seed = 205;
      edges = graph::generate_kronecker(params);
      break;
    }
    default: {
      graph::SmallWorldParams params;
      params.num_vertices = 400;
      params.ring_degree = 6;
      params.rewire_probability = 0.2;
      params.seed = 207;
      edges = graph::generate_small_world(params);
      break;
    }
  }
  graph::assign_weights(edges, c.scheme, 209);
  graph::BuildOptions build;
  build.symmetrize = true;
  return graph::build_csr(edges, build);
}

Weight natural_delta(WeightScheme scheme) {
  switch (scheme) {
    case WeightScheme::kUniformInt1To1000: return 100.0;
    case WeightScheme::kUniformReal01: return 0.1;
    case WeightScheme::kUnit: return 1.0;
  }
  return 1.0;
}

class EngineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweep, RdbsMatchesDijkstra) {
  const SweepCase c = GetParam();
  const Csr csr = build_graph(c);
  GpuSsspOptions options;
  options.delta0 = natural_delta(c.scheme) * c.delta_scale;
  RdbsSolver solver(csr, c.t4 ? gpusim::tesla_t4() : gpusim::test_device(),
                    options);
  const VertexId source = 1;
  const auto result = solver.solve(source);
  const auto reference = sssp::dijkstra(csr, source);
  ASSERT_EQ(result.sssp.distances.size(), reference.distances.size());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_DOUBLE_EQ(result.sssp.distances[v], reference.distances[v])
        << "vertex " << v;
  }
  const auto verdict =
      sssp::validate_distances(csr, source, result.sssp.distances);
  EXPECT_FALSE(verdict.has_value()) << *verdict;
}

TEST_P(EngineSweep, AddsMatchesDijkstra) {
  const SweepCase c = GetParam();
  const Csr csr = build_graph(c);
  AddsOptions options;
  options.delta = natural_delta(c.scheme) * c.delta_scale;
  AddsLike adds(c.t4 ? gpusim::tesla_t4() : gpusim::test_device(), csr,
                options);
  const VertexId source = 1;
  const auto result = adds.run(source);
  const auto reference = sssp::dijkstra(csr, source);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_DOUBLE_EQ(result.sssp.distances[v], reference.distances[v])
        << "vertex " << v;
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (int kind = 0; kind < 4; ++kind) {
    for (const auto scheme :
         {WeightScheme::kUniformInt1To1000, WeightScheme::kUniformReal01,
          WeightScheme::kUnit}) {
      for (const double scale : {0.25, 1.0, 16.0}) {
        cases.push_back({kind, scheme, scale, false});
      }
    }
    // One T4 configuration per family keeps runtime sane.
    cases.push_back({kind, WeightScheme::kUniformInt1To1000, 1.0, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Families, EngineSweep,
                         ::testing::ValuesIn(sweep_cases()),
                         ::testing::PrintToStringParamName());

// Zero-weight edges inside a bucket must not hang phase 1 (they re-enqueue
// into the same bucket until fixpoint).
TEST(EngineEdgeCases, ZeroWeightEdges) {
  graph::EdgeList edges;
  edges.num_vertices = 6;
  edges.add_edge(0, 1, 0.0);
  edges.add_edge(1, 2, 0.0);
  edges.add_edge(2, 3, 5.0);
  edges.add_edge(3, 4, 0.0);
  edges.add_edge(4, 5, 2.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  GpuSsspOptions options;
  options.delta0 = 3.0;
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const auto result = solver.solve(0);
  const auto reference = sssp::dijkstra(csr, 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(result.sssp.distances[v], reference.distances[v]);
  }
}

// Identical weights everywhere: every light relaxation lands exactly on a
// bucket boundary — exercises the [lo, hi) boundary handling.
TEST(EngineEdgeCases, WeightsEqualToDelta) {
  graph::EdgeList edges;
  edges.num_vertices = 8;
  for (VertexId v = 0; v + 1 < 8; ++v) edges.add_edge(v, v + 1, 10.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  GpuSsspOptions options;
  options.delta0 = 10.0;  // w == Δ: all edges are heavy
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const auto result = solver.solve(0);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(result.sssp.distances[v], 10.0 * v);
  }
}

// A single vertex and a two-vertex graph: the degenerate ends.
TEST(EngineEdgeCases, TinyGraphs) {
  {
    graph::EdgeList edges;
    edges.num_vertices = 1;
    const Csr csr = graph::build_csr(edges);
    RdbsSolver solver(csr, gpusim::test_device());
    const auto result = solver.solve(0);
    EXPECT_DOUBLE_EQ(result.sssp.distances[0], 0.0);
  }
  {
    graph::EdgeList edges;
    edges.num_vertices = 2;
    edges.add_edge(0, 1, 7.5);
    graph::BuildOptions build;
    build.symmetrize = true;
    const Csr csr = graph::build_csr(edges, build);
    RdbsSolver solver(csr, gpusim::test_device());
    const auto result = solver.solve(1);
    EXPECT_DOUBLE_EQ(result.sssp.distances[0], 7.5);
    EXPECT_DOUBLE_EQ(result.sssp.distances[1], 0.0);
  }
}

// Parallel edges with different weights: builder dedup keeps the minimum,
// so every engine sees a simple graph and the distances use the cheapest.
TEST(EngineEdgeCases, ParallelEdgesUseMinimum) {
  graph::EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 9.0);
  edges.add_edge(0, 1, 2.0);
  edges.add_edge(1, 2, 4.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  RdbsSolver solver(csr, gpusim::test_device());
  const auto result = solver.solve(0);
  EXPECT_DOUBLE_EQ(result.sssp.distances[1], 2.0);
  EXPECT_DOUBLE_EQ(result.sssp.distances[2], 6.0);
}

}  // namespace
}  // namespace rdbs::core
