// Unit tests for src/graph: CSR container, builder normalizations,
// generators' structural properties, weight assignment, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/surrogates.hpp"
#include "graph/weights.hpp"
#include "test_util.hpp"

namespace rdbs::graph {
namespace {

TEST(Csr, EmptyGraph) {
  EdgeList edges;
  edges.num_vertices = 4;
  const Csr csr = build_csr(edges);
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_edges(), 0u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(csr.degree(v), 0u);
}

TEST(Csr, BasicAdjacency) {
  EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 2.0);
  edges.add_edge(0, 2, 3.0);
  edges.add_edge(2, 1, 1.0);
  const Csr csr = build_csr(edges);
  EXPECT_EQ(csr.num_edges(), 3u);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.degree(1), 0u);
  EXPECT_EQ(csr.degree(2), 1u);
  EXPECT_EQ(csr.neighbors(2)[0], 1u);
  EXPECT_DOUBLE_EQ(csr.edge_weights(2)[0], 1.0);
}

TEST(Builder, RemovesSelfLoops) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.add_edge(0, 0, 1.0);
  edges.add_edge(0, 1, 2.0);
  const Csr csr = build_csr(edges);
  EXPECT_EQ(csr.num_edges(), 1u);
}

TEST(Builder, KeepsSelfLoopsWhenAsked) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.add_edge(0, 0, 1.0);
  BuildOptions options;
  options.remove_self_loops = false;
  const Csr csr = build_csr(edges, options);
  EXPECT_EQ(csr.num_edges(), 1u);
}

TEST(Builder, DedupKeepsMinimumWeight) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.add_edge(0, 1, 5.0);
  edges.add_edge(0, 1, 2.0);
  edges.add_edge(0, 1, 9.0);
  const Csr csr = build_csr(edges);
  ASSERT_EQ(csr.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(csr.edge_weights(0)[0], 2.0);
}

TEST(Builder, SymmetrizeAddsReverseEdges) {
  EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 1.0);
  edges.add_edge(1, 2, 2.0);
  BuildOptions options;
  options.symmetrize = true;
  const Csr csr = build_csr(edges, options);
  EXPECT_EQ(csr.num_edges(), 4u);
  EXPECT_EQ(csr.degree(1), 2u);
  // Reverse edges carry the same weight.
  EXPECT_DOUBLE_EQ(csr.edge_weights(1)[0], 1.0);  // 1 -> 0 sorted first
}

TEST(Builder, RoundTripThroughEdgeList) {
  const Csr csr = test::paper_figure1_graph();
  const EdgeList back = csr_to_edge_list(csr);
  const Csr again = build_csr(back);
  EXPECT_EQ(again.num_edges(), csr.num_edges());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_EQ(again.degree(v), csr.degree(v));
  }
}

TEST(Builder, RejectsNothingButCountsDegrees) {
  // Paper Fig. 1(a): degrees of the 8-vertex example graph.
  const Csr csr = test::paper_figure1_graph();
  EXPECT_EQ(csr.num_vertices(), 8u);
  EXPECT_EQ(csr.num_edges(), 26u);  // 13 undirected edges
  EXPECT_EQ(csr.degree(0), 3u);
  EXPECT_EQ(csr.degree(3), 5u);
  EXPECT_EQ(csr.degree(6), 4u);
}

TEST(HeavyOffsets, RecomputeSplitsLightHeavy) {
  // Hand-built graph with per-vertex weight-sorted adjacency.
  std::vector<EdgeIndex> offsets{0, 3, 5};
  std::vector<VertexId> adjacency{1, 1, 1, 0, 0};
  std::vector<Weight> weights{1.0, 2.0, 5.0, 3.0, 4.0};
  Csr csr(std::move(offsets), std::move(adjacency), std::move(weights));
  ASSERT_TRUE(csr.weights_sorted_per_vertex());

  csr.recompute_heavy_offsets(3.0);
  EXPECT_DOUBLE_EQ(csr.heavy_delta(), 3.0);
  EXPECT_EQ(csr.light_degree(0), 2u);  // weights 1, 2 < 3
  EXPECT_EQ(csr.heavy_degree(0), 1u);  // weight 5
  EXPECT_EQ(csr.light_degree(1), 0u);  // 3 is heavy (>= delta)
  EXPECT_EQ(csr.heavy_degree(1), 2u);

  csr.recompute_heavy_offsets(100.0);
  EXPECT_EQ(csr.light_degree(0), 3u);
  EXPECT_EQ(csr.light_degree(1), 2u);
}

TEST(Generators, KroneckerSizesMatchParameters) {
  KroneckerParams params;
  params.scale = 10;
  params.edgefactor = 8;
  params.seed = 7;
  const EdgeList edges = generate_kronecker(params);
  EXPECT_EQ(edges.num_vertices, 1u << 10);
  EXPECT_EQ(edges.num_edges(), 8u << 10);
  for (const auto& e : edges.edges) {
    EXPECT_LT(e.src, edges.num_vertices);
    EXPECT_LT(e.dst, edges.num_vertices);
  }
}

TEST(Generators, KroneckerIsDeterministic) {
  KroneckerParams params;
  params.scale = 8;
  params.edgefactor = 4;
  params.seed = 3;
  const EdgeList a = generate_kronecker(params);
  const EdgeList b = generate_kronecker(params);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.edges, b.edges);
}

TEST(Generators, KroneckerIsSkewed) {
  KroneckerParams params;
  params.scale = 12;
  params.edgefactor = 16;
  params.seed = 5;
  const EdgeList edges = generate_kronecker(params);
  BuildOptions options;
  options.symmetrize = true;
  const Csr csr = build_csr(edges, options);
  const DegreeStats stats = compute_degree_stats(csr);
  // Power-law-ish: the top 1% of vertices must own a large share of edges.
  EXPECT_GT(stats.top1pct_edge_share, 0.15);
  EXPECT_GT(stats.max_degree, 50u);
}

TEST(Generators, GridIsRegularAndLarge) {
  GridParams params;
  params.width = 32;
  params.height = 16;
  params.keep_probability = 1.0;
  const EdgeList edges = generate_grid(params);
  EXPECT_EQ(edges.num_vertices, 512u);
  // Full grid: (w-1)*h + w*(h-1) edges.
  EXPECT_EQ(edges.num_edges(), 31u * 16 + 32u * 15);
}

TEST(Generators, GridThinningReducesEdges) {
  GridParams dense;
  dense.width = dense.height = 64;
  dense.keep_probability = 1.0;
  GridParams sparse = dense;
  sparse.keep_probability = 0.5;
  EXPECT_LT(generate_grid(sparse).num_edges() * 3,
            generate_grid(dense).num_edges() * 2);
}

TEST(Generators, GridHasHighDiameter) {
  GridParams params;
  params.width = params.height = 48;
  const EdgeList edges = generate_grid(params);
  BuildOptions options;
  options.symmetrize = true;
  const Csr csr = build_csr(edges, options);
  EXPECT_GE(approximate_diameter(csr, 2, 1), 48u);
}

TEST(Generators, ChungLuMatchesEdgeBudgetRoughly) {
  ChungLuParams params;
  params.num_vertices = 1 << 12;
  params.num_edges = 1 << 15;
  params.seed = 11;
  const EdgeList edges = generate_chung_lu(params);
  EXPECT_EQ(edges.num_edges(), params.num_edges);
}

TEST(Generators, ChungLuSkewGrowsWithSmallerGamma) {
  auto share = [](double gamma) {
    ChungLuParams params;
    params.num_vertices = 1 << 12;
    params.num_edges = 1 << 15;
    params.gamma = gamma;
    params.seed = 13;
    BuildOptions options;
    options.symmetrize = true;
    const Csr csr = build_csr(generate_chung_lu(params), options);
    return compute_degree_stats(csr).top1pct_edge_share;
  };
  EXPECT_GT(share(2.1), share(2.9));
}

TEST(Generators, SmallWorldDegreeTight) {
  SmallWorldParams params;
  params.num_vertices = 1 << 10;
  params.ring_degree = 8;
  params.rewire_probability = 0.05;
  const EdgeList edges = generate_small_world(params);
  EXPECT_EQ(edges.num_edges(),
            static_cast<std::size_t>(params.num_vertices) * 4);
}

TEST(Generators, UniformRandomNoSelfLoops) {
  UniformRandomParams params;
  params.num_vertices = 256;
  params.num_edges = 4096;
  const EdgeList edges = generate_uniform_random(params);
  for (const auto& e : edges.edges) EXPECT_NE(e.src, e.dst);
}

TEST(Generators, StarHeavyConcentratesOnHubs) {
  StarHeavyParams params;
  params.num_vertices = 1 << 12;
  params.num_hubs = 8;
  params.hub_edge_fraction = 0.8;
  params.num_edges = 1 << 14;
  BuildOptions options;
  options.symmetrize = true;
  const Csr csr = build_csr(generate_star_heavy(params), options);
  // Hub vertices must dominate the degree distribution. After
  // symmetrization + dedup (heavy at 8 hubs), the 8 hubs — 0.2% of the
  // vertices — still hold over a third of all CSR entries.
  EdgeIndex hub_degree = 0;
  for (VertexId v = 0; v < params.num_hubs; ++v) hub_degree += csr.degree(v);
  EXPECT_GT(static_cast<double>(hub_degree),
            0.33 * static_cast<double>(csr.num_edges()));
}

TEST(Weights, SymmetricConsistency) {
  for (const auto scheme :
       {WeightScheme::kUniformInt1To1000, WeightScheme::kUniformReal01}) {
    EXPECT_DOUBLE_EQ(edge_weight_for(3, 9, scheme, 42),
                     edge_weight_for(9, 3, scheme, 42));
  }
}

TEST(Weights, UniformIntRange) {
  for (VertexId u = 0; u < 50; ++u) {
    for (VertexId v = u + 1; v < u + 5; ++v) {
      const Weight w =
          edge_weight_for(u, v, WeightScheme::kUniformInt1To1000, 7);
      EXPECT_GE(w, 1.0);
      EXPECT_LE(w, 1000.0);
      EXPECT_DOUBLE_EQ(w, std::floor(w));  // integral
    }
  }
}

TEST(Weights, RealRange) {
  for (VertexId u = 0; u < 50; ++u) {
    const Weight w =
        edge_weight_for(u, u + 1, WeightScheme::kUniformReal01, 7);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, 1.0);
  }
}

TEST(Weights, SeedChangesWeights) {
  int differences = 0;
  for (VertexId u = 0; u < 100; ++u) {
    if (edge_weight_for(u, u + 1, WeightScheme::kUniformInt1To1000, 1) !=
        edge_weight_for(u, u + 1, WeightScheme::kUniformInt1To1000, 2)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 90);
}

TEST(Weights, AssignOnCsrMatchesEdgeList) {
  Csr csr = test::paper_figure1_graph();
  assign_weights(csr, WeightScheme::kUniformInt1To1000, 5);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto neighbors = csr.neighbors(v);
    const auto weights = csr.edge_weights(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_DOUBLE_EQ(weights[i],
                       edge_weight_for(v, neighbors[i],
                                       WeightScheme::kUniformInt1To1000, 5));
    }
  }
}

TEST(Stats, DegreeStatsBasics) {
  const Csr csr = test::paper_figure1_graph();
  const DegreeStats stats = compute_degree_stats(csr);
  EXPECT_EQ(stats.max_degree, 5u);
  EXPECT_EQ(stats.min_degree, 2u);  // vertex 5 has neighbors {1, 6}
  EXPECT_NEAR(stats.average_degree, 26.0 / 8.0, 1e-12);
}

TEST(Stats, LogHistogramSumsToVertexCount) {
  const Csr csr = test::random_powerlaw_graph(2048, 16384, 3);
  const auto histogram = degree_log_histogram(csr);
  const auto total =
      std::accumulate(histogram.begin(), histogram.end(), std::uint64_t{0});
  EXPECT_EQ(total, csr.num_vertices());
}

TEST(Stats, ReachableCountOnPath) {
  EdgeList edges;
  edges.num_vertices = 5;
  edges.add_edge(0, 1, 1);
  edges.add_edge(1, 2, 1);
  // vertices 3, 4 disconnected
  BuildOptions options;
  options.symmetrize = true;
  const Csr csr = build_csr(edges, options);
  EXPECT_EQ(reachable_count(csr, 0), 3u);
  EXPECT_EQ(reachable_count(csr, 3), 1u);
}

TEST(Stats, ConnectedComponents) {
  EdgeList edges;
  edges.num_vertices = 6;
  edges.add_edge(0, 1, 1);
  edges.add_edge(1, 2, 1);
  edges.add_edge(3, 4, 1);
  BuildOptions options;
  options.symmetrize = true;
  const Csr csr = build_csr(edges, options);
  const ComponentInfo info = connected_components(csr);
  EXPECT_EQ(info.component_count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(info.largest_size, 3u);
  EXPECT_EQ(info.representative, 0u);
}

TEST(Stats, IsSymmetricComparesWeightedEdgeMultisets) {
  EXPECT_TRUE(is_symmetric(test::paper_figure1_graph()));
  EXPECT_TRUE(is_symmetric(build_csr(EdgeList{})));
  EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 2);
  edges.add_edge(1, 0, 2);
  edges.add_edge(1, 2, 5);
  EXPECT_FALSE(is_symmetric(build_csr(edges)));  // 2 -> 1 missing
  edges.add_edge(2, 1, 4);
  EXPECT_FALSE(is_symmetric(build_csr(edges)));  // weights differ
  edges.edges.back().weight = 5;
  EXPECT_TRUE(is_symmetric(build_csr(edges)));
  // Multiplicity counts: a second 0 -> 1 (2) needs a second 1 -> 0 (2).
  BuildOptions keep;
  keep.dedup_parallel = false;
  edges.add_edge(0, 1, 2);
  EXPECT_FALSE(is_symmetric(build_csr(edges, keep)));
  edges.add_edge(1, 0, 2);
  EXPECT_TRUE(is_symmetric(build_csr(edges, keep)));
}

TEST(Stats, DiameterOfPathGraph) {
  EdgeList edges;
  edges.num_vertices = 10;
  for (VertexId v = 0; v + 1 < 10; ++v) edges.add_edge(v, v + 1, 1);
  BuildOptions options;
  options.symmetrize = true;
  const Csr csr = build_csr(edges, options);
  EXPECT_EQ(approximate_diameter(csr, 3, 1), 9u);
}

TEST(Surrogates, RegistryHasAllTenPaperGraphs) {
  const auto& registry = real_world_datasets();
  ASSERT_EQ(registry.size(), 10u);
  EXPECT_EQ(registry.front().name, "road-TX");
  EXPECT_EQ(registry.back().name, "soc-TW");
}

TEST(Surrogates, FindByShortAndFullName) {
  EXPECT_TRUE(find_dataset("road-TX").has_value());
  EXPECT_TRUE(find_dataset("roadNet-TX").has_value());
  EXPECT_FALSE(find_dataset("nope").has_value());
}

TEST(Surrogates, KroneckerNameParsing) {
  const auto spec = find_dataset("k-n21-16");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->paper_vertices, 1ull << 21);
  EXPECT_EQ(spec->paper_avg_degree, 16.0);
}

// The benchmark's two Kronecker graphs resolve to the specs they always
// had: every field, so their surrogates (and fingerprints) cannot move.
TEST(Surrogates, BenchmarkKroneckerSpecsAreUnchanged) {
  for (const int scale : {21, 16}) {
    const std::string name = "k-n" + std::to_string(scale) + "-16";
    const auto spec = find_dataset(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_EQ(spec->full_name, "Graph500 Kronecker");
    EXPECT_EQ(spec->family, DatasetSpec::Family::kKronecker);
    EXPECT_EQ(spec->paper_vertices, 1ull << scale);
    EXPECT_EQ(spec->paper_edges, (1ull << scale) * 16);
    EXPECT_EQ(spec->paper_avg_degree, 16.0);
    EXPECT_EQ(spec->paper_diameter, 0u);
  }
}

// A Kronecker name whose fields are not whole decimal tokens, or whose
// scale or edgefactor is out of range, is an unknown dataset.
TEST(Surrogates, MalformedKroneckerNamesAreUnknown) {
  for (const char* name :
       {"k-n12-8x", "k-n70-8", "k-n12-0", "k-nabc-1", "k-n0-8", "k-n32-8",
        "k-n-8", "k-n12-", "k-n12", "k-n+12-8", "k-n12-8-2", "k-n 12-8",
        "k-n12-99999999999"}) {
    EXPECT_FALSE(find_dataset(name).has_value()) << name;
  }
  EXPECT_TRUE(find_dataset("k-n1-1").has_value());
  EXPECT_TRUE(find_dataset("k-n31-1").has_value());
}

TEST(Surrogates, LoadedGraphsMatchFamilyProperties) {
  LoadOptions options;
  options.size_scale = -1;  // smaller for test speed

  const Csr road = load_dataset_by_name("road-TX", options);
  const Csr social = load_dataset_by_name("soc-PK", options);
  const DegreeStats road_stats = compute_degree_stats(road);
  const DegreeStats social_stats = compute_degree_stats(social);
  // Road: uniform low degree; social: skewed with hubs.
  EXPECT_LT(road_stats.max_degree, 10u);
  EXPECT_GT(social_stats.max_degree, 100u);
  EXPECT_GT(social_stats.top1pct_edge_share, road_stats.top1pct_edge_share);
}

TEST(Surrogates, SizeScaleDoubles) {
  LoadOptions small;
  small.size_scale = -2;
  LoadOptions bigger;
  bigger.size_scale = -1;
  const Csr a = load_dataset_by_name("soc-PK", small);
  const Csr b = load_dataset_by_name("soc-PK", bigger);
  EXPECT_GT(b.num_vertices(), a.num_vertices());
  EXPECT_NEAR(static_cast<double>(b.num_vertices()) /
                  static_cast<double>(a.num_vertices()),
              2.0, 0.3);
}

}  // namespace
}  // namespace rdbs::graph
