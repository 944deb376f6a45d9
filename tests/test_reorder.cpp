// Unit and property tests for property-driven reordering (paper §4.1):
// permutation algebra, topology preservation, the Fig. 4 worked example,
// and the heavy-offset invariant.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "reorder/pro.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs::reorder {
namespace {

using test::paper_figure1_graph;
using test::paper_figure4_graph;
using test::random_powerlaw_graph;

TEST(Permutation, RoundTrips) {
  Permutation perm({2, 0, 1, 3});
  EXPECT_EQ(perm.size(), 4u);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(perm.to_reordered(perm.to_original(v)), v);
    EXPECT_EQ(perm.to_original(perm.to_reordered(v)), v);
  }
  EXPECT_FALSE(perm.is_identity());
  EXPECT_TRUE(Permutation({0, 1, 2}).is_identity());
}

TEST(Permutation, UnpermuteMapsBack) {
  Permutation perm({2, 0, 1});
  // reordered array: value of reordered vertex r.
  const std::vector<int> reordered{20, 0, 10};
  const std::vector<int> original = perm.unpermute(reordered);
  EXPECT_EQ(original, (std::vector<int>{0, 10, 20}));
}

TEST(Permutation, PermuteIsTheInverseOfUnpermute) {
  Permutation perm({2, 0, 1});
  const std::vector<int> original{0, 10, 20};
  const std::vector<int> reordered = perm.permute(original);
  EXPECT_EQ(reordered, (std::vector<int>{20, 0, 10}));
  EXPECT_EQ(perm.unpermute(reordered), original);
  // Round trip on a real PRO permutation too.
  const Csr csr = random_powerlaw_graph(64, 512, 4);
  const Permutation pro = degree_descending_permutation(csr);
  std::vector<int> values(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    values[v] = static_cast<int>(3 * v + 1);
  }
  const std::vector<int> moved = pro.permute(values);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_EQ(moved[pro.to_reordered(v)], values[v]);
  }
  EXPECT_EQ(pro.unpermute(moved), values);
  EXPECT_EQ(pro.permute(pro.unpermute(values)), values);
}

TEST(DegreeReorder, SortsByDescendingDegree) {
  const Csr csr = paper_figure1_graph();
  const Permutation perm = degree_descending_permutation(csr);
  const Csr relabeled = apply_permutation(csr, perm);
  for (VertexId r = 0; r + 1 < relabeled.num_vertices(); ++r) {
    EXPECT_GE(relabeled.degree(r), relabeled.degree(r + 1));
  }
}

TEST(DegreeReorder, TieBreakIsDeterministic) {
  const Csr csr = paper_figure1_graph();
  const Permutation a = degree_descending_permutation(csr);
  const Permutation b = degree_descending_permutation(csr);
  for (VertexId r = 0; r < csr.num_vertices(); ++r) {
    EXPECT_EQ(a.to_original(r), b.to_original(r));
  }
}

TEST(DegreeReorder, PaperFigure4VertexOrder) {
  // Fig. 4: degrees of vertices 0..4 are 2, 4, 2, 3, 3, so the reorder maps
  // original 1 -> 0, 3 -> 1, 4 -> 2, 0 -> 3, 2 -> 4.
  const Csr csr = paper_figure4_graph();
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.degree(1), 4u);
  EXPECT_EQ(csr.degree(2), 2u);
  EXPECT_EQ(csr.degree(3), 3u);
  EXPECT_EQ(csr.degree(4), 3u);
  const Permutation perm = degree_descending_permutation(csr);
  EXPECT_EQ(perm.to_original(0), 1u);
  EXPECT_EQ(perm.to_original(1), 3u);
  EXPECT_EQ(perm.to_original(2), 4u);
  EXPECT_EQ(perm.to_original(3), 0u);
  EXPECT_EQ(perm.to_original(4), 2u);
}

// Multiset of (weight-sorted) incident edge weights per original vertex must
// be preserved by any relabeling.
TEST(ApplyPermutation, PreservesTopology) {
  const Csr csr = random_powerlaw_graph(512, 4096, 21);
  const Permutation perm = degree_descending_permutation(csr);
  const Csr relabeled = apply_permutation(csr, perm);
  ASSERT_EQ(relabeled.num_edges(), csr.num_edges());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const VertexId r = perm.to_reordered(v);
    ASSERT_EQ(relabeled.degree(r), csr.degree(v));
    std::multiset<std::pair<VertexId, Weight>> original_edges;
    std::multiset<std::pair<VertexId, Weight>> relabeled_edges;
    for (std::size_t i = 0; i < csr.neighbors(v).size(); ++i) {
      original_edges.insert(
          {perm.to_reordered(csr.neighbors(v)[i]), csr.edge_weights(v)[i]});
      relabeled_edges.insert(
          {relabeled.neighbors(r)[i], relabeled.edge_weights(r)[i]});
    }
    EXPECT_EQ(original_edges, relabeled_edges);
  }
}

TEST(WeightSort, SortsEveryRowAscending) {
  const Csr csr = random_powerlaw_graph(256, 2048, 5);
  const Csr sorted = sort_adjacency_by_weight(csr, 100.0);
  EXPECT_TRUE(sorted.weights_sorted_per_vertex());
  EXPECT_FALSE(csr.weights_sorted_per_vertex());  // random weights: unsorted
}

TEST(WeightSort, HeavyOffsetInvariant) {
  const Weight delta = 250.0;
  const Csr csr = random_powerlaw_graph(256, 2048, 6);
  const Csr sorted = sort_adjacency_by_weight(csr, delta);
  ASSERT_TRUE(sorted.has_heavy_offsets());
  for (VertexId v = 0; v < sorted.num_vertices(); ++v) {
    const EdgeIndex split = sorted.heavy_begin(v);
    for (EdgeIndex e = sorted.row_begin(v); e < split; ++e) {
      EXPECT_LT(sorted.weight(e), delta);
    }
    for (EdgeIndex e = split; e < sorted.row_end(v); ++e) {
      EXPECT_GE(sorted.weight(e), delta);
    }
  }
}

TEST(WeightSort, PreservesEdgeMultiset) {
  const Csr csr = random_powerlaw_graph(128, 1024, 7);
  const Csr sorted = sort_adjacency_by_weight(csr, 100.0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    std::multiset<std::pair<Weight, VertexId>> before, after;
    for (std::size_t i = 0; i < csr.neighbors(v).size(); ++i) {
      before.insert({csr.edge_weights(v)[i], csr.neighbors(v)[i]});
      after.insert({sorted.edge_weights(v)[i], sorted.neighbors(v)[i]});
    }
    EXPECT_EQ(before, after);
  }
}

TEST(Pro, FullPipelinePreservesShortestDistances) {
  const Csr csr = random_powerlaw_graph(512, 4096, 8);
  const ProResult pro = property_driven_reorder(csr, 100.0);
  ASSERT_TRUE(pro.csr.has_heavy_offsets());
  ASSERT_TRUE(pro.csr.weights_sorted_per_vertex());

  const VertexId source = 3;
  const auto reference = sssp::dijkstra(csr, source);
  const auto reordered =
      sssp::dijkstra(pro.csr, pro.perm.to_reordered(source));
  const auto mapped = pro.perm.unpermute(reordered.distances);
  ASSERT_EQ(mapped.size(), reference.distances.size());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(mapped[v], reference.distances[v]) << "vertex " << v;
  }
}

TEST(Pro, InvariantsHoldOnRandomGraphsForEveryDelta) {
  // The full PRO contract (§4.1, Fig. 4) as one property test over random
  // graph families and Δ choices. After property_driven_reorder:
  //   1. vertex ids are degree-sorted: degree(v) is non-increasing in v;
  //   2. each adjacency row's weights are ascending;
  //   3. heavy_begin(v) splits every row exactly at Δ:
  //      weights[row_begin, heavy_begin) < Δ ≤ weights[heavy_begin, row_end).
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    for (const Weight delta : {1.0, 100.0, 250.0, 1e9}) {
      const Csr original = (seed % 2 == 0)
                               ? random_powerlaw_graph(300, 2400, seed)
                               : test::random_grid_graph(18, seed);
      const ProResult pro = property_driven_reorder(original, delta);
      const Csr& csr = pro.csr;
      ASSERT_EQ(csr.num_vertices(), original.num_vertices());
      ASSERT_EQ(csr.num_edges(), original.num_edges());
      ASSERT_TRUE(csr.has_heavy_offsets());
      for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        if (v + 1 < csr.num_vertices()) {
          EXPECT_GE(csr.degree(v), csr.degree(v + 1))
              << "seed " << seed << " delta " << delta << " vertex " << v;
        }
        const EdgeIndex split = csr.heavy_begin(v);
        ASSERT_GE(split, csr.row_begin(v));
        ASSERT_LE(split, csr.row_end(v));
        for (EdgeIndex e = csr.row_begin(v); e < csr.row_end(v); ++e) {
          if (e + 1 < csr.row_end(v)) {
            EXPECT_LE(csr.weight(e), csr.weight(e + 1))
                << "seed " << seed << " delta " << delta << " vertex " << v;
          }
          if (e < split) {
            EXPECT_LT(csr.weight(e), delta)
                << "seed " << seed << " delta " << delta << " vertex " << v;
          } else {
            EXPECT_GE(csr.weight(e), delta)
                << "seed " << seed << " delta " << delta << " vertex " << v;
          }
        }
      }
    }
  }
}

TEST(Pro, HeavyDeltaRecorded) {
  const Csr csr = random_powerlaw_graph(64, 512, 9);
  const ProResult pro = property_driven_reorder(csr, 77.0);
  EXPECT_DOUBLE_EQ(pro.csr.heavy_delta(), 77.0);
}

TEST(Pro, WorksOnGraphWithIsolatedVertices) {
  graph::EdgeList edges;
  edges.num_vertices = 10;
  edges.add_edge(0, 1, 5.0);
  graph::BuildOptions options;
  options.symmetrize = true;
  const Csr csr = graph::build_csr(edges, options);
  const ProResult pro = property_driven_reorder(csr, 3.0);
  EXPECT_EQ(pro.csr.num_vertices(), 10u);
  EXPECT_EQ(pro.csr.num_edges(), 2u);
  // Isolated vertices end up with empty, trivially-valid heavy ranges.
  for (VertexId v = 2; v < 10; ++v) {
    EXPECT_EQ(pro.csr.degree(v), 0u);
    EXPECT_EQ(pro.csr.light_degree(v), 0u);
  }
}

}  // namespace
}  // namespace rdbs::reorder
