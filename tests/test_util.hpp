// Shared helpers for the RDBS test suite.
#pragma once

#include <vector>

#include "graph/builder.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"

namespace rdbs::test {

using graph::Csr;
using graph::EdgeList;
using graph::VertexId;
using graph::Weight;

// The paper's Fig. 1(a) example: 8 vertices, 13 undirected edges.
inline Csr paper_figure1_graph() {
  EdgeList edges;
  edges.num_vertices = 8;
  edges.add_edge(0, 1, 5);
  edges.add_edge(0, 2, 1);
  edges.add_edge(0, 3, 3);
  edges.add_edge(1, 3, 5);
  edges.add_edge(1, 5, 1);
  edges.add_edge(2, 3, 7);
  edges.add_edge(2, 7, 1);
  edges.add_edge(3, 4, 1);
  edges.add_edge(3, 6, 3);
  edges.add_edge(4, 6, 7);
  edges.add_edge(4, 7, 1);
  edges.add_edge(5, 6, 6);
  edges.add_edge(6, 7, 4);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

// The paper's Fig. 4(a) example: 5 vertices with degrees 2, 4, 2, 3, 3
// (7 undirected edges), so degree-descending reordering maps original ids
// 0..4 to reordered ids 3, 0, 4, 1, 2 exactly as the figure shows.
inline Csr paper_figure4_graph() {
  EdgeList edges;
  edges.num_vertices = 5;
  edges.add_edge(1, 0, 2);
  edges.add_edge(1, 2, 4);
  edges.add_edge(1, 3, 1);
  edges.add_edge(1, 4, 9);
  edges.add_edge(3, 4, 2);
  edges.add_edge(3, 0, 15);
  edges.add_edge(4, 2, 5);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

// Directed graphs with zero-weight cycles, where "some in-edge attains
// dist[v]" holds for wrong distances and for cyclic parent choices.
// 0 -> 1 (10), 1 <-> 2 (0): the cycle attains any common value of 1 and 2.
inline Csr zero_cycle_graph() {
  EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 10);
  edges.add_edge(1, 2, 0);
  edges.add_edge(2, 1, 0);
  return graph::build_csr(edges);
}

// 0 -> 1 (1), 2 <-> 3 (0): the zero-weight pair is unreachable from 0.
inline Csr unreachable_zero_pair_graph() {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.add_edge(0, 1, 1);
  edges.add_edge(2, 3, 0);
  edges.add_edge(3, 2, 0);
  return graph::build_csr(edges);
}

// 0 -> 3 (5), 3 -> 1 (5), 3 -> 2 (5), 1 <-> 2 (0): 1 and 2 tie at 10 and
// each attains the other's distance.
inline Csr zero_cycle_tie_graph() {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.add_edge(0, 3, 5);
  edges.add_edge(3, 1, 5);
  edges.add_edge(3, 2, 5);
  edges.add_edge(1, 2, 0);
  edges.add_edge(2, 1, 0);
  return graph::build_csr(edges);
}

// A weighted random power-law graph (deterministic in seed).
inline Csr random_powerlaw_graph(VertexId n, std::uint64_t num_edges,
                                 std::uint64_t seed,
                                 graph::WeightScheme scheme =
                                     graph::WeightScheme::kUniformInt1To1000) {
  graph::ChungLuParams params;
  params.num_vertices = n;
  params.num_edges = num_edges;
  params.seed = seed;
  EdgeList edges = graph::generate_chung_lu(params);
  graph::assign_weights(edges, scheme, seed);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

// A thinned grid (road-like) graph.
inline Csr random_grid_graph(VertexId side, std::uint64_t seed) {
  graph::GridParams params;
  params.width = side;
  params.height = side;
  params.keep_probability = 0.85;
  params.seed = seed;
  EdgeList edges = graph::generate_grid(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, seed);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

}  // namespace rdbs::test
