// Structural statistics used to characterize datasets (paper Table 1) and to
// sanity-check the surrogate generators against the originals' published
// vertex/edge counts, average degree and diameter.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace rdbs::graph {

struct DegreeStats {
  EdgeIndex min_degree = 0;
  EdgeIndex max_degree = 0;
  double average_degree = 0.0;
  // Fraction of edges incident to the top 1% highest-degree vertices; a
  // cheap proxy for power-law skew (close to 0 for uniform graphs, large
  // for hub-dominated graphs).
  double top1pct_edge_share = 0.0;
};

DegreeStats compute_degree_stats(const Csr& csr);

// Histogram of log2(degree) buckets: result[k] counts vertices with degree
// in [2^k, 2^(k+1)); result[0] also includes degree-0 and degree-1 vertices.
std::vector<std::uint64_t> degree_log_histogram(const Csr& csr);

// Approximate diameter: runs BFS from `samples` pseudo-random seeds plus a
// double-sweep (BFS from the farthest vertex found) and returns the largest
// eccentricity seen. Lower bound on the true diameter; matches how such
// numbers are usually reported for large graphs.
std::uint32_t approximate_diameter(const Csr& csr, int samples,
                                   std::uint64_t seed);

// Number of vertices reachable from src (used to scope correctness checks
// to the source's component).
std::uint64_t reachable_count(const Csr& csr, VertexId src);

// True iff the weighted edge multiset equals its own reverse: every edge
// (u, v, w) is matched by a distinct (v, u, w).
bool is_symmetric(const Csr& csr);

// Size of the largest connected component and a representative vertex in it
// (treats edges as undirected, which holds for all library graphs).
struct ComponentInfo {
  std::uint64_t largest_size = 0;
  VertexId representative = 0;
  std::uint64_t component_count = 0;
};

ComponentInfo connected_components(const Csr& csr);

}  // namespace rdbs::graph
