#include "sssp/ligra_like.hpp"

#include <utility>

#include "common/macros.hpp"

namespace rdbs::sssp::ligra {

VertexSubset::VertexSubset(graph::VertexId universe_size)
    : universe_(universe_size), dense_(universe_size, 0) {}

VertexSubset::VertexSubset(graph::VertexId universe_size,
                           std::vector<graph::VertexId> sparse)
    : universe_(universe_size),
      sparse_(std::move(sparse)),
      dense_(universe_size, 0) {
  for (const graph::VertexId v : sparse_) {
    RDBS_CHECK(v < universe_);
    dense_[v] = 1;
  }
}

void VertexSubset::add(graph::VertexId v) {
  RDBS_CHECK(v < universe_);
  if (!dense_[v]) {
    dense_[v] = 1;
    sparse_.push_back(v);
  }
}

void VertexSubset::clear() {
  for (const graph::VertexId v : sparse_) dense_[v] = 0;
  sparse_.clear();
}

VertexSubset edge_map(const Csr& csr, const VertexSubset& frontier,
                      const EdgeMapFunctor& f, EdgeMapStats* stats) {
  RDBS_CHECK(frontier.universe_size() == csr.num_vertices());
  VertexSubset next(csr.num_vertices());

  // Frontier out-edge volume decides the traversal direction.
  std::uint64_t frontier_edges = 0;
  for (const graph::VertexId v : frontier.vertices()) {
    frontier_edges += csr.degree(v);
  }
  const bool dense =
      static_cast<double>(frontier_edges) >
      kDenseThresholdFraction * static_cast<double>(csr.num_edges());

  if (dense) {
    if (stats) ++stats->dense_rounds;
    // Dense (pull) direction: every candidate v scans its in-edges (the
    // symmetric CSR doubles as the in-edge list) for frontier sources.
    for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (!f.cond(v)) continue;
      const auto neighbors = csr.neighbors(v);
      const auto weights = csr.edge_weights(v);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const graph::VertexId u = neighbors[i];
        if (!frontier.contains(u)) continue;
        if (stats) ++stats->edges_traversed;
        if (f.update(u, v, weights[i])) {
          next.add(v);
          // Ligra's dense mode may break after the first activation;
          // continuing is also legal — we continue so update() sees every
          // incoming edge (needed for min-style reductions).
        }
      }
    }
  } else {
    if (stats) ++stats->sparse_rounds;
    // Sparse (push) direction: out-edges of the frontier.
    for (const graph::VertexId u : frontier.vertices()) {
      const auto neighbors = csr.neighbors(u);
      const auto weights = csr.edge_weights(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const graph::VertexId v = neighbors[i];
        if (!f.cond(v)) continue;
        if (stats) ++stats->edges_traversed;
        if (f.update(u, v, weights[i])) next.add(v);
      }
    }
  }
  return next;
}

LigraSsspResult sssp_bellman_ford(const Csr& csr, graph::VertexId source) {
  RDBS_CHECK(source < csr.num_vertices());
  LigraSsspResult out;
  SsspResult& result = out.sssp;
  result.distances.assign(csr.num_vertices(), kInfiniteDistance);
  result.distances[source] = 0;
  auto& dist = result.distances;

  EdgeMapFunctor relax;
  relax.cond = [](graph::VertexId) { return true; };
  relax.update = [&](graph::VertexId u, graph::VertexId v,
                     graph::Weight w) {
    ++result.work.relaxations;
    const graph::Distance through = dist[u] + w;
    if (through < dist[v]) {
      dist[v] = through;
      ++result.work.total_updates;
      return true;
    }
    return false;
  };

  VertexSubset frontier(csr.num_vertices(), {source});
  while (!frontier.empty()) {
    ++result.work.iterations;
    frontier = edge_map(csr, frontier, relax, &out.stats);
  }
  finalize_valid_updates(result, source);
  return out;
}

}  // namespace rdbs::sssp::ligra
