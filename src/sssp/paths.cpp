#include "sssp/paths.hpp"

#include <algorithm>
#include <cstdint>

#include "common/macros.hpp"

namespace rdbs::sssp {

std::vector<VertexId> build_parent_tree(const Csr& csr, VertexId source,
                                        const std::vector<Distance>& dist) {
  RDBS_CHECK(dist.size() == csr.num_vertices());
  RDBS_CHECK(source < csr.num_vertices());
  std::vector<VertexId> parents(csr.num_vertices(), graph::kInvalidVertex);

  // Breadth-first search from the source over tight edges: a vertex's
  // parent is the vertex that first reaches it, so every chain leads back
  // to the source even through zero-weight cycles.
  std::vector<VertexId> order{source};
  for (std::size_t next = 0; next < order.size(); ++next) {
    const VertexId u = order[next];
    const auto neighbors = csr.neighbors(u);
    const auto weights = csr.edge_weights(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VertexId v = neighbors[i];
      if (v == source || parents[v] != graph::kInvalidVertex) continue;
      if (dist[u] + weights[i] == dist[v]) {
        parents[v] = u;
        order.push_back(v);
      }
    }
  }
  return parents;
}

std::optional<std::vector<VertexId>> extract_path(
    const std::vector<VertexId>& parents, VertexId source, VertexId target) {
  RDBS_CHECK(target < parents.size());
  if (target != source && parents[target] == graph::kInvalidVertex) {
    return std::nullopt;
  }
  std::vector<VertexId> path;
  VertexId cursor = target;
  while (cursor != source) {
    path.push_back(cursor);
    cursor = parents[cursor];
    RDBS_CHECK_MSG(cursor != graph::kInvalidVertex,
                   "broken parent chain (tree not rooted at source?)");
    RDBS_CHECK_MSG(path.size() <= parents.size(),
                   "parent cycle detected");
  }
  path.push_back(source);
  std::reverse(path.begin(), path.end());
  return path;
}

std::optional<VertexId> validate_parent_tree(
    const Csr& csr, VertexId source, const std::vector<Distance>& dist,
    const std::vector<VertexId>& parents) {
  if (parents.size() != csr.num_vertices()) return source;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (v == source) {
      if (parents[v] != graph::kInvalidVertex) return v;
      continue;
    }
    if (dist[v] == graph::kInfiniteDistance) {
      if (parents[v] != graph::kInvalidVertex) return v;
      continue;
    }
    const VertexId p = parents[v];
    if (p == graph::kInvalidVertex || p >= csr.num_vertices()) return v;
    // The parent edge must exist and attain dist[v].
    bool attained = false;
    const auto neighbors = csr.neighbors(p);
    const auto weights = csr.edge_weights(p);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] == v && dist[p] + weights[i] == dist[v]) {
        attained = true;
        break;
      }
    }
    if (!attained) return v;
  }
  // Every parent chain must end at the source (attaining edges alone admit
  // cycles through zero-weight edges). state: 0 = unvisited, 1 = on the
  // current walk, 2 = leads to the source.
  std::vector<std::uint8_t> state(csr.num_vertices(), 0);
  state[source] = 2;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (dist[v] == graph::kInfiniteDistance) continue;
    VertexId u = v;
    for (; state[u] == 0; u = parents[u]) state[u] = 1;
    if (state[u] == 1) return v;
    for (u = v; state[u] == 1; u = parents[u]) state[u] = 2;
  }
  return std::nullopt;
}

}  // namespace rdbs::sssp
