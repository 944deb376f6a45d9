#include "sssp/validate.hpp"

#include <string>

#include "sssp/paths.hpp"

namespace rdbs::sssp {

std::optional<std::string> validate_distances(
    const Csr& csr, VertexId source, const std::vector<Distance>& dist) {
  const VertexId n = csr.num_vertices();
  if (dist.size() != n) return "distance array size mismatch";
  if (source >= n) return "source out of range";
  if (dist[source] != 0) return "dist[source] != 0";

  // Feasibility: no out-edge of a reached vertex can still relax.
  for (VertexId u = 0; u < n; ++u) {
    if (dist[u] == kInfiniteDistance) continue;
    const auto neighbors = csr.neighbors(u);
    const auto weights = csr.edge_weights(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (dist[u] + weights[i] < dist[neighbors[i]]) {
        return "relaxable edge at edge (" + std::to_string(u) + " -> " +
               std::to_string(neighbors[i]) + ")";
      }
    }
  }
  // Achievability: every finite distance is the length of a tight path from
  // the source. The parent tree is exactly the search over tight edges.
  const std::vector<VertexId> parents = build_parent_tree(csr, source, dist);
  for (VertexId v = 0; v < n; ++v) {
    if (v != source && dist[v] != kInfiniteDistance &&
        parents[v] == graph::kInvalidVertex) {
      return "unattained finite distance at vertex " + std::to_string(v);
    }
  }
  return std::nullopt;
}

}  // namespace rdbs::sssp
