// Shortest-path tree reconstruction.
//
// The engines in this library compute distances only (like the paper's
// kernels); a predecessor tree can always be recovered afterwards by one
// search from the source over tight edges (dist[u] + w == dist[v]), because
// a distance array that passes validate_distances reaches every finite
// vertex that way. build_parent_tree takes each vertex's first discoverer
// (deterministic: breadth-first, adjacency order) and extract_path walks
// it — O(V + E) once, then O(path length) per query.
#pragma once

#include <optional>
#include <vector>

#include "sssp/result.hpp"

namespace rdbs::sssp {

// parents[v] = predecessor of v on a shortest path from the source
// (kInvalidVertex for the source itself and for unreached vertices).
// Requires `dist` to be a valid shortest-distance array for `csr`.
std::vector<VertexId> build_parent_tree(const Csr& csr, VertexId source,
                                        const std::vector<Distance>& dist);

// The vertex sequence source -> ... -> target, or nullopt if unreached.
std::optional<std::vector<VertexId>> extract_path(
    const std::vector<VertexId>& parents, VertexId source, VertexId target);

// Certifies a parent tree against a distance array: every reached vertex's
// parent edge must exist and attain its distance, and its parent chain must
// lead back to the source. Returns the first offending vertex, or nullopt
// when valid.
std::optional<VertexId> validate_parent_tree(
    const Csr& csr, VertexId source, const std::vector<Distance>& dist,
    const std::vector<VertexId>& parents);

}  // namespace rdbs::sssp
