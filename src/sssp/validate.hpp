// Certification of an SSSP solution.
//
// A distance array is exactly the shortest-distance function iff:
//   (1) dist[source] == 0;
//   (2) feasibility: dist[v] <= dist[u] + w for every edge (u, v, w) with
//       dist[u] finite (no edge can still relax; in particular no reached
//       vertex has an unreached out-neighbor);
//   (3) achievability: every finite dist[v] is reached from the source by a
//       search over tight edges (dist[u] + w == dist[v]), i.e. it is the
//       length of an actual path. Checking each vertex for one tight in-edge
//       is not enough: a zero-weight cycle attains its own underestimate.
// One O(V + E) pass for each. This certificate is independent of which
// algorithm produced the array and is exact under floating point because
// all algorithms in this library compute path lengths as left-to-right sums.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sssp/result.hpp"

namespace rdbs::sssp {

// Returns std::nullopt if valid, otherwise a human-readable description of
// the first violated condition.
std::optional<std::string> validate_distances(
    const Csr& csr, VertexId source, const std::vector<Distance>& dist);

}  // namespace rdbs::sssp
