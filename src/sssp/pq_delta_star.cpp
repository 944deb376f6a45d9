#include "sssp/pq_delta_star.hpp"

#include <algorithm>
#include <vector>

#include "common/macros.hpp"

namespace rdbs::sssp {

SsspResult pq_delta_star(const Csr& csr, VertexId source,
                         const PqDeltaStarOptions& options) {
  RDBS_CHECK(source < csr.num_vertices());
  RDBS_CHECK(options.delta_star > 0);
  const VertexId n = csr.num_vertices();

  SsspResult result;
  result.distances.assign(n, kInfiniteDistance);
  result.distances[source] = 0;
  auto& dist = result.distances;
  Weight window = options.delta_star;

  // The lazy pool: vertices whose distance decreased since last extraction.
  std::vector<VertexId> pool{source};
  std::vector<char> in_pool(n, 0);
  in_pool[source] = 1;

  while (!pool.empty()) {
    ++result.work.iterations;

    // Find the current minimum tentative distance in the pool (lazy
    // extract-min over the whole pool; LAB-PQ amortizes this scan).
    Distance min_dist = kInfiniteDistance;
    for (const VertexId v : pool) min_dist = std::min(min_dist, dist[v]);
    const Distance threshold = min_dist + window;

    // Partition: the batch to relax now vs. the vertices left pooled.
    std::vector<VertexId> batch;
    std::vector<VertexId> remaining;
    batch.reserve(pool.size());
    for (const VertexId v : pool) {
      if (dist[v] <= threshold) {
        batch.push_back(v);
      } else {
        remaining.push_back(v);
      }
    }
    for (const VertexId v : batch) in_pool[v] = 0;
    pool.swap(remaining);

    // Adapt the window toward the target batch size (multiplicative
    // update, clamped to a sane range around the initial Δ*).
    if (batch.size() > 2 * options.target_batch) {
      window = std::max(window * 0.5, options.delta_star / 64);
    } else if (batch.size() < options.target_batch / 2) {
      window = std::min(window * 2.0, options.delta_star * 64);
    }

    // Relax the batch in order; a vertex joins the pool when it first
    // improves.
    for (const VertexId u : batch) {
      const Distance du = dist[u];
      const auto neighbors = csr.neighbors(u);
      const auto weights = csr.edge_weights(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const VertexId v = neighbors[i];
        const Distance through = du + weights[i];
        ++result.work.relaxations;
        if (through < dist[v]) {
          dist[v] = through;
          ++result.work.total_updates;
          if (!in_pool[v]) {
            in_pool[v] = 1;
            pool.push_back(v);
          }
        }
      }
    }
  }

  finalize_valid_updates(result, source);
  return result;
}

}  // namespace rdbs::sssp
