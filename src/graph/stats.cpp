#include "graph/stats.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "common/rng.hpp"

namespace rdbs::graph {

DegreeStats compute_degree_stats(const Csr& csr) {
  DegreeStats stats;
  const VertexId n = csr.num_vertices();
  if (n == 0) return stats;

  std::vector<EdgeIndex> degrees(n);
  stats.min_degree = csr.degree(0);
  for (VertexId v = 0; v < n; ++v) {
    degrees[v] = csr.degree(v);
    stats.min_degree = std::min(stats.min_degree, degrees[v]);
    stats.max_degree = std::max(stats.max_degree, degrees[v]);
  }
  stats.average_degree =
      static_cast<double>(csr.num_edges()) / static_cast<double>(n);

  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  const std::size_t top = std::max<std::size_t>(1, n / 100);
  EdgeIndex top_edges = 0;
  for (std::size_t i = 0; i < top; ++i) top_edges += degrees[i];
  stats.top1pct_edge_share = csr.num_edges() == 0
                                 ? 0.0
                                 : static_cast<double>(top_edges) /
                                       static_cast<double>(csr.num_edges());
  return stats;
}

std::vector<std::uint64_t> degree_log_histogram(const Csr& csr) {
  std::vector<std::uint64_t> histogram;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const EdgeIndex d = csr.degree(v);
    std::size_t bucket = 0;
    EdgeIndex threshold = 2;
    while (threshold <= d) {
      ++bucket;
      threshold <<= 1;
    }
    if (bucket >= histogram.size()) histogram.resize(bucket + 1, 0);
    ++histogram[bucket];
  }
  return histogram;
}

namespace {

// BFS returning (max depth reached, farthest vertex).
std::pair<std::uint32_t, VertexId> bfs_eccentricity(const Csr& csr,
                                                    VertexId src,
                                                    std::vector<std::uint32_t>&
                                                        depth_scratch) {
  constexpr std::uint32_t kUnvisited = ~0u;
  std::fill(depth_scratch.begin(), depth_scratch.end(), kUnvisited);
  std::queue<VertexId> frontier;
  depth_scratch[src] = 0;
  frontier.push(src);
  std::uint32_t max_depth = 0;
  VertexId farthest = src;
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    for (const VertexId v : csr.neighbors(u)) {
      if (depth_scratch[v] == kUnvisited) {
        depth_scratch[v] = depth_scratch[u] + 1;
        if (depth_scratch[v] > max_depth) {
          max_depth = depth_scratch[v];
          farthest = v;
        }
        frontier.push(v);
      }
    }
  }
  return {max_depth, farthest};
}

}  // namespace

std::uint32_t approximate_diameter(const Csr& csr, int samples,
                                   std::uint64_t seed) {
  const VertexId n = csr.num_vertices();
  if (n == 0) return 0;
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> depth(n);
  std::uint32_t best = 0;
  for (int i = 0; i < samples; ++i) {
    const auto src = static_cast<VertexId>(rng.next_below(n));
    auto [depth1, far1] = bfs_eccentricity(csr, src, depth);
    best = std::max(best, depth1);
    // Double sweep: BFS from the farthest vertex usually tightens the bound.
    auto [depth2, far2] = bfs_eccentricity(csr, far1, depth);
    (void)far2;
    best = std::max(best, depth2);
  }
  return best;
}

std::uint64_t reachable_count(const Csr& csr, VertexId src) {
  std::vector<bool> visited(csr.num_vertices(), false);
  std::queue<VertexId> frontier;
  visited[src] = true;
  frontier.push(src);
  std::uint64_t count = 1;
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    for (const VertexId v : csr.neighbors(u)) {
      if (!visited[v]) {
        visited[v] = true;
        ++count;
        frontier.push(v);
      }
    }
  }
  return count;
}

ComponentInfo connected_components(const Csr& csr) {
  ComponentInfo info;
  const VertexId n = csr.num_vertices();
  std::vector<bool> visited(n, false);
  std::queue<VertexId> frontier;
  for (VertexId root = 0; root < n; ++root) {
    if (visited[root]) continue;
    ++info.component_count;
    std::uint64_t size = 1;
    visited[root] = true;
    frontier.push(root);
    while (!frontier.empty()) {
      const VertexId u = frontier.front();
      frontier.pop();
      for (const VertexId v : csr.neighbors(u)) {
        if (!visited[v]) {
          visited[v] = true;
          ++size;
          frontier.push(v);
        }
      }
    }
    if (size > info.largest_size) {
      info.largest_size = size;
      info.representative = root;
    }
  }
  return info;
}

bool is_symmetric(const Csr& csr) {
  // Sort-and-compare keeps it O(m log m) with no hashing.
  std::vector<std::tuple<VertexId, VertexId, Weight>> fwd;
  std::vector<std::tuple<VertexId, VertexId, Weight>> rev;
  fwd.reserve(csr.num_edges());
  rev.reserve(csr.num_edges());
  for (VertexId u = 0; u < csr.num_vertices(); ++u) {
    const auto dsts = csr.neighbors(u);
    const auto ws = csr.edge_weights(u);
    for (std::size_t i = 0; i < dsts.size(); ++i) {
      fwd.emplace_back(u, dsts[i], ws[i]);
      rev.emplace_back(dsts[i], u, ws[i]);
    }
  }
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  return fwd == rev;
}

}  // namespace rdbs::graph
