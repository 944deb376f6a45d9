// Ligra-like shared-memory graph-traversal framework (Shun & Blelloch,
// PPoPP'13 — paper ref [31]).
//
// Ligra's interface is two higher-order operators over a frontier, edgeMap
// and vertexMap. The SSSP comparator needs only the first:
//
//   edge_map(graph, frontier, F)    — apply F.update(u, v, w) to the edges
//                                     leaving the frontier; vertices for
//                                     which F.update returns true (and
//                                     F.cond(v) held) form the next
//                                     frontier. Automatically switches
//                                     between a SPARSE traversal (iterate
//                                     the frontier's out-edges) and a DENSE
//                                     one (iterate all vertices' in-edges)
//                                     when the frontier exceeds |E|/20 —
//                                     Ligra's signature optimization.
//
// VertexSubset is the frontier representation, convertible between sparse
// (index list) and dense (bitmap) forms. sssp_bellman_ford() is the
// paper's Ligra comparator: Bellman-Ford written in the framework. The
// original runs each edge_map in parallel; this one runs on one host
// thread, so its work counters are the same on every run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sssp/result.hpp"

namespace rdbs::sssp::ligra {

// A subset of vertices in sparse (list) and/or dense (flag) form.
class VertexSubset {
 public:
  explicit VertexSubset(graph::VertexId universe_size);
  VertexSubset(graph::VertexId universe_size,
               std::vector<graph::VertexId> sparse);

  graph::VertexId universe_size() const { return universe_; }
  std::uint64_t size() const { return sparse_.size(); }
  bool empty() const { return sparse_.empty(); }

  const std::vector<graph::VertexId>& vertices() const { return sparse_; }
  bool contains(graph::VertexId v) const { return dense_[v] != 0; }

  void add(graph::VertexId v);
  void clear();

 private:
  graph::VertexId universe_;
  std::vector<graph::VertexId> sparse_;
  std::vector<char> dense_;
};

// The F of edge_map: update returns true if v should join the output
// frontier; cond gates whether v is even considered (Ligra's early exit).
struct EdgeMapFunctor {
  // update(u, v, w): process edge; return "v newly activated".
  std::function<bool(graph::VertexId, graph::VertexId, graph::Weight)> update;
  // cond(v): false skips v entirely (e.g. already-settled vertices).
  std::function<bool(graph::VertexId)> cond;
};

struct EdgeMapStats {
  std::uint64_t sparse_rounds = 0;
  std::uint64_t dense_rounds = 0;
  std::uint64_t edges_traversed = 0;
};

// Threshold fraction of |E| above which edge_map goes dense (Ligra: 1/20).
inline constexpr double kDenseThresholdFraction = 1.0 / 20.0;

// One edge_map step; stats (if given) records which mode ran.
VertexSubset edge_map(const Csr& csr, const VertexSubset& frontier,
                      const EdgeMapFunctor& f, EdgeMapStats* stats = nullptr);

// Bellman-Ford SSSP written against the framework — the paper's Ligra
// comparator. Returns work stats plus the sparse/dense round split.
struct LigraSsspResult {
  SsspResult sssp;
  EdgeMapStats stats;
};

LigraSsspResult sssp_bellman_ford(const Csr& csr, graph::VertexId source);

}  // namespace rdbs::sssp::ligra
