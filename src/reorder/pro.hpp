// Property-driven reordering (PRO), paper §4.1 / Fig. 4.
//
// Two relabeling/restructuring steps applied at preprocessing time:
//
//  1. Degree-driven vertex reordering: vertices are sorted by descending
//     degree and reassigned ids, so the frequently-touched high-degree
//     vertices are stored together (low ids) — improving locality of the
//     distance array and frontier structures.
//
//  2. Weight-driven adjacency reordering: each vertex's adjacency/value
//     lists are sorted by ascending edge weight, and the offset of the
//     first *heavy* edge (weight >= Δ) is recorded per vertex. Phase 1
//     (light edges) and phase 2 (heavy edges) of Δ-stepping then scan
//     contiguous ranges with no weight-comparison branch per edge — the
//     divergence the paper's Motivation 1 measures disappears.
//
// The permutation is retained so distances can be mapped back to original
// vertex ids (Permutation::to_original / to_reordered).
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace rdbs::reorder {

using graph::Csr;
using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

// A bijection between original and reordered vertex ids.
class Permutation {
 public:
  Permutation() = default;
  // new_to_old[r] = original id of reordered vertex r.
  explicit Permutation(std::vector<VertexId> new_to_old);

  VertexId size() const { return static_cast<VertexId>(new_to_old_.size()); }
  VertexId to_original(VertexId reordered) const {
    return new_to_old_[reordered];
  }
  VertexId to_reordered(VertexId original) const {
    return old_to_new_[original];
  }

  // Identity check (useful in tests).
  bool is_identity() const;

  // Maps an array indexed by reordered ids back to original indexing.
  template <typename T>
  std::vector<T> unpermute(const std::vector<T>& reordered_values) const {
    std::vector<T> original_values(reordered_values.size());
    for (VertexId r = 0; r < size(); ++r) {
      original_values[new_to_old_[r]] = reordered_values[r];
    }
    return original_values;
  }
  // Maps an array indexed by original ids to reordered indexing (the
  // inverse of unpermute).
  template <typename T>
  std::vector<T> permute(const std::vector<T>& original_values) const {
    std::vector<T> reordered_values(original_values.size());
    for (VertexId v = 0; v < size(); ++v) {
      reordered_values[old_to_new_[v]] = original_values[v];
    }
    return reordered_values;
  }

 private:
  std::vector<VertexId> new_to_old_;
  std::vector<VertexId> old_to_new_;
};

// Degree-descending permutation of a graph's vertices (step 1). Ties are
// broken by original id so the result is deterministic.
Permutation degree_descending_permutation(const Csr& csr);

// Applies a vertex permutation to a graph: relabels endpoints and regroups
// adjacency under the new ids. Weights follow their edges.
Csr apply_permutation(const Csr& csr, const Permutation& perm);

// Sorts every vertex's adjacency/value lists by ascending weight (step 2,
// stable on destination id for determinism) and attaches heavy offsets for
// the given Δ.
Csr sort_adjacency_by_weight(const Csr& csr, Weight delta);

struct ProResult {
  Csr csr;            // fully reordered graph with heavy offsets attached
  Permutation perm;   // reordered id -> original id mapping
};

// The full PRO pipeline: degree reorder, then weight sort + heavy offsets.
ProResult property_driven_reorder(const Csr& csr, Weight delta);

// The front end of a solver that may run PRO (RdbsSolver, QueryBatch): the
// graph its engine runs on — PRO-reordered for `delta` when `reorder` is
// set, else a copy of the caller's — and the mapping between the caller's
// vertex numbering and the engine's.
class ProFrontEnd {
 public:
  ProFrontEnd() = default;
  ProFrontEnd(const Csr& csr, bool reorder, Weight delta);

  // The engine-facing graph.
  const Csr& csr() const { return csr_; }
  // A caller's vertex id in engine numbering.
  VertexId to_engine(VertexId v) const {
    return permuted_ ? perm_.to_reordered(v) : v;
  }
  // Per-vertex values in engine numbering: `values` itself when nothing
  // was reordered, else a permuted copy that stays valid until the next
  // call (an engine re-reads its warm bounds on every retry). nullptr
  // passes through.
  const std::vector<Distance>* to_engine(const std::vector<Distance>* values);
  // Maps engine-numbered distances back to the caller's numbering in place
  // (empty stays empty: no distances after a typed failure).
  void to_caller(std::vector<Distance>& distances) const {
    if (permuted_ && !distances.empty()) distances = perm_.unpermute(distances);
  }

 private:
  Csr csr_;
  Permutation perm_;  // empty when nothing was reordered
  bool permuted_ = false;
  std::vector<Distance> scratch_;  // to_engine's permuted copy
};

}  // namespace rdbs::reorder
