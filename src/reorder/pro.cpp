#include "reorder/pro.hpp"

#include <algorithm>
#include <numeric>

#include "common/macros.hpp"

namespace rdbs::reorder {

Permutation::Permutation(std::vector<VertexId> new_to_old)
    : new_to_old_(std::move(new_to_old)) {
  old_to_new_.resize(new_to_old_.size(), graph::kInvalidVertex);
  for (VertexId r = 0; r < size(); ++r) {
    const VertexId original = new_to_old_[r];
    RDBS_CHECK_MSG(original < size(), "permutation value out of range");
    RDBS_CHECK_MSG(old_to_new_[original] == graph::kInvalidVertex,
                   "permutation has duplicate values");
    old_to_new_[original] = r;
  }
}

bool Permutation::is_identity() const {
  for (VertexId r = 0; r < size(); ++r) {
    if (new_to_old_[r] != r) return false;
  }
  return true;
}

Permutation degree_descending_permutation(const Csr& csr) {
  std::vector<VertexId> order(csr.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const EdgeIndex da = csr.degree(a);
    const EdgeIndex db = csr.degree(b);
    if (da != db) return da > db;
    return a < b;  // deterministic tie-break
  });
  return Permutation(std::move(order));
}

Csr apply_permutation(const Csr& csr, const Permutation& perm) {
  const VertexId n = csr.num_vertices();
  RDBS_CHECK(perm.size() == n);

  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId r = 0; r < n; ++r) {
    offsets[r + 1] = offsets[r] + csr.degree(perm.to_original(r));
  }

  std::vector<VertexId> adjacency(csr.num_edges());
  std::vector<Weight> weights(csr.num_edges());
  for (VertexId r = 0; r < n; ++r) {
    const VertexId original = perm.to_original(r);
    EdgeIndex write = offsets[r];
    for (EdgeIndex e = csr.row_begin(original); e < csr.row_end(original);
         ++e) {
      adjacency[write] = perm.to_reordered(csr.neighbor(e));
      weights[write] = csr.weight(e);
      ++write;
    }
  }
  return Csr(std::move(offsets), std::move(adjacency), std::move(weights));
}

Csr sort_adjacency_by_weight(const Csr& csr, Weight delta) {
  std::vector<EdgeIndex> offsets(csr.row_offsets().begin(),
                                 csr.row_offsets().end());
  std::vector<VertexId> adjacency(csr.num_edges());
  std::vector<Weight> weights(csr.num_edges());

  std::vector<std::pair<Weight, VertexId>> row;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    row.clear();
    for (EdgeIndex e = csr.row_begin(v); e < csr.row_end(v); ++e) {
      row.emplace_back(csr.weight(e), csr.neighbor(e));
    }
    std::sort(row.begin(), row.end());
    EdgeIndex write = csr.row_begin(v);
    for (const auto& [w, dst] : row) {
      weights[write] = w;
      adjacency[write] = dst;
      ++write;
    }
  }

  Csr out(std::move(offsets), std::move(adjacency), std::move(weights));
  out.recompute_heavy_offsets(delta);
  return out;
}

ProResult property_driven_reorder(const Csr& csr, Weight delta) {
  Permutation perm = degree_descending_permutation(csr);
  Csr relabeled = apply_permutation(csr, perm);
  Csr sorted = sort_adjacency_by_weight(relabeled, delta);
  return {std::move(sorted), std::move(perm)};
}

ProFrontEnd::ProFrontEnd(const Csr& csr, bool reorder, Weight delta) {
  if (!reorder) {
    csr_ = csr;
    return;
  }
  ProResult pro = property_driven_reorder(csr, delta);
  csr_ = std::move(pro.csr);
  perm_ = std::move(pro.perm);
  permuted_ = true;
}

const std::vector<Distance>* ProFrontEnd::to_engine(
    const std::vector<Distance>* values) {
  if (values == nullptr || !permuted_) return values;
  scratch_ = perm_.permute(*values);
  return &scratch_;
}

}  // namespace rdbs::reorder
