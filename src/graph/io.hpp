// Graph file I/O.
//
// Users who have the paper's original SNAP / Network Repository datasets can
// load them through these parsers; the bench harness falls back to the
// surrogate generators otherwise.
//
// Supported formats:
//  - whitespace edge list: "src dst [weight]" per line, '#'/'%' comments
//    (SNAP download format)
//  - DIMACS shortest-path format (.gr): "p sp V E" header, "a u v w" arcs,
//    1-based vertex ids
//  - MatrixMarket coordinate format (.mtx): general or symmetric,
//    pattern/real/integer fields
//  - a binary CSR cache for fast reloads
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "graph/coo.hpp"
#include "graph/csr.hpp"

namespace rdbs::graph {

EdgeList read_edge_list(const std::string& path);
void write_edge_list(const EdgeList& edges, const std::string& path);

EdgeList read_dimacs(const std::string& path);
void write_dimacs(const EdgeList& edges, const std::string& path);

EdgeList read_matrix_market(const std::string& path);

void write_binary_csr(const Csr& csr, const std::string& path);
// MappedCsr(path).to_csr(): the same validation, an owned copy.
Csr read_binary_csr(const std::string& path);

// Zero-copy view of an on-disk binary CSR (the write_binary_csr format),
// backed by a read-only memory mapping. Loading a SCALE-21 graph this way
// costs page-table setup instead of a full file read, and the page cache
// shares one physical copy across concurrent tool/bench processes — the
// capacity story behind examples/graph_convert.
//
// The view stays valid for the lifetime of the object. `to_csr()` copies
// into an owned Csr for APIs that need one; prefer the spans for
// stats/inspection tools.
class MappedCsr {
 public:
  MappedCsr() = default;
  // Throws std::runtime_error when the file cannot be mapped or is not a
  // well-formed CSR: bad magic, a vertex count beyond VertexId, sections
  // that overrun the file, offsets that do not run monotonically from 0 to
  // the edge count, or an adjacency id >= the vertex count.
  explicit MappedCsr(const std::string& path);
  ~MappedCsr();

  MappedCsr(MappedCsr&& other) noexcept { swap(other); }
  MappedCsr& operator=(MappedCsr&& other) noexcept {
    swap(other);
    return *this;
  }
  MappedCsr(const MappedCsr&) = delete;
  MappedCsr& operator=(const MappedCsr&) = delete;

  VertexId num_vertices() const {
    return row_offsets_.empty()
               ? 0
               : static_cast<VertexId>(row_offsets_.size() - 1);
  }
  EdgeIndex num_edges() const {
    return row_offsets_.empty() ? 0 : row_offsets_.back();
  }
  std::span<const EdgeIndex> row_offsets() const { return row_offsets_; }
  std::span<const VertexId> adjacency() const { return adjacency_; }
  std::span<const Weight> weights() const { return weights_; }
  std::size_t mapped_bytes() const { return map_length_; }

  Csr to_csr() const;

 private:
  void swap(MappedCsr& other) noexcept;
  // Validates the mapped bytes and points the spans into them.
  void parse(const std::string& path);

  void* map_base_ = nullptr;
  std::size_t map_length_ = 0;
  std::span<const EdgeIndex> row_offsets_;
  std::span<const VertexId> adjacency_;
  std::span<const Weight> weights_;
  // Version-1 files lack the alignment pad, so with an odd edge count the
  // weight array sits on a 4-byte boundary; it is copied out once instead
  // of aliased (doubles must not be read through a misaligned pointer).
  std::vector<Weight> realigned_weights_;
};

}  // namespace rdbs::graph
