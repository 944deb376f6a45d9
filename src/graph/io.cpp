#include "graph/io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/macros.hpp"

namespace rdbs::graph {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw std::runtime_error("graph I/O error (" + path + "): " + why);
}

bool is_comment(const std::string& line) {
  return line.empty() || line[0] == '#' || line[0] == '%';
}

void grow_to_fit(EdgeList& edges, VertexId v) {
  if (v >= edges.num_vertices) edges.num_vertices = v + 1;
}

}  // namespace

EdgeList read_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open");
  EdgeList out;
  std::string line;
  while (std::getline(in, line)) {
    if (is_comment(line)) continue;
    std::istringstream fields(line);
    std::uint64_t src = 0, dst = 0;
    double weight = 1.0;
    if (!(fields >> src >> dst)) fail(path, "malformed edge line: " + line);
    fields >> weight;  // optional third column
    const auto s = static_cast<VertexId>(src);
    const auto d = static_cast<VertexId>(dst);
    grow_to_fit(out, s);
    grow_to_fit(out, d);
    out.add_edge(s, d, weight);
  }
  return out;
}

void write_edge_list(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail(path, "cannot open for writing");
  out << "# rdbs edge list: " << edges.num_vertices << " vertices, "
      << edges.num_edges() << " edges\n";
  for (const auto& e : edges.edges) {
    out << e.src << ' ' << e.dst << ' ' << e.weight << '\n';
  }
}

EdgeList read_dimacs(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open");
  EdgeList out;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream fields(line);
    char tag = 0;
    fields >> tag;
    if (tag == 'p') {
      std::string kind;
      std::uint64_t v = 0, e = 0;
      if (!(fields >> kind >> v >> e)) fail(path, "bad problem line");
      out.num_vertices = static_cast<VertexId>(v);
      out.edges.reserve(e);
      saw_header = true;
    } else if (tag == 'a') {
      std::uint64_t u = 0, v = 0;
      double w = 1.0;
      if (!(fields >> u >> v >> w)) fail(path, "bad arc line: " + line);
      if (u == 0 || v == 0) fail(path, "DIMACS ids are 1-based");
      const auto s = static_cast<VertexId>(u - 1);
      const auto d = static_cast<VertexId>(v - 1);
      grow_to_fit(out, s);
      grow_to_fit(out, d);
      out.add_edge(s, d, w);
    }
  }
  if (!saw_header) fail(path, "missing 'p sp' header");
  return out;
}

void write_dimacs(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail(path, "cannot open for writing");
  out << "c generated by rdbs\n";
  out << "p sp " << edges.num_vertices << ' ' << edges.num_edges() << '\n';
  for (const auto& e : edges.edges) {
    out << "a " << (e.src + 1) << ' ' << (e.dst + 1) << ' ' << e.weight
        << '\n';
  }
}

EdgeList read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open");
  std::string line;
  if (!std::getline(in, line)) fail(path, "empty file");
  if (line.rfind("%%MatrixMarket", 0) != 0) fail(path, "missing MM banner");
  const bool symmetric = line.find("symmetric") != std::string::npos;
  const bool pattern = line.find("pattern") != std::string::npos;

  // Skip remaining comments, then read the size line.
  while (std::getline(in, line) && !line.empty() && line[0] == '%') {
  }
  std::istringstream size_line(line);
  std::uint64_t rows = 0, cols = 0, nnz = 0;
  if (!(size_line >> rows >> cols >> nnz)) fail(path, "bad size line");

  EdgeList out;
  out.num_vertices = static_cast<VertexId>(std::max(rows, cols));
  out.edges.reserve(symmetric ? nnz * 2 : nnz);
  for (std::uint64_t i = 0; i < nnz; ++i) {
    if (!std::getline(in, line)) fail(path, "truncated entries");
    if (is_comment(line)) {
      --i;
      continue;
    }
    std::istringstream fields(line);
    std::uint64_t r = 0, c = 0;
    double w = 1.0;
    if (!(fields >> r >> c)) fail(path, "bad entry: " + line);
    if (!pattern) fields >> w;
    if (r == 0 || c == 0) fail(path, "MatrixMarket ids are 1-based");
    const auto s = static_cast<VertexId>(r - 1);
    const auto d = static_cast<VertexId>(c - 1);
    out.add_edge(s, d, w);
    if (symmetric && s != d) out.add_edge(d, s, w);
  }
  return out;
}

// --- binary CSR -------------------------------------------------------------
// Layout (all little-endian, header fields 8 bytes each):
//   magic | num_vertices | num_edges
//   row_offsets[V+1] (u64) | adjacency[E] (u32) | pad | weights[E] (f64)
// Version 2 pads the adjacency array to an 8-byte boundary so the weight
// array can be aliased in place by MappedCsr; version 1 files (no pad) are
// still readable.

namespace {
constexpr std::uint64_t kBinaryMagicV1 = 0x5244425343535231ULL;  // "RDBSCSR1"
constexpr std::uint64_t kBinaryMagicV2 = 0x5244425343535232ULL;  // "RDBSCSR2"
constexpr std::size_t kBinaryHeaderBytes = 3 * sizeof(std::uint64_t);

std::size_t weights_pad_bytes(std::uint64_t magic, std::uint64_t num_edges) {
  if (magic == kBinaryMagicV1) return 0;
  return (num_edges % 2 == 0) ? 0 : sizeof(VertexId);
}
}  // namespace

void write_binary_csr(const Csr& csr, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(path, "cannot open for writing");
  auto put = [&](const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  };
  const std::uint64_t magic = kBinaryMagicV2;
  const std::uint64_t v = csr.num_vertices();
  const std::uint64_t e = csr.num_edges();
  put(&magic, sizeof magic);
  put(&v, sizeof v);
  put(&e, sizeof e);
  put(csr.row_offsets().data(), csr.row_offsets().size() * sizeof(EdgeIndex));
  put(csr.adjacency().data(), csr.adjacency().size() * sizeof(VertexId));
  const std::uint32_t pad = 0;
  put(&pad, weights_pad_bytes(magic, e));
  put(csr.weights().data(), csr.weights().size() * sizeof(Weight));
  if (!out) fail(path, "write failed");
}

Csr read_binary_csr(const std::string& path) {
  return MappedCsr(path).to_csr();
}

// --- MappedCsr --------------------------------------------------------------

MappedCsr::MappedCsr(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "fstat failed");
  }
  const auto length = static_cast<std::size_t>(st.st_size);
  if (length < kBinaryHeaderBytes) {
    ::close(fd);
    fail(path, "truncated binary CSR");
  }
  void* base = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (base == MAP_FAILED) fail(path, "mmap failed");
  map_base_ = base;
  map_length_ = length;
  try {
    parse(path);
  } catch (...) {
    ::munmap(map_base_, map_length_);  // a throwing ctor runs no dtor
    throw;
  }
}

void MappedCsr::parse(const std::string& path) {
  const auto* bytes = static_cast<const std::byte*>(map_base_);
  std::uint64_t header[3];
  std::memcpy(header, bytes, sizeof header);
  const std::uint64_t magic = header[0], v = header[1], e = header[2];
  if (magic != kBinaryMagicV1 && magic != kBinaryMagicV2) {
    fail(path, "bad magic");
  }
  if (v > std::numeric_limits<VertexId>::max()) {
    fail(path, "vertex count does not fit a 32-bit vertex id");
  }
  // Every section must fit what is left of the file; dividing instead of
  // multiplying keeps a huge header count from wrapping the size.
  std::size_t left = map_length_ - kBinaryHeaderBytes;
  const auto take = [&](std::uint64_t count, std::size_t elem_bytes) {
    if (count > left / elem_bytes) fail(path, "truncated binary CSR");
    left -= count * elem_bytes;
    return static_cast<std::size_t>(count * elem_bytes);
  };
  const std::size_t offsets_bytes = take(v + 1, sizeof(EdgeIndex));
  const std::size_t adjacency_bytes = take(e, sizeof(VertexId));
  const std::size_t pad = take(weights_pad_bytes(magic, e), 1);
  take(e, sizeof(Weight));

  const std::byte* cursor = bytes + kBinaryHeaderBytes;
  row_offsets_ = {reinterpret_cast<const EdgeIndex*>(cursor),
                  static_cast<std::size_t>(v + 1)};
  cursor += offsets_bytes;
  adjacency_ = {reinterpret_cast<const VertexId*>(cursor),
                static_cast<std::size_t>(e)};
  cursor += adjacency_bytes + pad;
  if (reinterpret_cast<std::uintptr_t>(cursor) % alignof(Weight) == 0) {
    weights_ = {reinterpret_cast<const Weight*>(cursor),
                static_cast<std::size_t>(e)};
  } else {  // version-1 file with odd edge count: copy once, stay aligned
    realigned_weights_.resize(e);
    std::memcpy(realigned_weights_.data(), cursor, e * sizeof(Weight));
    weights_ = realigned_weights_;
  }
  // The structure Csr requires, checked here so no file can abort it.
  if (row_offsets_.front() != 0) fail(path, "row offsets do not start at 0");
  if (row_offsets_.back() != e) fail(path, "row offsets disagree with header");
  if (!std::is_sorted(row_offsets_.begin(), row_offsets_.end())) {
    fail(path, "row offsets are not monotone");
  }
  for (const VertexId dst : adjacency_) {
    if (dst >= v) fail(path, "adjacency id out of range");
  }
}

MappedCsr::~MappedCsr() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_length_);
}

void MappedCsr::swap(MappedCsr& other) noexcept {
  std::swap(map_base_, other.map_base_);
  std::swap(map_length_, other.map_length_);
  std::swap(row_offsets_, other.row_offsets_);
  std::swap(adjacency_, other.adjacency_);
  std::swap(weights_, other.weights_);
  // Vector swap exchanges heap buffers without reallocating, so the weight
  // spans swapped above still point into the right storage.
  std::swap(realigned_weights_, other.realigned_weights_);
}

Csr MappedCsr::to_csr() const {
  return Csr({row_offsets_.begin(), row_offsets_.end()},
             {adjacency_.begin(), adjacency_.end()},
             {weights_.begin(), weights_.end()});
}

}  // namespace rdbs::graph
