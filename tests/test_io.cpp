// Unit tests for graph I/O: edge list, DIMACS, MatrixMarket parsers and the
// binary CSR cache, including malformed-input handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "test_util.hpp"

namespace rdbs::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rdbs_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  void write_file(const std::string& name, const std::string& contents) {
    std::ofstream out(path(name));
    out << contents;
  }
  // Writes the u64 words of a hand-built binary CSR, then `tail` raw bytes.
  void write_words(const std::string& name,
                   const std::vector<std::uint64_t>& words,
                   const std::vector<std::uint32_t>& tail = {}) {
    std::ofstream out(path(name), std::ios::binary);
    out.write(reinterpret_cast<const char*>(words.data()),
              static_cast<std::streamsize>(words.size() * sizeof(words[0])));
    out.write(reinterpret_cast<const char*>(tail.data()),
              static_cast<std::streamsize>(tail.size() * sizeof(tail[0])));
  }
  // Both binary loaders must reject `name` with a runtime_error.
  void expect_rejected(const std::string& name) {
    EXPECT_THROW(MappedCsr{path(name)}, std::runtime_error);
    EXPECT_THROW(read_binary_csr(path(name)), std::runtime_error);
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.add_edge(0, 1, 2.5);
  edges.add_edge(3, 2, 1.0);
  write_edge_list(edges, path("g.txt"));
  const EdgeList back = read_edge_list(path("g.txt"));
  EXPECT_EQ(back.num_vertices, 4u);
  ASSERT_EQ(back.num_edges(), 2u);
  EXPECT_EQ(back.edges[0].src, 0u);
  EXPECT_DOUBLE_EQ(back.edges[0].weight, 2.5);
  EXPECT_EQ(back.edges[1].dst, 2u);
}

TEST_F(IoTest, EdgeListDefaultsWeightToOne) {
  write_file("g.txt", "# comment\n0 1\n1 2\n");
  const EdgeList edges = read_edge_list(path("g.txt"));
  ASSERT_EQ(edges.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(edges.edges[0].weight, 1.0);
  EXPECT_EQ(edges.num_vertices, 3u);
}

TEST_F(IoTest, EdgeListSkipsCommentsAndBlankLines) {
  write_file("g.txt", "% matlab style\n\n# snap style\n5 6 2.0\n");
  const EdgeList edges = read_edge_list(path("g.txt"));
  ASSERT_EQ(edges.num_edges(), 1u);
  EXPECT_EQ(edges.num_vertices, 7u);
}

TEST_F(IoTest, EdgeListRejectsMalformedLine) {
  write_file("g.txt", "abc def\n");
  EXPECT_THROW(read_edge_list(path("g.txt")), std::runtime_error);
}

TEST_F(IoTest, EdgeListRejectsMissingFile) {
  EXPECT_THROW(read_edge_list(path("missing.txt")), std::runtime_error);
}

TEST_F(IoTest, DimacsRoundTrip) {
  EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 4.0);
  edges.add_edge(2, 0, 7.0);
  write_dimacs(edges, path("g.gr"));
  const EdgeList back = read_dimacs(path("g.gr"));
  EXPECT_EQ(back.num_vertices, 3u);
  ASSERT_EQ(back.num_edges(), 2u);
  EXPECT_EQ(back.edges[0].src, 0u);  // converted back to 0-based
  EXPECT_DOUBLE_EQ(back.edges[1].weight, 7.0);
}

TEST_F(IoTest, DimacsRequiresHeader) {
  write_file("g.gr", "a 1 2 3\n");
  EXPECT_THROW(read_dimacs(path("g.gr")), std::runtime_error);
}

TEST_F(IoTest, DimacsRejectsZeroBasedIds) {
  write_file("g.gr", "p sp 2 1\na 0 1 5\n");
  EXPECT_THROW(read_dimacs(path("g.gr")), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketGeneralReal) {
  write_file("g.mtx",
             "%%MatrixMarket matrix coordinate real general\n"
             "% comment\n"
             "3 3 2\n"
             "1 2 4.5\n"
             "3 1 2.0\n");
  const EdgeList edges = read_matrix_market(path("g.mtx"));
  EXPECT_EQ(edges.num_vertices, 3u);
  ASSERT_EQ(edges.num_edges(), 2u);
  EXPECT_EQ(edges.edges[0].src, 0u);
  EXPECT_DOUBLE_EQ(edges.edges[0].weight, 4.5);
}

TEST_F(IoTest, MatrixMarketSymmetricAddsMirrors) {
  write_file("g.mtx",
             "%%MatrixMarket matrix coordinate pattern symmetric\n"
             "3 3 2\n"
             "2 1\n"
             "3 3\n");
  const EdgeList edges = read_matrix_market(path("g.mtx"));
  // (2,1) mirrored; the (3,3) diagonal is not.
  EXPECT_EQ(edges.num_edges(), 3u);
}

TEST_F(IoTest, MatrixMarketRejectsBadBanner) {
  write_file("g.mtx", "not a banner\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(path("g.mtx")), std::runtime_error);
}

TEST_F(IoTest, BinaryCsrRoundTrip) {
  const Csr csr = test::paper_figure1_graph();
  write_binary_csr(csr, path("g.bin"));
  const Csr back = read_binary_csr(path("g.bin"));
  EXPECT_EQ(back.num_vertices(), csr.num_vertices());
  EXPECT_EQ(back.num_edges(), csr.num_edges());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(back.degree(v), csr.degree(v));
    for (std::size_t i = 0; i < csr.neighbors(v).size(); ++i) {
      EXPECT_EQ(back.neighbors(v)[i], csr.neighbors(v)[i]);
      EXPECT_DOUBLE_EQ(back.edge_weights(v)[i], csr.edge_weights(v)[i]);
    }
  }
}

TEST_F(IoTest, MappedCsrMatchesOwningReader) {
  const Csr csr = test::paper_figure1_graph();
  write_binary_csr(csr, path("g.bin"));
  const MappedCsr mapped(path("g.bin"));
  EXPECT_EQ(mapped.num_vertices(), csr.num_vertices());
  EXPECT_EQ(mapped.num_edges(), csr.num_edges());
  EXPECT_GT(mapped.mapped_bytes(), 0u);
  const Csr copy = mapped.to_csr();
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(copy.degree(v), csr.degree(v));
    for (std::size_t i = 0; i < csr.neighbors(v).size(); ++i) {
      EXPECT_EQ(copy.neighbors(v)[i], csr.neighbors(v)[i]);
      EXPECT_DOUBLE_EQ(copy.edge_weights(v)[i], csr.edge_weights(v)[i]);
    }
  }
}

TEST_F(IoTest, MappedCsrReadsVersion1Files) {
  // Hand-write a v1 file (magic "RDBSCSR1", no alignment pad) with an odd
  // edge count, the case that forces the loader's weight-realignment copy:
  // 2 vertices, 1 edge 0->1 with weight 2.5.
  std::ofstream out(path("v1.bin"), std::ios::binary);
  auto put = [&](const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  };
  const std::uint64_t header[3] = {0x5244425343535231ULL, 2, 1};
  const EdgeIndex offsets[3] = {0, 1, 1};
  const VertexId adjacency[1] = {1};
  const Weight weights[1] = {2.5};
  put(header, sizeof header);
  put(offsets, sizeof offsets);
  put(adjacency, sizeof adjacency);
  put(weights, sizeof weights);
  out.close();

  const MappedCsr mapped(path("v1.bin"));
  EXPECT_EQ(mapped.num_vertices(), 2u);
  EXPECT_EQ(mapped.num_edges(), 1u);
  EXPECT_EQ(mapped.adjacency()[0], 1u);
  EXPECT_DOUBLE_EQ(mapped.weights()[0], 2.5);

  const Csr via_reader = read_binary_csr(path("v1.bin"));
  EXPECT_EQ(via_reader.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(via_reader.edge_weights(0)[0], 2.5);
}

TEST_F(IoTest, MappedCsrRejectsCorruptAndTruncatedFiles) {
  write_file("bad.bin", "garbage data that is definitely not a CSR header");
  EXPECT_THROW(MappedCsr(path("bad.bin")), std::runtime_error);

  const Csr csr = test::paper_figure1_graph();
  write_binary_csr(csr, path("g.bin"));
  std::filesystem::resize_file(path("g.bin"),
                               std::filesystem::file_size(path("g.bin")) / 2);
  EXPECT_THROW(MappedCsr(path("g.bin")), std::runtime_error);
  EXPECT_THROW(MappedCsr(path("missing.bin")), std::runtime_error);
}

constexpr std::uint64_t kMagicV1 = 0x5244425343535231ULL;  // "RDBSCSR1"
constexpr std::uint64_t kMagicV2 = 0x5244425343535232ULL;  // "RDBSCSR2"

TEST_F(IoTest, BinaryCsrRejectsVertexCountBeyondVertexId) {
  // 56 bytes claiming 2^61 vertices: (V + 1) * 8 wraps to 8, so a size
  // check by multiplication sees a tiny offsets section.
  write_words("huge_v.bin", {kMagicV2, 1ull << 61, 0, 0, 0, 0, 0});
  ASSERT_EQ(std::filesystem::file_size(path("huge_v.bin")), 56u);
  expect_rejected("huge_v.bin");
}

TEST_F(IoTest, BinaryCsrRejectsOverflowingSectionSizes) {
  // 2^62 edges: the adjacency and weight sections wrap to 0 bytes.
  write_words("huge_e.bin", {kMagicV2, 1, 1ull << 62, 0, 1ull << 62});
  expect_rejected("huge_e.bin");
}

TEST_F(IoTest, BinaryCsrRejectsOutOfRangeAdjacency) {
  // Version 1, 2 vertices, one edge 0 -> 5 (weight 1.0): 60 bytes.
  write_words("bad_dst.bin", {kMagicV1, 2, 1, 0, 1, 1},
              {5, 0, 0x3ff00000u});
  ASSERT_EQ(std::filesystem::file_size(path("bad_dst.bin")), 60u);
  expect_rejected("bad_dst.bin");
}

TEST_F(IoTest, BinaryCsrRejectsMalformedOffsets) {
  // Non-monotone: 0, 2, 1 for one edge 0 -> 1.
  write_words("dip.bin", {kMagicV1, 2, 1, 0, 2, 1}, {1, 0, 0x3ff00000u});
  expect_rejected("dip.bin");
  // Not starting at 0: 1, 1, 1.
  write_words("shift.bin", {kMagicV1, 2, 1, 1, 1, 1}, {1, 0, 0x3ff00000u});
  expect_rejected("shift.bin");
}

TEST_F(IoTest, BinaryCsrRejectsCorruptMagic) {
  write_file("g.bin", "garbage data that is definitely not a CSR header");
  EXPECT_THROW(read_binary_csr(path("g.bin")), std::runtime_error);
}

TEST_F(IoTest, BinaryCsrRejectsTruncation) {
  const Csr csr = test::paper_figure1_graph();
  write_binary_csr(csr, path("g.bin"));
  std::filesystem::resize_file(path("g.bin"),
                               std::filesystem::file_size(path("g.bin")) / 2);
  EXPECT_THROW(read_binary_csr(path("g.bin")), std::runtime_error);
}

}  // namespace
}  // namespace rdbs::graph
