// Shared helpers for the RDBS test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "gpusim/counters.hpp"
#include "graph/builder.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"

namespace rdbs::test {

using graph::Csr;
using graph::EdgeList;
using graph::VertexId;
using graph::Weight;

// The paper's Fig. 1(a) example: 8 vertices, 13 undirected edges.
inline Csr paper_figure1_graph() {
  EdgeList edges;
  edges.num_vertices = 8;
  edges.add_edge(0, 1, 5);
  edges.add_edge(0, 2, 1);
  edges.add_edge(0, 3, 3);
  edges.add_edge(1, 3, 5);
  edges.add_edge(1, 5, 1);
  edges.add_edge(2, 3, 7);
  edges.add_edge(2, 7, 1);
  edges.add_edge(3, 4, 1);
  edges.add_edge(3, 6, 3);
  edges.add_edge(4, 6, 7);
  edges.add_edge(4, 7, 1);
  edges.add_edge(5, 6, 6);
  edges.add_edge(6, 7, 4);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

// The paper's Fig. 4(a) example: 5 vertices with degrees 2, 4, 2, 3, 3
// (7 undirected edges), so degree-descending reordering maps original ids
// 0..4 to reordered ids 3, 0, 4, 1, 2 exactly as the figure shows.
inline Csr paper_figure4_graph() {
  EdgeList edges;
  edges.num_vertices = 5;
  edges.add_edge(1, 0, 2);
  edges.add_edge(1, 2, 4);
  edges.add_edge(1, 3, 1);
  edges.add_edge(1, 4, 9);
  edges.add_edge(3, 4, 2);
  edges.add_edge(3, 0, 15);
  edges.add_edge(4, 2, 5);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

// Directed graphs with zero-weight cycles, where "some in-edge attains
// dist[v]" holds for wrong distances and for cyclic parent choices.
// 0 -> 1 (10), 1 <-> 2 (0): the cycle attains any common value of 1 and 2.
inline Csr zero_cycle_graph() {
  EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 10);
  edges.add_edge(1, 2, 0);
  edges.add_edge(2, 1, 0);
  return graph::build_csr(edges);
}

// 0 -> 1 (1), 2 <-> 3 (0): the zero-weight pair is unreachable from 0.
inline Csr unreachable_zero_pair_graph() {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.add_edge(0, 1, 1);
  edges.add_edge(2, 3, 0);
  edges.add_edge(3, 2, 0);
  return graph::build_csr(edges);
}

// 0 -> 3 (5), 3 -> 1 (5), 3 -> 2 (5), 1 <-> 2 (0): 1 and 2 tie at 10 and
// each attains the other's distance.
inline Csr zero_cycle_tie_graph() {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.add_edge(0, 3, 5);
  edges.add_edge(3, 1, 5);
  edges.add_edge(3, 2, 5);
  edges.add_edge(1, 2, 0);
  edges.add_edge(2, 1, 0);
  return graph::build_csr(edges);
}

// A weighted random power-law graph (deterministic in seed).
inline Csr random_powerlaw_graph(VertexId n, std::uint64_t num_edges,
                                 std::uint64_t seed,
                                 graph::WeightScheme scheme =
                                     graph::WeightScheme::kUniformInt1To1000) {
  graph::ChungLuParams params;
  params.num_vertices = n;
  params.num_edges = num_edges;
  params.seed = seed;
  EdgeList edges = graph::generate_chung_lu(params);
  graph::assign_weights(edges, scheme, seed);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

// A thinned grid (road-like) graph.
inline Csr random_grid_graph(VertexId side, std::uint64_t seed) {
  graph::GridParams params;
  params.width = side;
  params.height = side;
  params.keep_probability = 0.85;
  params.seed = seed;
  EdgeList edges = graph::generate_grid(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, seed);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

// The full gpusim::Counters, one "name value" line each, for goldens.
inline std::string counters_text(const gpusim::Counters& c) {
  std::ostringstream out;
  out << "inst_executed_global_loads " << c.inst_executed_global_loads << '\n'
      << "inst_executed_global_stores " << c.inst_executed_global_stores
      << '\n'
      << "inst_executed_atomics " << c.inst_executed_atomics << '\n'
      << "l1_sector_accesses " << c.l1_sector_accesses << '\n'
      << "l1_sector_hits " << c.l1_sector_hits << '\n'
      << "l2_sector_accesses " << c.l2_sector_accesses << '\n'
      << "l2_sector_hits " << c.l2_sector_hits << '\n'
      << "alu_instructions " << c.alu_instructions << '\n'
      << "memory_transactions " << c.memory_transactions << '\n'
      << "dram_bytes " << c.dram_bytes << '\n'
      << "atomic_conflicts " << c.atomic_conflicts << '\n'
      << "kernel_launches " << c.kernel_launches << '\n'
      << "child_launches " << c.child_launches << '\n'
      << "active_lane_ops " << c.active_lane_ops << '\n'
      << "issued_lane_ops " << c.issued_lane_ops << '\n'
      << "volatile_accesses " << c.volatile_accesses << '\n'
      << "faults_injected " << c.faults_injected << '\n'
      << "ecc_corrected " << c.ecc_corrected << '\n';
  return out.str();
}

// Compares `actual` with the golden file at `path` byte for byte. With
// RDBS_UPDATE_GOLDEN set it rewrites the file instead and marks the test
// skipped; commit the regenerated file with an explanation.
inline void expect_matches_golden(const std::string& path,
                                  const std::string& actual) {
  if (std::getenv("RDBS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with RDBS_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "output drifted from " << path
      << " — if the change is intentional, regenerate with "
         "RDBS_UPDATE_GOLDEN=1 and commit the diff";
}

}  // namespace rdbs::test

namespace rdbs::core {

// gtest prints a registry entry by its name. A suite instantiated over
// gpu_engines() with ::testing::PrintToStringParamName() then gets ctest
// names like ".../rdbs  # GetParam() = rdbs", identical in every build.
inline void PrintTo(const GpuEngineEntry& entry, std::ostream* os) {
  *os << entry.name;
}

}  // namespace rdbs::core
