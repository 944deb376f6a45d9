// Surrogate datasets for the paper's Table 1 graphs.
//
// We cannot ship the SNAP / Network Repository originals, so each dataset
// name maps to a generator preset that reproduces the structural drivers of
// the original: degree-distribution family (uniform grid vs. power-law vs.
// hub-dominated), average degree, and diameter class. Sizes default to a
// CI-friendly scale and grow by powers of two via `size_scale` (size_scale=0
// is the default; each +1 doubles the vertex count).
//
// If the caller passes a directory containing real downloads (files named
// `<name>.txt` edge lists), load_dataset uses those instead — so the bench
// harness runs on the genuine graphs when available.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/weights.hpp"

namespace rdbs::graph {

struct DatasetSpec {
  std::string name;        // short name used in the paper ("road-TX", ...)
  std::string full_name;   // original dataset ("roadNet-TX", ...)
  // Published statistics of the original (Table 1), for reporting.
  std::uint64_t paper_vertices = 0;
  std::uint64_t paper_edges = 0;
  double paper_avg_degree = 0.0;
  std::uint32_t paper_diameter = 0;
  // Structural family used for the surrogate.
  enum class Family { kGrid, kPowerLaw, kStarHeavy, kKronecker } family =
      Family::kPowerLaw;
};

// All ten real-world datasets from Table 1, in the paper's order.
const std::vector<DatasetSpec>& real_world_datasets();

// Looks up a spec by short name ("road-TX") or Kronecker name ("k-n21-16",
// parsed as SCALE=21 edgefactor=16 and scaled down by the same factor the
// real-world surrogates use). A Kronecker name's fields must be whole
// decimal tokens, with a SCALE of 1-31 and an edgefactor of at least 1 that
// fits 32 bits; any other name is unknown (nullopt).
std::optional<DatasetSpec> find_dataset(const std::string& name);

struct LoadOptions {
  int size_scale = 0;                 // each +1 doubles surrogate vertices
  WeightScheme weights = WeightScheme::kUniformInt1To1000;
  std::uint64_t seed = 42;
  std::string data_dir;               // optional dir with real edge lists
};

// Builds (or loads) the undirected weighted CSR for a dataset.
Csr load_dataset(const DatasetSpec& spec, const LoadOptions& options = {});

// Convenience: find + load by name; throws if the name is unknown.
Csr load_dataset_by_name(const std::string& name,
                         const LoadOptions& options = {});

}  // namespace rdbs::graph
