#include "graph/surrogates.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string_view>

#include "common/macros.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace rdbs::graph {

namespace {

using Family = DatasetSpec::Family;

// Default surrogate vertex budget at size_scale = 0. Chosen so the full
// ten-dataset sweep finishes in seconds on one CPU core while keeping each
// graph large enough that bucket occupancy and load-imbalance phenomena
// are visible (thousands of active vertices per bucket).
constexpr VertexId kBaseVertices = 1 << 14;  // 16,384

std::vector<DatasetSpec> make_registry() {
  // Published statistics from Table 1 of the paper.
  return {
      {"road-TX", "roadNet-TX", 1379917, 1921660, 1.39, 1054, Family::kGrid},
      {"Amazon", "amazon0601", 403394, 3387388, 8.39, 21, Family::kPowerLaw},
      {"web-GL", "web-Google", 875713, 5105039, 5.82, 21, Family::kPowerLaw},
      {"com-LJ", "com-LiveJournal", 3997962, 34681189, 8.67, 17,
       Family::kPowerLaw},
      {"soc-PK", "soc-Pokec", 1632803, 30622564, 18.75, 11,
       Family::kPowerLaw},
      {"com-OK", "com-Orkut", 3072441, 117185083, 38.14, 9,
       Family::kPowerLaw},
      {"as-Skt", "as-Skitter", 1696415, 11095298, 6.54, 25,
       Family::kPowerLaw},
      {"soc-LJ", "soc-LiveJournal1", 4847571, 68993773, 14.23, 16,
       Family::kPowerLaw},
      {"wiki-TK", "wiki-Talk", 2394385, 5021410, 2.10, 9,
       Family::kStarHeavy},
      {"soc-TW", "soc-twitter-2010", 21297772, 265025545, 12.44, 18,
       Family::kPowerLaw},
  };
}

// Relative size ordering of the originals is preserved: datasets whose
// originals are bigger get a larger surrogate.
VertexId surrogate_vertices(const DatasetSpec& spec, int size_scale) {
  double rel = static_cast<double>(spec.paper_vertices) / 1379917.0;  // road-TX
  rel = std::clamp(rel, 0.25, 8.0);
  double v = static_cast<double>(kBaseVertices) * rel *
             std::pow(2.0, size_scale);
  return static_cast<VertexId>(std::max(1024.0, v));
}

// Power-law skew exponent per dataset: heavier tails for the graphs the
// paper identifies as most irregular (synthetic-like social graphs), milder
// for co-purchase/web graphs.
double gamma_for(const std::string& name) {
  if (name == "Amazon") return 2.9;   // near-uniform co-purchase graph
  if (name == "web-GL") return 2.4;
  if (name == "as-Skt") return 2.2;   // internet topology, strong hubs
  if (name == "soc-TW") return 2.1;   // heaviest tail
  return 2.3;                          // LiveJournal/Pokec/Orkut-like
}

EdgeList generate_surrogate(const DatasetSpec& spec, VertexId n,
                            std::uint64_t seed) {
  switch (spec.family) {
    case Family::kGrid: {
      // Square-ish grid thinned so edges/vertices matches the original's
      // average degree (grid has ~2 candidate edges per vertex).
      const auto side = static_cast<VertexId>(std::sqrt(double(n)));
      GridParams params;
      params.width = side;
      params.height = side;
      params.keep_probability = std::min(1.0, spec.paper_avg_degree / 2.0);
      params.seed = seed;
      return generate_grid(params);
    }
    case Family::kStarHeavy: {
      StarHeavyParams params;
      params.num_vertices = n;
      params.num_hubs = std::max<VertexId>(8, n / 4096);
      params.hub_edge_fraction = 0.7;
      params.num_edges =
          static_cast<EdgeIndex>(spec.paper_avg_degree * double(n));
      params.seed = seed;
      return generate_star_heavy(params);
    }
    case Family::kKronecker: {
      KroneckerParams params;
      params.scale = static_cast<int>(std::lround(std::log2(double(n))));
      params.edgefactor =
          std::max(1, static_cast<int>(std::lround(spec.paper_avg_degree)));
      params.seed = seed;
      return generate_kronecker(params);
    }
    case Family::kPowerLaw:
    default: {
      ChungLuParams params;
      params.num_vertices = n;
      params.num_edges =
          static_cast<EdgeIndex>(spec.paper_avg_degree * double(n));
      params.gamma = gamma_for(spec.name);
      params.seed = seed;
      return generate_chung_lu(params);
    }
  }
}

std::optional<Csr> try_load_real(const DatasetSpec& spec,
                                 const LoadOptions& options) {
  if (options.data_dir.empty()) return std::nullopt;
  namespace fs = std::filesystem;
  for (const auto& stem : {spec.name, spec.full_name}) {
    const fs::path txt = fs::path(options.data_dir) / (stem + ".txt");
    if (fs::exists(txt)) {
      EdgeList edges = read_edge_list(txt.string());
      assign_weights(edges, options.weights, options.seed);
      BuildOptions build;
      build.symmetrize = true;
      return build_csr(edges, build);
    }
  }
  return std::nullopt;
}

// A whole unsigned decimal token ("16"; not "", "16x", "+16" or "abc").
std::optional<std::uint32_t> parse_decimal(std::string_view token) {
  std::uint32_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace

const std::vector<DatasetSpec>& real_world_datasets() {
  static const std::vector<DatasetSpec> registry = make_registry();
  return registry;
}

std::optional<DatasetSpec> find_dataset(const std::string& name) {
  for (const auto& spec : real_world_datasets()) {
    if (spec.name == name || spec.full_name == name) return spec;
  }
  // Kronecker names: k-n<scale>-<edgefactor>, e.g. "k-n21-16". Both fields
  // are whole decimal tokens, the scale 1-31 and the edgefactor at least 1;
  // any other name is not a dataset.
  if (name.rfind("k-n", 0) != 0) return std::nullopt;
  const std::string_view fields = std::string_view(name).substr(3);
  const auto dash = fields.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  const std::optional<std::uint32_t> scale =
      parse_decimal(fields.substr(0, dash));
  const std::optional<std::uint32_t> edgefactor =
      parse_decimal(fields.substr(dash + 1));
  if (!scale || *scale < 1 || *scale > 31 || !edgefactor || *edgefactor < 1) {
    return std::nullopt;
  }
  DatasetSpec spec;
  spec.name = name;
  spec.full_name = "Graph500 Kronecker";
  spec.family = Family::kKronecker;
  spec.paper_vertices = std::uint64_t(1) << *scale;
  spec.paper_edges = spec.paper_vertices * *edgefactor;
  spec.paper_avg_degree = *edgefactor;
  return spec;
}

Csr load_dataset(const DatasetSpec& spec, const LoadOptions& options) {
  if (auto real = try_load_real(spec, options)) return std::move(*real);

  const VertexId n = surrogate_vertices(spec, options.size_scale);
  EdgeList edges = generate_surrogate(spec, n, options.seed);
  assign_weights(edges, options.weights, options.seed);
  BuildOptions build;
  build.symmetrize = true;
  return build_csr(edges, build);
}

Csr load_dataset_by_name(const std::string& name,
                         const LoadOptions& options) {
  const auto spec = find_dataset(name);
  if (!spec) throw std::runtime_error("unknown dataset: " + name);
  return load_dataset(*spec, options);
}

}  // namespace rdbs::graph
