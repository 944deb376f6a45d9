#include "bench_support/experiment.hpp"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "graph/stats.hpp"
#include "sssp/pq_delta_star.hpp"

namespace rdbs::bench {

namespace {

// The flags HarnessConfig::from_cli reads.
constexpr std::string_view kHarnessFlags[] = {
    "size-scale", "sources", "seed", "data-dir", "device", "csv"};

}  // namespace

void check_flags(const CliArgs& args,
                 std::initializer_list<std::string_view> own_flags) {
  std::vector<std::string_view> accepted(std::begin(kHarnessFlags),
                                         std::end(kHarnessFlags));
  accepted.insert(accepted.end(), own_flags.begin(), own_flags.end());
  const std::string program =
      args.program().substr(args.program().find_last_of('/') + 1);
  if (args.has("help")) {
    std::printf("usage: %s [--flag=value ...]\nflags:", program.c_str());
    for (const std::string_view flag : accepted) {
      std::printf(" --%.*s", static_cast<int>(flag.size()), flag.data());
    }
    std::printf("\n");
    std::exit(0);
  }
  const std::vector<std::string> unknown = args.unknown_flags(accepted);
  if (!unknown.empty()) {
    std::fprintf(stderr, "%s: unknown flag --%s (--help lists the flags)\n",
                 program.c_str(), unknown.front().c_str());
    std::exit(2);
  }
}

HarnessConfig HarnessConfig::from_cli(const CliArgs& args) {
  HarnessConfig config;
  config.size_scale = static_cast<int>(args.get_int("size-scale", 0));
  config.num_sources = static_cast<int>(args.get_int("sources", 4));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.data_dir = args.get_string("data-dir", "");
  config.device = args.get_string("device", "v100");
  config.csv = args.get_bool("csv", false);
  return config;
}

gpusim::DeviceSpec device_by_name(const std::string& name) {
  if (name == "v100" || name == "V100") return gpusim::v100();
  if (name == "t4" || name == "T4") return gpusim::tesla_t4();
  if (name == "test") return gpusim::test_device();
  throw std::runtime_error("unknown device: " + name);
}

Csr load_bench_graph(const std::string& name, const HarnessConfig& config) {
  graph::LoadOptions options;
  options.size_scale = config.size_scale;
  options.weights = graph::WeightScheme::kUniformInt1To1000;
  options.seed = config.seed;
  options.data_dir = config.data_dir;
  return graph::load_dataset_by_name(name, options);
}

std::vector<VertexId> pick_sources(const Csr& csr, int count,
                                   std::uint64_t seed) {
  // Restrict to the largest component so every run does real work (a
  // source in a 2-vertex island would measure launch overhead only).
  const graph::ComponentInfo info = graph::connected_components(csr);
  std::vector<char> in_largest(csr.num_vertices(), 0);
  {
    std::vector<VertexId> stack{info.representative};
    in_largest[info.representative] = 1;
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (const VertexId v : csr.neighbors(u)) {
        if (!in_largest[v]) {
          in_largest[v] = 1;
          stack.push_back(v);
        }
      }
    }
  }
  Xoshiro256 rng(seed);
  std::vector<VertexId> sources;
  sources.reserve(static_cast<std::size_t>(count));
  int attempts = 0;
  while (sources.size() < static_cast<std::size_t>(count) &&
         attempts < count * 1000) {
    const auto v =
        static_cast<VertexId>(rng.next_below(csr.num_vertices()));
    ++attempts;
    if (in_largest[v]) sources.push_back(v);
  }
  if (sources.empty()) sources.push_back(info.representative);
  return sources;
}

namespace {

void accumulate(Measurement& m, double ms, const sssp::SsspResult& sssp,
                const gpusim::Counters& counters, std::uint64_t edges) {
  m.mean_ms += ms;
  m.mean_gteps += ms <= 0 ? 0 : static_cast<double>(edges) / (ms * 1e6);
  m.total_updates += static_cast<double>(sssp.work.total_updates);
  m.valid_updates += static_cast<double>(sssp.work.valid_updates);
  m.counters += counters;
}

void finalize(Measurement& m, int runs) {
  if (runs == 0) return;
  m.mean_ms /= runs;
  m.mean_gteps /= runs;
  m.total_updates /= runs;
  m.valid_updates /= runs;
  // Counters stay as sums; divide the headline ones for per-run means.
  m.counters.inst_executed_global_loads /= static_cast<std::uint64_t>(runs);
  m.counters.inst_executed_global_stores /= static_cast<std::uint64_t>(runs);
  m.counters.inst_executed_atomics /= static_cast<std::uint64_t>(runs);
  m.counters.l1_sector_accesses /= static_cast<std::uint64_t>(runs);
  m.counters.l1_sector_hits /= static_cast<std::uint64_t>(runs);
  m.counters.kernel_launches /= static_cast<std::uint64_t>(runs);
  m.counters.child_launches /= static_cast<std::uint64_t>(runs);
}

}  // namespace

Measurement run_gpu_delta_stepping(const Csr& csr,
                                   const gpusim::DeviceSpec& device,
                                   const GpuSsspOptions& options,
                                   const std::vector<VertexId>& sources) {
  Measurement m;
  core::RdbsSolver solver(csr, device, options);
  for (const VertexId source : sources) {
    const GpuRunResult result = solver.solve(source);
    accumulate(m, result.device_ms, result.sssp, result.counters,
               csr.num_edges());
  }
  finalize(m, static_cast<int>(sources.size()));
  return m;
}

Measurement run_adds(const Csr& csr, const gpusim::DeviceSpec& device,
                     const core::AddsOptions& options,
                     const std::vector<VertexId>& sources) {
  Measurement m;
  core::AddsLike adds(device, csr, options);
  for (const VertexId source : sources) {
    const GpuRunResult result = adds.run(source);
    accumulate(m, result.device_ms, result.sssp, result.counters,
               csr.num_edges());
  }
  finalize(m, static_cast<int>(sources.size()));
  return m;
}

Measurement run_pq_delta_star(const Csr& csr,
                              const std::vector<VertexId>& sources,
                              graph::Weight delta_star) {
  Measurement m;
  sssp::PqDeltaStarOptions options;
  options.delta_star = delta_star;
  for (const VertexId source : sources) {
    Timer timer;
    const sssp::SsspResult result = sssp::pq_delta_star(csr, source, options);
    accumulate(m, timer.milliseconds(), result, gpusim::Counters{},
               csr.num_edges());
  }
  finalize(m, static_cast<int>(sources.size()));
  return m;
}

graph::Weight empirical_delta0(const Csr& csr, std::uint64_t seed) {
  // Mean edge weight from a deterministic sample.
  double mean_weight = 0;
  const std::uint64_t m = csr.num_edges();
  if (m == 0) return kDefaultDelta0;
  const std::uint64_t samples = std::min<std::uint64_t>(m, 4096);
  Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < samples; ++i) {
    mean_weight += csr.weights()[rng.next_below(m)];
  }
  mean_weight /= static_cast<double>(samples);

  const double hop_diameter =
      std::max<std::uint32_t>(1, graph::approximate_diameter(csr, 1, seed));
  // Expected distance span ~ hop_diameter x mean_weight / 2 (shortest paths
  // prefer light edges). Each bucket costs a full-vertex scan (Algorithm 2
  // phase 2&3), so fewer, fuller buckets win until redundant work takes
  // over; high-diameter graphs need proportionally more buckets to bound
  // per-bucket relaxation work (the classic Δ-stepping tradeoff, and the
  // reason road networks are the method's weak case).
  const double bucket_budget =
      std::clamp(hop_diameter / 4.0, 16.0, 96.0);
  const double delta = hop_diameter * mean_weight / 2.0 / bucket_budget;
  return std::max<graph::Weight>(mean_weight / 2.0, delta);
}

const std::vector<std::string>& six_graph_suite() {
  static const std::vector<std::string> suite{
      "road-TX", "Amazon", "web-GL", "com-LJ", "soc-PK", "k-n21-16"};
  return suite;
}

const std::vector<std::string>& ten_graph_suite() {
  static const std::vector<std::string> suite{
      "k-n21-16", "web-GL", "soc-PK", "com-LJ", "soc-TW",
      "as-Skt",   "soc-LJ", "wiki-TK", "com-OK", "road-TX"};
  return suite;
}

const std::vector<PaperTable2Row>& paper_table2() {
  static const std::vector<PaperTable2Row> rows{
      {"road-TX", 39.68, 8.10, 8.86}, {"Amazon", 19.62, 4.14, 2.00},
      {"web-GL", 27.98, 9.34, 4.98},  {"com-LJ", 167.76, 25.84, 11.09},
      {"soc-PK", 99.25, 13.34, 5.72}, {"k-n21-16", 42.60, 93.95, 4.47}};
  return rows;
}

const std::vector<PaperFig8Row>& paper_fig8() {
  static const std::vector<PaperFig8Row> rows{
      {"road-TX", 1.36, 1.47, 1.38},  {"Amazon", 4.59, 6.47, 10.51},
      {"web-GL", 5.03, 10.36, 9.27},  {"com-LJ", 5.88, 13.02, 17.55},
      {"soc-PK", 9.97, 21.03, 25.45}, {"k-n21-16", 4.10, 45.88, 53.44}};
  return rows;
}

const std::vector<PaperFig9Row>& paper_fig9() {
  static const std::vector<PaperFig9Row> rows{
      {"k-n21-16", 1.06, 2.18, 21.02}, {"web-GL", 1.49, 1.48, 1.87},
      {"soc-PK", 1.67, 1.65, 2.33},    {"com-LJ", 1.67, 1.46, 2.33},
      {"soc-TW", 1.69, 1.46, 1.96},    {"as-Skt", 1.73, 1.55, 3.33},
      {"soc-LJ", 1.80, 1.37, 2.39},    {"wiki-TK", 1.85, 1.33, 2.12},
      {"com-OK", 2.39, 1.75, 6.22},    {"road-TX", 6.83, 0.0, 0.91}};
  return rows;
}

const std::vector<PaperFig11Row>& paper_fig11() {
  static const std::vector<PaperFig11Row> rows{
      {22, 8, 8.81, 13.53},  {22, 16, 16.78, 22.93}, {22, 32, 21.26, 27.97},
      {22, 64, 35.35, 45.35}, {23, 8, 9.32, 14.82},  {23, 16, 20.60, 31.62},
      {23, 32, 23.65, 34.86}, {23, 64, 38.98, 58.21}, {24, 8, 11.28, 18.45},
      {24, 16, 20.16, 33.09}, {24, 32, 26.23, 40.87}, {24, 64, 40.09, 68.65}};
  return rows;
}

const std::vector<PaperFig12Row>& paper_fig12() {
  static const std::vector<PaperFig12Row> rows{
      {"Amazon", 2.14}, {"road-TX", 1.47}, {"web-GL", 2.30},
      {"com-LJ", 2.35}, {"soc-PK", 2.58},  {"k-n21-16", 1.51}};
  return rows;
}

}  // namespace rdbs::bench
