// Batched multi-source throughput: a t=0 batch served over concurrent
// gpusim streams vs. the same queries run sequentially.
//
// The sequential baseline is the classic single-query path — one
// RdbsSolver, sources solved back-to-back — so its aggregate MWIPS is
// total warp instructions over summed device time. Each batch row serves
// the same sources as a t=0 schedule (core::batch_schedule) through a
// QueryServer with 1/2/4/8 stream lanes and reports aggregate MWIPS over
// the batch makespan; the ratio column is batch/sequential throughput.
// Every row also bit-compares its distances against the baseline: streams
// repartition simulated time, never functional state, so "identical" must
// read yes everywhere.
//
// Datasets: the Kronecker surrogate k-n21-16 (the paper's scale-free
// case, where overlap pays) and road-TX (high diameter, many small
// kernels — launch-bound, the stress case for the admission model).
// Results go to stdout and BENCH_batch.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"
#include "core/query_server.hpp"
#include "core/rdbs.hpp"
#include "core/traffic.hpp"

using namespace rdbs;

namespace {

struct SequentialBaseline {
  double total_ms = 0;  // summed per-query device time
  std::uint64_t instructions = 0;
  std::vector<std::vector<graph::Weight>> distances;
  double mwips() const {
    return total_ms <= 0
               ? 0
               : static_cast<double>(instructions) / (total_ms * 1e3);
  }
};

SequentialBaseline run_sequential(const graph::Csr& csr,
                                  const gpusim::DeviceSpec& device,
                                  const core::GpuSsspOptions& options,
                                  const std::vector<graph::VertexId>& sources) {
  SequentialBaseline base;
  core::RdbsSolver solver(csr, device, options);
  for (const auto source : sources) {
    core::GpuRunResult result = solver.solve(source);
    base.total_ms += result.device_ms;
    base.instructions += result.counters.warp_instructions();
    base.distances.push_back(std::move(result.sssp.distances));
  }
  return base;
}

struct Row {
  std::string dataset;
  int streams = 0;
  double makespan_ms = 0;
  double sum_latency_ms = 0;  // what the queries would cost back-to-back
  double queue_wait_ms = 0;   // total cap-induced waiting
  std::uint64_t warp_instructions = 0;
  bool identical = false;
  double sequential_mwips = 0;
  double aggregate_mwips() const {
    return makespan_ms <= 0 ? 0
                            : static_cast<double>(warp_instructions) /
                                  (makespan_ms * 1e3);
  }
  double ratio() const {
    return sequential_mwips <= 0 ? 0 : aggregate_mwips() / sequential_mwips;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"json"});
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);
  const int batch_sources =
      static_cast<int>(args.get_int("sources", 8));  // paper-style 8-query batch
  const std::string json_path = args.get_string("json", "BENCH_batch.json");

  std::printf("== batched multi-source throughput: %d sources, "
              "streams in {1,2,4,8} ==\n\n",
              batch_sources);

  std::vector<Row> rows;
  for (const char* name : {"k-n21-16", "road-TX"}) {
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, batch_sources, config.seed);
    core::GpuSsspOptions gpu;
    gpu.delta0 = bench::empirical_delta0(csr, config.seed);
    gpu.sim_threads = config.sim_threads;

    const SequentialBaseline base =
        run_sequential(csr, device, gpu, sources);

    for (const int streams : {1, 2, 4, 8}) {
      core::QueryServerOptions sopts;
      sopts.batch.streams = streams;
      sopts.batch.gpu = gpu;
      sopts.max_pending = sources.size();  // admit the whole batch
      core::QueryServer server(csr, device, sopts);
      const core::StreamResult result =
          server.run_stream(core::batch_schedule(sources));
      Row row;
      row.dataset = name;
      row.streams = streams;
      row.makespan_ms = result.device_makespan_ms;
      row.sequential_mwips = base.mwips();
      row.identical = true;
      for (std::size_t i = 0; i < result.queries.size(); ++i) {
        row.sum_latency_ms += result.stats[i].query.device_ms;
        row.queue_wait_ms += result.stats[i].query.queue_wait_ms;
        row.warp_instructions +=
            result.queries[i].counters.warp_instructions();
        row.identical = row.identical &&
                        result.queries[i].sssp.distances == base.distances[i];
      }
      rows.push_back(std::move(row));
    }
  }

  TextTable table({"dataset", "streams", "makespan ms", "back-to-back ms",
                   "queue-wait ms", "agg MWIPS", "seq MWIPS", "ratio",
                   "identical"});
  bool all_identical = true;
  for (const Row& row : rows) {
    all_identical = all_identical && row.identical;
    table.add_row({row.dataset, format_count(static_cast<std::uint64_t>(
                                    row.streams)),
                   format_fixed(row.makespan_ms, 3),
                   format_fixed(row.sum_latency_ms, 3),
                   format_fixed(row.queue_wait_ms, 3),
                   format_fixed(row.aggregate_mwips(), 1),
                   format_fixed(row.sequential_mwips, 1),
                   format_speedup(row.ratio()),
                   row.identical ? "yes" : "NO"});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"device\": \"%s\",\n", device.name.c_str());
  std::fprintf(json, "  \"sources\": %d,\n", batch_sources);
  std::fprintf(json, "  \"all_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(json, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        json,
        "    {\"dataset\": \"%s\", \"streams\": %d, "
        "\"makespan_ms\": %.4f, \"sum_latency_ms\": %.4f, "
        "\"queue_wait_ms\": %.4f, \"warp_instructions\": %llu, "
        "\"aggregate_mwips\": %.2f, \"sequential_mwips\": %.2f, "
        "\"mwips_ratio\": %.3f, \"distances_identical\": %s}%s\n",
        row.dataset.c_str(), row.streams, row.makespan_ms,
        row.sum_latency_ms, row.queue_wait_ms,
        static_cast<unsigned long long>(row.warp_instructions),
        row.aggregate_mwips(), row.sequential_mwips, row.ratio(),
        row.identical ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());
  return all_identical ? 0 : 1;
}
