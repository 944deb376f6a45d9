// Extension: roofline-style device sweep — which hardware resource bounds
// RDBS? Starting from the V100 descriptor, each sweep varies ONE parameter
// (SM count, memory bandwidth, kernel-launch overhead, L2 capacity) and
// reruns the same workload. Flat curve = not the bottleneck at this scale;
// steep curve = the binding resource. Complements Fig. 12's two-point
// platform comparison with a full sensitivity picture.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"graph"});
  bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  if (!args.has("size-scale")) config.size_scale = 2;
  const std::string graph_name = args.get_string("graph", "soc-PK");

  const graph::Csr csr = bench::load_bench_graph(graph_name, config);
  const auto sources =
      bench::pick_sources(csr, config.num_sources, config.seed);
  const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);

  std::printf("== Extension: device-parameter sensitivity of RDBS ==\n");
  std::printf("graph=%s (%u vertices, %llu directed edges), sources=%zu\n\n",
              graph_name.c_str(), csr.num_vertices(),
              static_cast<unsigned long long>(csr.num_edges()),
              sources.size());

  core::GpuSsspOptions options;
  options.delta0 = delta0;

  auto run_with = [&](const gpusim::DeviceSpec& spec) {
    return bench::run_gpu_delta_stepping(csr, spec, options, sources)
        .mean_ms;
  };

  std::vector<bench::GBenchRow> gbench_rows;
  const double baseline_ms = run_with(gpusim::v100());
  std::printf("baseline V100: %.3f ms\n\n", baseline_ms);

  struct Sweep {
    const char* parameter;
    std::vector<double> multipliers;
    void (*apply)(gpusim::DeviceSpec&, double);
  };
  const Sweep sweeps[] = {
      {"num_sms",
       {0.25, 0.5, 1.0, 2.0},
       [](gpusim::DeviceSpec& spec, double m) {
         spec.num_sms = std::max(1, static_cast<int>(spec.num_sms * m));
       }},
      {"mem_bandwidth_gbps",
       {0.25, 0.5, 1.0, 2.0},
       [](gpusim::DeviceSpec& spec, double m) {
         spec.mem_bandwidth_gbps *= m;
       }},
      {"kernel_launch_us",
       {0.25, 0.5, 1.0, 2.0, 4.0},
       [](gpusim::DeviceSpec& spec, double m) { spec.kernel_launch_us *= m; }},
      {"l2_kb",
       {0.25, 0.5, 1.0, 2.0},
       [](gpusim::DeviceSpec& spec, double m) {
         spec.l2_kb = std::max(64, static_cast<int>(spec.l2_kb * m));
       }},
  };

  TextTable table({"parameter", "x0.25", "x0.5", "x1", "x2", "x4"});
  for (const Sweep& sweep : sweeps) {
    std::vector<std::string> row{sweep.parameter};
    std::size_t cell = 0;
    for (const double multiplier : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      ++cell;
      const bool in_sweep =
          std::find(sweep.multipliers.begin(), sweep.multipliers.end(),
                    multiplier) != sweep.multipliers.end();
      if (!in_sweep) {
        row.push_back("-");
        continue;
      }
      gpusim::DeviceSpec spec = gpusim::v100();
      sweep.apply(spec, multiplier);
      const double ms = run_with(spec);
      row.push_back(format_fixed(ms / baseline_ms, 2) + "x");
      gbench_rows.push_back({"device_sweep/" + std::string(sweep.parameter) +
                                 "/x" + format_fixed(multiplier, 2),
                             ms, 0});
    }
    table.add_row(std::move(row));
  }
  std::printf("relative runtime (1.00x = V100 baseline; rows: one parameter "
              "varied at a time)\n");
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}
