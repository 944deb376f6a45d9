// Extension: the lineage of GPU SSSP the paper's introduction walks
// through — Harish-Narayanan 2007 (topology-driven sync), Davidson 2014
// (Workfront Sweep + Near-Far), ADDS 2021 (async near-far) and RDBS 2023 —
// all on the same simulated device and inputs. Not a figure in the paper,
// but the quantitative version of its §1 narrative.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"
#include "core/legacy_gpu.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  std::printf("== Extension: 2007 -> 2014 -> 2021 -> 2023, same device ==\n");
  std::printf("device=%s size-scale=%d sources=%d\n\n", device.name.c_str(),
              config.size_scale, config.num_sources);

  TextTable table({"graph", "HN07 ms", "Davidson14 ms", "ADDS21 ms",
                   "RDBS ms", "HN07/RDBS", "redundancy HN07",
                   "redundancy RDBS"});
  std::vector<bench::GBenchRow> gbench_rows;

  for (const std::string& name : bench::six_graph_suite()) {
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);

    bench::Measurement m_hn, m_dv, m_adds, m_rdbs;
    {
      core::HarishNarayanan hn(device, csr);
      for (const auto s : sources) {
        const auto r = hn.run(s);
        m_hn.mean_ms += r.device_ms;
        m_hn.total_updates += double(r.sssp.work.total_updates);
        m_hn.valid_updates += double(r.sssp.work.valid_updates);
      }
    }
    {
      core::DavidsonOptions options;
      options.delta = delta0;
      core::DavidsonNearFar davidson(device, csr, options);
      for (const auto s : sources) m_dv.mean_ms += davidson.run(s).device_ms;
    }
    {
      core::AddsOptions options;
      options.delta = delta0;
      m_adds = bench::run_adds(csr, device, options, sources);
    }
    {
      core::GpuSsspOptions options;
      options.delta0 = delta0;
      m_rdbs = bench::run_gpu_delta_stepping(csr, device, options, sources);
    }
    const auto runs = static_cast<double>(sources.size());
    m_hn.mean_ms /= runs;
    m_hn.total_updates /= runs;
    m_hn.valid_updates /= runs;
    m_dv.mean_ms /= runs;

    table.add_row({name, format_fixed(m_hn.mean_ms, 3),
                   format_fixed(m_dv.mean_ms, 3),
                   format_fixed(m_adds.mean_ms, 3),
                   format_fixed(m_rdbs.mean_ms, 3),
                   format_speedup(m_hn.mean_ms / m_rdbs.mean_ms),
                   format_fixed(m_hn.redundancy_ratio(), 2),
                   format_fixed(m_rdbs.redundancy_ratio(), 2)});
    gbench_rows.push_back({"lineage/HN07/" + name, m_hn.mean_ms, 0});
    gbench_rows.push_back({"lineage/Davidson14/" + name, m_dv.mean_ms, 0});
    gbench_rows.push_back({"lineage/ADDS21/" + name, m_adds.mean_ms, 0});
    gbench_rows.push_back({"lineage/RDBS/" + name, m_rdbs.mean_ms, 0});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}
