// Extension: SSSP inside general graph-processing frameworks vs. the
// dedicated RDBS implementation — the paper's §1 claim "compared with works
// dedicated to optimizing the SSSP algorithm, the performance of SSSP in
// graph processing systems is sub-optimal", quantified on one substrate.
//
//   Ligra-like   — edgeMap with direction switching (one CPU thread, ref [31])
//   Gunrock-like — advance/filter operator pipeline (simulated GPU, ref [35])
//   SEP-like     — sync/async x push/pull switching (simulated GPU, ref [33])
//   RDBS         — the paper's dedicated engine (simulated GPU)
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/gunrock_like.hpp"
#include "core/sep_hybrid.hpp"
#include "sssp/ligra_like.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  std::printf("== Extension: framework SSSP vs dedicated RDBS ==\n");
  std::printf("device=%s size-scale=%d sources=%d (Ligra column is host "
              "wall-clock; the GPU columns share one cost model)\n\n",
              device.name.c_str(), config.size_scale, config.num_sources);

  TextTable table({"graph", "Ligra-like ms", "Gunrock-like ms", "SEP ms",
                   "RDBS ms", "Gunrock/RDBS", "SEP/RDBS",
                   "Gunrock launches", "RDBS launches"});

  for (const std::string& name : bench::six_graph_suite()) {
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
    const auto runs = static_cast<double>(sources.size());

    double ligra_ms = 0;
    for (const auto s : sources) {
      Timer timer;
      (void)sssp::ligra::sssp_bellman_ford(csr, s);
      ligra_ms += timer.milliseconds();
    }
    ligra_ms /= runs;

    double gunrock_ms = 0;
    std::uint64_t gunrock_launches = 0;
    {
      core::GunrockSsspOptions options;
      options.delta = delta0;
      core::GunrockLike gunrock(device, csr, options);
      for (const auto s : sources) {
        const auto result = gunrock.run(s);
        gunrock_ms += result.device_ms;
        gunrock_launches += result.counters.kernel_launches;
      }
      gunrock_ms /= runs;
      gunrock_launches /= sources.size();
    }

    double sep_ms = 0;
    {
      core::SepHybrid sep(device, csr);
      for (const auto s : sources) sep_ms += sep.run(s).device_ms;
      sep_ms /= runs;
    }

    core::GpuSsspOptions rdbs_options;
    rdbs_options.delta0 = delta0;
    const auto m_rdbs =
        bench::run_gpu_delta_stepping(csr, device, rdbs_options, sources);

    table.add_row({name, format_fixed(ligra_ms, 3),
                   format_fixed(gunrock_ms, 3), format_fixed(sep_ms, 3),
                   format_fixed(m_rdbs.mean_ms, 3),
                   format_speedup(gunrock_ms / m_rdbs.mean_ms),
                   format_speedup(sep_ms / m_rdbs.mean_ms),
                   format_count(gunrock_launches),
                   format_count(m_rdbs.counters.kernel_launches)});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
