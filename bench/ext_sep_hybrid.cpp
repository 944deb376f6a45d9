// Extension: SEP-Graph-style hybrid switching (paper ref [33]) vs RDBS.
//
// The paper's Related Work credits SEP-Graph with picking Sync/Async and
// Push/Pull at runtime but notes it "ignores load balancing issues". This
// bench quantifies that story: per graph, SEP's hybrid BF and RDBS's
// bucketed engine side by side, plus SEP's per-mode round distribution.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"
#include "core/sep_hybrid.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  std::printf("== Extension: SEP-Graph-style hybrid vs RDBS ==\n");
  std::printf("device=%s size-scale=%d sources=%d\n\n", device.name.c_str(),
              config.size_scale, config.num_sources);

  TextTable table({"graph", "SEP ms", "RDBS ms", "RDBS speedup",
                   "SEP rounds", "async push", "sync push", "sync pull"});
  std::vector<bench::GBenchRow> gbench_rows;

  for (const std::string& name : bench::six_graph_suite()) {
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);

    double sep_ms = 0;
    std::uint64_t rounds = 0, async_push = 0, sync_push = 0, sync_pull = 0;
    {
      core::SepHybrid sep(device, csr);
      for (const auto s : sources) {
        sep_ms += sep.run(s).device_ms;
        rounds += sep.rounds().size();
        for (const auto& round : sep.rounds()) {
          switch (round.mode) {
            case core::SepMode::kAsyncPush: ++async_push; break;
            case core::SepMode::kSyncPush: ++sync_push; break;
            case core::SepMode::kSyncPull: ++sync_pull; break;
          }
        }
      }
      sep_ms /= static_cast<double>(sources.size());
    }
    core::GpuSsspOptions rdbs_options;
    rdbs_options.delta0 = delta0;
    const auto m_rdbs =
        bench::run_gpu_delta_stepping(csr, device, rdbs_options, sources);

    table.add_row({name, format_fixed(sep_ms, 3),
                   format_fixed(m_rdbs.mean_ms, 3),
                   format_speedup(sep_ms / m_rdbs.mean_ms),
                   std::to_string(rounds), std::to_string(async_push),
                   std::to_string(sync_push), std::to_string(sync_pull)});
    gbench_rows.push_back({"sep/SEP/" + name, sep_ms, 0});
    gbench_rows.push_back({"sep/RDBS/" + name, m_rdbs.mean_ms, 0});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}
