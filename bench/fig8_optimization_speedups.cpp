// Fig. 8: speedup of the optimization combinations over the baseline.
//
// BL          = synchronous push Δ-stepping, static balancing, no reorder.
// BASYN+PRO   = async + reordering, thread-per-vertex.
// BASYN+ADWL  = async + adaptive load balancing, original layout.
// RDBS        = BASYN+PRO+ADWL (all three).
//
// Shape to reproduce: every combination beats BL; ADWL dominates on the
// skewed graphs (k-n21-16 most of all); road-TX barely improves.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  std::printf("== Fig. 8: speedup over BL of BASYN+PRO / BASYN+ADWL / "
              "BASYN+PRO+ADWL ==\n");
  std::printf("device=%s size-scale=%d sources=%d\n\n", device.name.c_str(),
              config.size_scale, config.num_sources);

  // BL is the paper's synchronous push-mode baseline (no buckets); the
  // three combinations are bucketed Δ-stepping with the flags applied.
  core::GpuSsspOptions bl;
  bl.mode = core::EngineMode::kSyncPushBellmanFord;
  bl.basyn = bl.pro = bl.adwl = false;
  bl.delta0 = bench::kDefaultDelta0;

  core::GpuSsspOptions basyn_pro;
  basyn_pro.delta0 = bench::kDefaultDelta0;
  basyn_pro.basyn = basyn_pro.pro = true;
  basyn_pro.adwl = false;
  core::GpuSsspOptions basyn_adwl;
  basyn_adwl.delta0 = bench::kDefaultDelta0;
  basyn_adwl.basyn = basyn_adwl.adwl = true;
  basyn_adwl.pro = false;
  core::GpuSsspOptions all;
  all.delta0 = bench::kDefaultDelta0;
  all.basyn = all.pro = all.adwl = true;

  TextTable table({"graph", "BL ms", "B+P ms", "B+A ms", "RDBS ms",
                   "B+P speedup", "B+A speedup", "RDBS speedup",
                   "paper B+P", "paper B+A", "paper RDBS"});
  std::vector<bench::GBenchRow> gbench_rows;

  for (std::size_t i = 0; i < bench::six_graph_suite().size(); ++i) {
    const std::string& name = bench::six_graph_suite()[i];
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
    bl.delta0 = basyn_pro.delta0 = basyn_adwl.delta0 = all.delta0 = delta0;

    const auto m_bl = bench::run_gpu_delta_stepping(csr, device, bl, sources);
    const auto m_bp =
        bench::run_gpu_delta_stepping(csr, device, basyn_pro, sources);
    const auto m_ba =
        bench::run_gpu_delta_stepping(csr, device, basyn_adwl, sources);
    const auto m_all =
        bench::run_gpu_delta_stepping(csr, device, all, sources);

    const auto& paper = bench::paper_fig8()[i];
    table.add_row({name, format_fixed(m_bl.mean_ms, 3),
                   format_fixed(m_bp.mean_ms, 3),
                   format_fixed(m_ba.mean_ms, 3),
                   format_fixed(m_all.mean_ms, 3),
                   format_speedup(m_bl.mean_ms / m_bp.mean_ms),
                   format_speedup(m_bl.mean_ms / m_ba.mean_ms),
                   format_speedup(m_bl.mean_ms / m_all.mean_ms),
                   format_speedup(paper.basyn_pro),
                   format_speedup(paper.basyn_adwl),
                   format_speedup(paper.all)});
    gbench_rows.push_back({"fig8/BL/" + name, m_bl.mean_ms, m_bl.mean_gteps});
    gbench_rows.push_back(
        {"fig8/BASYN+PRO/" + name, m_bp.mean_ms, m_bp.mean_gteps});
    gbench_rows.push_back(
        {"fig8/BASYN+ADWL/" + name, m_ba.mean_ms, m_ba.mean_gteps});
    gbench_rows.push_back(
        {"fig8/RDBS/" + name, m_all.mean_ms, m_all.mean_gteps});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}
