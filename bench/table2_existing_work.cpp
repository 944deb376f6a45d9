// Table 2: running time and speedup against existing work.
//
// PQ-Δ* is the CPU state of the art (Dong et al., SPAA'21; here the LAB-PQ
// model running on the host's real cores, wall-clock), ADDS the GPU state
// of the art (Wang et al., PPoPP'21; modeled on gpusim). Shape to
// reproduce: RDBS beats both everywhere except road-TX, where ADDS wins
// slightly; the Kronecker graph is ADDS's worst case.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  std::printf("== Table 2: RDBS vs PQ-Δ* (CPU) and ADDS (GPU) ==\n");
  std::printf("device=%s size-scale=%d sources=%d\n", device.name.c_str(),
              config.size_scale, config.num_sources);
  std::printf("note: PQ-Δ* is wall-clock on this host's CPU; ADDS/RDBS are "
              "simulated device time — the cross-platform ratio shifts with "
              "the host, the GPU-vs-GPU ratio is the reproducible part\n\n");

  core::GpuSsspOptions rdbs_options;
  rdbs_options.delta0 = bench::kDefaultDelta0;
  core::AddsOptions adds_options;
  adds_options.delta = bench::kDefaultDelta0;

  TextTable table({"graph", "PQ-Δ* ms", "ADDS ms", "RDBS ms",
                   "vs PQ-Δ*", "vs ADDS", "paper vs PQ-Δ*",
                   "paper vs ADDS"});

  for (std::size_t i = 0; i < bench::six_graph_suite().size(); ++i) {
    const std::string& name = bench::six_graph_suite()[i];
    const graph::Csr csr = bench::load_bench_graph(name, config);
    const auto sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
    rdbs_options.delta0 = delta0;
    adds_options.delta = delta0;

    const auto m_pq = bench::run_pq_delta_star(csr, sources, delta0);
    const auto m_adds = bench::run_adds(csr, device, adds_options, sources);
    const auto m_rdbs =
        bench::run_gpu_delta_stepping(csr, device, rdbs_options, sources);

    const auto& paper = bench::paper_table2()[i];
    table.add_row(
        {name, format_fixed(m_pq.mean_ms, 3), format_fixed(m_adds.mean_ms, 3),
         format_fixed(m_rdbs.mean_ms, 3),
         format_speedup(m_pq.mean_ms / m_rdbs.mean_ms),
         format_speedup(m_adds.mean_ms / m_rdbs.mean_ms),
         format_speedup(paper.pq_ms / paper.rdbs_ms),
         format_speedup(paper.adds_ms / paper.rdbs_ms)});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
