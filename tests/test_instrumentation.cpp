// Tests for the instrumentation layer: profiler report and the per-phase
// time breakdown.
#include <gtest/gtest.h>

#include "core/rdbs.hpp"
#include "gpusim/profiler.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using test::random_powerlaw_graph;

TEST(Profiler, ReportContainsPaperMetricNames) {
  gpusim::GpuSim sim(gpusim::test_device());
  auto buf = sim.alloc<double>("x", 64);
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.load_one(buf, 0);
                   ctx.store_one(buf, 1, 2.0);
                   ctx.atomic_min_one(buf, 0, -1.0);
                 });
  const std::string report =
      gpusim::profiler_report(sim.counters(), sim.spec());
  EXPECT_NE(report.find("inst_executed_global_loads"), std::string::npos);
  EXPECT_NE(report.find("inst_executed_global_stores"), std::string::npos);
  EXPECT_NE(report.find("inst_executed_atomics"), std::string::npos);
  EXPECT_NE(report.find("global_hit_rate"), std::string::npos);
  EXPECT_NE(report.find("l2_hit_rate"), std::string::npos);
  EXPECT_NE(report.find("testdev"), std::string::npos);
}

TEST(PhaseBreakdown, SumsCloseToDeviceTime) {
  const auto csr = random_powerlaw_graph(600, 4800, 133);
  core::RdbsSolver solver(csr, gpusim::test_device());
  const core::GpuRunResult result = solver.solve(0);
  const double accounted =
      result.total_phase1_ms() + result.total_phase23_ms();
  // Only the init kernels and the distance-gap rescans fall outside the
  // per-bucket phases.
  EXPECT_LE(accounted, result.device_ms + 1e-9);
  EXPECT_GT(accounted, 0.5 * result.device_ms);
}

TEST(PhaseBreakdown, BucketPhaseTimesNonNegative) {
  const auto csr = random_powerlaw_graph(300, 2400, 135);
  core::RdbsSolver solver(csr, gpusim::test_device());
  const core::GpuRunResult result = solver.solve(2);
  for (const auto& bs : result.buckets) {
    EXPECT_GE(bs.phase1_ms, 0.0);
    EXPECT_GE(bs.phase23_ms, 0.0);
  }
}

}  // namespace
}  // namespace rdbs

namespace rdbs {
namespace {

TEST(WorkloadLists, ClassificationCountsMatchFig5Thresholds) {
  // A star graph: the hub has thousands of light edges (large workload);
  // satellites have a handful (small).
  graph::EdgeList edges;
  edges.num_vertices = 600;
  for (graph::VertexId v = 1; v < 600; ++v) edges.add_edge(0, v, 1.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const auto csr = graph::build_csr(edges, build);
  core::GpuSsspOptions options;
  options.delta0 = 10.0;  // all edges light
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  const auto result = solver.solve(0);
  std::uint64_t small = 0, medium = 0, large = 0;
  for (const auto& bs : result.buckets) {
    small += bs.small_workload;
    medium += bs.medium_workload;
    large += bs.large_workload;
  }
  EXPECT_GE(large, 1u);            // the hub (599 light edges >= alpha=256)
  EXPECT_EQ(medium, 0u);           // nothing between 32 and 256
  EXPECT_GE(small, 599u);          // every satellite
}

}  // namespace
}  // namespace rdbs
