// Unit tests for the nvprof-style profiler report (gpusim/profiler.hpp).
#include <gtest/gtest.h>

#include <string>

#include "core/rdbs.hpp"
#include "gpusim/device.hpp"
#include "gpusim/profiler.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

gpusim::Counters sample_counters() {
  const graph::Csr csr = test::random_powerlaw_graph(200, 1500, 41);
  core::RdbsSolver solver(csr, gpusim::test_device(), core::GpuSsspOptions{});
  return solver.solve(0).counters;
}

TEST(Profiler, ReportCarriesTheNvprofMetricRows) {
  const gpusim::DeviceSpec spec = gpusim::test_device();
  const std::string report = gpusim::profiler_report(sample_counters(), spec);
  EXPECT_NE(report.find("==PROF== device " + spec.name), std::string::npos);
  for (const char* metric :
       {"inst_executed_global_loads", "inst_executed_global_stores",
        "inst_executed_atomics", "global_hit_rate", "l2_hit_rate",
        "gld_transactions", "dram_read_bytes+dram_write_bytes",
        "atomic_conflicts", "warp_execution_efficiency", "kernel_launches",
        "child_launches"}) {
    EXPECT_NE(report.find(metric), std::string::npos) << metric;
  }
}

TEST(Profiler, ReportOfZeroCountersIsAllZeroRows) {
  const std::string report =
      gpusim::profiler_report(gpusim::Counters{}, gpusim::test_device());
  // No metric row may show a nonzero count for an idle device.
  EXPECT_EQ(report.find("nan"), std::string::npos);
  EXPECT_NE(report.find("kernel_launches"), std::string::npos);
}

TEST(Profiler, ReportIsDeterministicForIdenticalRuns) {
  const gpusim::Counters a = sample_counters();
  const gpusim::Counters b = sample_counters();
  EXPECT_EQ(gpusim::profiler_report(a, gpusim::test_device()),
            gpusim::profiler_report(b, gpusim::test_device()));
}

}  // namespace
}  // namespace rdbs
