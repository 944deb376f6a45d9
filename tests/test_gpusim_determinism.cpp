// Rerun determinism of the simulated results (docs/costmodel.md,
// "Determinism"): a solve's counters, modeled time and distances are a
// function of its inputs alone. The same engine solving the same source
// again, and a freshly built engine solving it, must reproduce them bit for
// bit — no dependence on host heap addresses, on state left over from an
// earlier solve, or on EngineOptions::sim_threads, which nothing reads.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/adds.hpp"
#include "core/engine.hpp"
#include "core/rdbs.hpp"
#include "graph/surrogates.hpp"
#include "gpusim/sim.hpp"
#include "test_util.hpp"

namespace rdbs::gpusim {
namespace {

// A surrogate at test scale and a source that reaches most of it (on
// road-TX, vertex 3 is isolated).
struct Workload {
  graph::Csr csr;
  graph::VertexId source;
};

Workload surrogate(const std::string& name, graph::VertexId source) {
  graph::LoadOptions options;
  options.size_scale = -1;  // smaller than bench scale for test speed
  options.weights = graph::WeightScheme::kUniformInt1To1000;
  options.seed = 42;
  return {graph::load_dataset_by_name(name, options), source};
}

Workload kron() { return surrogate("k-n21-16", 3); }
Workload road() { return surrogate("road-TX", 100); }

void expect_bit_identical(const core::GpuRunResult& actual,
                          const core::GpuRunResult& baseline,
                          const std::string& where) {
  ASSERT_TRUE(actual.ok) << where;
  EXPECT_TRUE(actual.counters == baseline.counters) << where;
  // EXPECT_EQ (not NEAR): a rerun must produce the same double.
  EXPECT_EQ(actual.device_ms, baseline.device_ms) << where;
  ASSERT_EQ(actual.sssp.distances, baseline.sssp.distances) << where;
}

// Solves from the workload's source on a new engine, again on that engine
// (its owned simulator resets per attempt), and on a second new engine.
template <typename MakeEngine>
void check_reruns(const Workload& w, MakeEngine make) {
  auto engine = make();
  const core::GpuRunResult baseline = engine->run(w.source);
  ASSERT_TRUE(baseline.ok);
  EXPECT_GT(2 * baseline.sssp.reached_count(), w.csr.num_vertices());
  expect_bit_identical(engine->run(w.source), baseline, "same engine");
  expect_bit_identical(make()->run(w.source), baseline, "new engine");
}

void check_rdbs_reruns(const Workload& w) {
  check_reruns(w, [&] {
    core::GpuSsspOptions options;
    options.basyn = true;
    options.pro = true;
    options.adwl = true;
    return std::make_unique<core::RdbsSolver>(w.csr, test_device(), options);
  });
}

void check_adds_reruns(const Workload& w) {
  check_reruns(w, [&] {
    return std::make_unique<core::AddsLike>(test_device(), w.csr,
                                            core::AddsOptions{});
  });
}

// Every registered engine (core/engine.hpp) on both workloads. An engine
// that keeps state across queries (a swapped frontier buffer, a stale
// cursor) fails the "same engine" rerun.
class RerunDeterminism
    : public ::testing::TestWithParam<
          std::tuple<core::GpuEngineEntry, std::string>> {};

TEST_P(RerunDeterminism, BitIdenticalAcrossReruns) {
  const auto& [entry, workload] = GetParam();
  const Workload w = workload == "kron" ? kron() : road();
  check_reruns(w, [&] {
    return entry.make(test_device(), w.csr, core::EngineOptions{},
                      /*delta=*/120.0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, RerunDeterminism,
    ::testing::Combine(::testing::ValuesIn(core::gpu_engines()),
                       ::testing::Values("kron", "road")),
    [](const auto& test_case) {
      return std::string(std::get<0>(test_case.param).name) + "_" +
             std::get<1>(test_case.param);
    });

TEST(GpusimDeterminism, RdbsBitIdenticalAcrossRerunsKron) {
  check_rdbs_reruns(kron());
}

TEST(GpusimDeterminism, RdbsBitIdenticalAcrossRerunsRoad) {
  check_rdbs_reruns(road());
}

TEST(GpusimDeterminism, AddsBitIdenticalAcrossRerunsKron) {
  check_adds_reruns(kron());
}

TEST(GpusimDeterminism, AddsBitIdenticalAcrossRerunsRoad) {
  check_adds_reruns(road());
}

// The repository benchmark still sets EngineOptions::sim_threads (its smoke
// run compares two values); every registered engine must ignore it.
TEST(GpusimDeterminism, EnginesIgnoreSimThreads) {
  const Workload w = road();
  for (const core::GpuEngineEntry& entry : core::gpu_engines()) {
    auto solve = [&](int sim_threads) {
      core::EngineOptions options;
      options.sim_threads = sim_threads;
      return entry.make(test_device(), w.csr, options, /*delta=*/120.0)
          ->run(w.source);
    };
    const core::GpuRunResult baseline = solve(0);
    ASSERT_TRUE(baseline.ok) << entry.name;
    for (const int sim_threads : {1, 8}) {
      expect_bit_identical(solve(sim_threads), baseline,
                           std::string(entry.name) + " sim_threads " +
                               std::to_string(sim_threads));
    }
  }
}

}  // namespace
}  // namespace rdbs::gpusim
