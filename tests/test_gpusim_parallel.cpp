// Determinism tests for the parallel replay pipeline (docs/costmodel.md,
// "Parallel execution & determinism"): counters, per-launch ms and SSSP
// distances must be bit-identical for every worker-thread count, the heap-
// based dynamic scheduler must reproduce the linear-argmin placement, and
// the sorted conflict scan must count exactly what the O(n^2) reference
// counts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/adds.hpp"
#include "core/legacy_gpu.hpp"
#include "core/rdbs.hpp"
#include "core/sep_hybrid.hpp"
#include "graph/surrogates.hpp"
#include "gpusim/sim.hpp"
#include "test_util.hpp"

namespace rdbs::gpusim {
namespace {

const int kThreadCounts[] = {1, 2, 8};

graph::Csr surrogate(const std::string& name) {
  graph::LoadOptions options;
  options.size_scale = -1;  // smaller than bench scale for test speed
  options.weights = graph::WeightScheme::kUniformInt1To1000;
  options.seed = 42;
  return graph::load_dataset_by_name(name, options);
}

struct EngineObservation {
  std::vector<graph::Distance> distances;
  double device_ms = 0;
  Counters counters;
};

// Pins the process-wide default replay mode to kTwoPass for one engine run:
// under the kAuto default these launches would fuse record+replay (no
// worker fan-out at all), and this suite exists to cover the parallel shard
// replay across worker counts.
class ScopedTwoPass {
 public:
  ScopedTwoPass() : saved_(GpuSim::default_replay_mode()) {
    GpuSim::set_default_replay_mode(ReplayMode::kTwoPass);
  }
  ~ScopedTwoPass() { GpuSim::set_default_replay_mode(saved_); }

 private:
  ReplayMode saved_;
};

EngineObservation run_rdbs(const graph::Csr& csr, int sim_threads) {
  ScopedTwoPass two_pass;
  core::GpuSsspOptions options;
  options.basyn = true;
  options.pro = true;
  options.adwl = true;
  options.sim_threads = sim_threads;
  core::RdbsSolver solver(csr, test_device(), options);
  const core::GpuRunResult result = solver.solve(/*source=*/3);
  return {result.sssp.distances, result.device_ms, result.counters};
}

EngineObservation run_adds(const graph::Csr& csr, int sim_threads) {
  ScopedTwoPass two_pass;
  core::AddsOptions options;
  options.sim_threads = sim_threads;
  core::AddsLike adds(test_device(), csr, options);
  const core::GpuRunResult result = adds.run(/*source=*/3);
  return {result.sssp.distances, result.device_ms, result.counters};
}

void expect_bit_identical(const EngineObservation& actual,
                          const EngineObservation& baseline) {
  EXPECT_TRUE(actual.counters == baseline.counters);
  // EXPECT_EQ (not NEAR): replay must produce the same double, not a close
  // one — that is the whole point of the canonical-order L2 pass.
  EXPECT_EQ(actual.device_ms, baseline.device_ms);
  ASSERT_EQ(actual.distances.size(), baseline.distances.size());
  for (std::size_t v = 0; v < actual.distances.size(); ++v) {
    ASSERT_EQ(actual.distances[v], baseline.distances[v]) << "vertex " << v;
  }
}

// --- engine-level determinism ----------------------------------------------

TEST(GpusimParallel, RdbsBitIdenticalAcrossThreadCountsKron) {
  const graph::Csr csr = surrogate("k-n21-16");
  const EngineObservation baseline = run_rdbs(csr, 1);
  for (const int threads : kThreadCounts) {
    expect_bit_identical(run_rdbs(csr, threads), baseline);
  }
}

TEST(GpusimParallel, RdbsBitIdenticalAcrossThreadCountsRoad) {
  const graph::Csr csr = surrogate("road-TX");
  const EngineObservation baseline = run_rdbs(csr, 1);
  for (const int threads : kThreadCounts) {
    expect_bit_identical(run_rdbs(csr, threads), baseline);
  }
}

TEST(GpusimParallel, AddsBitIdenticalAcrossThreadCountsKron) {
  const graph::Csr csr = surrogate("k-n21-16");
  const EngineObservation baseline = run_adds(csr, 1);
  for (const int threads : kThreadCounts) {
    expect_bit_identical(run_adds(csr, threads), baseline);
  }
}

TEST(GpusimParallel, AddsBitIdenticalAcrossThreadCountsRoad) {
  const graph::Csr csr = surrogate("road-TX");
  const EngineObservation baseline = run_adds(csr, 1);
  for (const int threads : kThreadCounts) {
    expect_bit_identical(run_adds(csr, threads), baseline);
  }
}

// --- a persistent kernel with a growing task list ---------------------------

struct PersistentObservation {
  LaunchResult launch;
  Counters counters;
  std::vector<std::uint32_t> cells;
};

// A persistent kernel whose workers push new tasks mid-launch (the BASYN
// phase-1 shape): every task atomically touches a strided cell and, while
// the frontier lasts, appends two children.
PersistentObservation run_persistent_workload(int sim_threads) {
  GpuSim sim(test_device());
  sim.set_replay_mode(ReplayMode::kTwoPass);  // cover the shard fan-out
  sim.set_worker_threads(sim_threads);
  Buffer<std::uint32_t> cells = sim.alloc<std::uint32_t>("cells", 4096);
  std::vector<std::uint64_t> tasks{0, 1, 2, 3};
  KernelScope kernel(sim, Schedule::kDynamic, true, /*warps_per_block=*/1);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::uint64_t id = tasks[i];
    WarpCtx ctx = kernel.make_warp();
    ctx.alu(1 + static_cast<std::uint32_t>(id % 7));
    std::array<std::uint64_t, 32> idx;
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      idx[lane] = (id * 97 + lane * (1 + id % 3)) % cells.size();
      cells[idx[lane]] += 1;  // host-maintained side effect
    }
    ctx.atomic_touch(cells, std::span<const std::uint64_t>(idx));
    if (tasks.size() < 300) {
      ctx.child_launch();
      tasks.push_back(id * 2 + 5);
      tasks.push_back(id * 3 + 1);
    }
    kernel.commit(ctx);
  }
  const LaunchResult launch = kernel.finish();
  return {launch, sim.counters(), cells.data()};
}

TEST(GpusimParallel, PersistentGrowingTaskListDeterministic) {
  const PersistentObservation baseline = run_persistent_workload(1);
  EXPECT_GT(baseline.launch.tasks, 4u);  // the list actually grew
  for (const int threads : kThreadCounts) {
    const PersistentObservation obs = run_persistent_workload(threads);
    EXPECT_TRUE(obs.counters == baseline.counters);
    EXPECT_EQ(obs.launch.ms, baseline.launch.ms);
    EXPECT_EQ(obs.launch.busy_cycles, baseline.launch.busy_cycles);
    EXPECT_EQ(obs.launch.tasks, baseline.launch.tasks);
    EXPECT_EQ(obs.cells, baseline.cells);
  }
}

// --- heap-based dynamic scheduler vs. linear argmin ------------------------

// Reference model of kDynamic placement: least-loaded SM under the record-
// time weight metric, strict-< argmin so ties break toward the lowest SM
// index — exactly what the pre-heap linear scan computed.
void check_dynamic_placement(const DeviceSpec& spec, std::uint64_t seed) {
  GpuSim sim(spec);
  Xoshiro256 rng(seed);
  constexpr int kTasks = 2000;
  std::vector<std::uint32_t> weights(kTasks);
  for (auto& w : weights) {
    w = 1 + static_cast<std::uint32_t>(rng.next_below(50));
  }

  std::vector<int> assigned;
  assigned.reserve(kTasks);
  KernelScope scope(sim, Schedule::kDynamic);
  for (int t = 0; t < kTasks; ++t) {
    WarpCtx ctx = scope.make_warp();
    assigned.push_back(ctx.sm_id());
    ctx.alu(weights[t]);  // task weight == alu instruction count
    scope.commit(ctx);
  }
  scope.finish();

  std::vector<std::uint64_t> load(static_cast<std::size_t>(spec.num_sms), 0);
  for (int t = 0; t < kTasks; ++t) {
    int argmin = 0;
    for (int sm = 1; sm < spec.num_sms; ++sm) {
      if (load[sm] < load[argmin]) argmin = sm;
    }
    ASSERT_EQ(assigned[t], argmin) << "task " << t;
    load[argmin] += weights[t];
  }
}

TEST(GpusimParallel, DynamicSchedulerMatchesLinearArgminTestDevice) {
  check_dynamic_placement(test_device(), /*seed=*/7);
}

TEST(GpusimParallel, DynamicSchedulerMatchesLinearArgminV100) {
  check_dynamic_placement(v100(), /*seed=*/11);
}

// --- sorted conflict scan vs. O(n^2) reference -----------------------------

TEST(GpusimParallel, AtomicConflictCountMatchesQuadraticReference) {
  GpuSim sim(test_device());
  Buffer<std::uint32_t> buf = sim.alloc<std::uint32_t>("buf", 512);
  Xoshiro256 rng(13);
  std::uint64_t expected_conflicts = 0;
  sim.run_kernel(
      Schedule::kDynamic, /*num_tasks=*/200, /*warps_per_block=*/1,
      [&](WarpCtx& ctx, std::uint64_t) {
        const std::uint32_t lanes =
            1 + static_cast<std::uint32_t>(rng.next_below(32));
        std::array<std::uint64_t, 32> idx;
        for (std::uint32_t i = 0; i < lanes; ++i) {
          // Small modulus: heavy duplication, the worst case for the scan.
          idx[i] = rng.next_below(1 + rng.next_below(40));
        }
        // Reference: conflicts = lanes - distinct element addresses.
        std::uint32_t distinct = 0;
        for (std::uint32_t i = 0; i < lanes; ++i) {
          bool seen = false;
          for (std::uint32_t j = 0; j < i; ++j) {
            if (idx[j] == idx[i]) {
              seen = true;
              break;
            }
          }
          if (!seen) ++distinct;
        }
        expected_conflicts += lanes - distinct;
        ctx.atomic_touch(buf,
                         std::span<const std::uint64_t>(idx.data(), lanes));
      });
  EXPECT_EQ(sim.counters().atomic_conflicts, expected_conflicts);
}

// --- knob plumbing ---------------------------------------------------------

TEST(GpusimParallel, WorkerThreadKnobs) {
  GpuSim sim(test_device());
  sim.set_worker_threads(3);
  EXPECT_EQ(sim.worker_threads(), GpuSim::parallel_compiled() ? 3 : 1);
  sim.set_worker_threads(0);
  EXPECT_GE(sim.worker_threads(), 1);

  GpuSim::set_default_worker_threads(5);
  GpuSim fresh(test_device());
  EXPECT_EQ(fresh.worker_threads(), GpuSim::parallel_compiled() ? 5 : 1);
  GpuSim::set_default_worker_threads(0);
}

// EngineOptions::sim_threads = 0 keeps the process default on every engine
// that owns its simulator; only a positive value overrides it.
TEST(GpusimParallel, EnginesKeepTheDefaultWorkerThreads) {
  const graph::Csr csr = test::paper_figure1_graph();
  const int before = GpuSim::default_worker_threads();
  GpuSim::set_default_worker_threads(3);
  core::RdbsSolver rdbs(csr, test_device());
  core::AddsLike adds(test_device(), csr, {});
  core::SepHybrid sep(test_device(), csr);
  core::HarishNarayanan hn07(test_device(), csr);
  core::DavidsonNearFar davidson(test_device(), csr, {});
  GpuSim::set_default_worker_threads(before);

  const int expected = GpuSim::parallel_compiled() ? 3 : 1;
  EXPECT_EQ(rdbs.sim().worker_threads(), expected);
  EXPECT_EQ(adds.sim().worker_threads(), expected);
  EXPECT_EQ(sep.sim().worker_threads(), expected);
  EXPECT_EQ(hn07.sim().worker_threads(), expected);
  EXPECT_EQ(davidson.sim().worker_threads(), expected);
}

}  // namespace
}  // namespace rdbs::gpusim
