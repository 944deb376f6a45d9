// Differential tests for the replay matrix (docs/costmodel.md, "Replay
// pipeline"): a launch with gsan on also passes every memory op through the
// sanitizer as it is issued, and must otherwise be observationally
// indistinguishable from the same launch with gsan off — bit-identical
// counters and launch times, identical gfi fault decisions. A seeded
// pseudo-random workload sweeps the op-kind and access-pattern space so the
// equivalence is exercised well beyond what the engine goldens cover, and a
// golden file pins its hazard report, fault log, counters and times.
//
// Regenerate the golden intentionally with:
//   RDBS_UPDATE_GOLDEN=1 ./tests/test_trace_layout
// and commit the updated file under tests/golden/ with an explanation.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "gpusim/sim.hpp"
#include "graph/surrogates.hpp"
#include "test_util.hpp"

#ifndef RDBS_GOLDEN_DIR
#error "tests/CMakeLists.txt must define RDBS_GOLDEN_DIR"
#endif

namespace rdbs::gpusim {
namespace {

struct Observation {
  Counters counters;
  double total_ms = 0;
  std::string hazard_report;
  std::vector<std::string> faults;
  TraceStats stats;
};

// Seeded mixed workload: strided loads, scattered loads, duplicate-heavy
// atomics, volatile accesses and plain stores whose address ranges overlap
// across tasks (so the sanitizer has real races to report) — across several
// launches so cross-launch cache state is covered too. The scattered loads
// and the atomics issue their lanes out of address order, so the hazard
// report also pins that gsan sees each op's lanes in original lane order.
Observation run_workload(bool sanitize, bool inject_faults) {
  GpuSim sim(test_device());
  if (sanitize) sim.enable_sanitizer(SanitizeMode::kOn);
  if (inject_faults) {
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = 2024;
    fc.bit_flip_per_load = 0.02;
    fc.correctable_fraction = 1.0;  // log-only: keep the workload identical
    fc.max_faults = 64;
    sim.enable_fault_injection(fc);
  }

  auto data = sim.alloc<float>("data", 1 << 14);
  auto cells = sim.alloc<std::uint32_t>("cells", 512);
  // Host-initialized, so the report holds races rather than one
  // uninitialized read per element.
  sim.mark_initialized(data);
  sim.mark_initialized(cells);
  Observation obs;
  Xoshiro256 rng(7);
  for (int launch = 0; launch < 3; ++launch) {
    const LaunchResult r = sim.run_kernel(
        Schedule::kDynamic, /*num_tasks=*/160, /*warps_per_block=*/4,
        [&](WarpCtx& ctx, std::uint64_t t) {
          std::array<std::uint64_t, 32> idx;
          std::array<float, 32> out;
          const std::uint32_t lanes = 1 + static_cast<std::uint32_t>(
                                              rng.uniform_real() * 31.0);
          switch (t % 5) {
            case 0:  // strided load (the common engine pattern)
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = (t * 64 + l) % data.size();
              }
              ctx.load(data, std::span<const std::uint64_t>(idx.data(), lanes),
                       std::span<float>(out.data(), lanes));
              break;
            case 1:  // scattered load, every lane its own line
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = ((t * 32 + l) * 2654435761ull) % data.size();
              }
              ctx.load(data, std::span<const std::uint64_t>(idx.data(), lanes),
                       std::span<float>(out.data(), lanes));
              break;
            case 2:  // duplicate-heavy atomics (conflict serialization)
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = (t + l % 3) % cells.size();
              }
              ctx.atomic_touch(cells, std::span<const std::uint64_t>(
                                          idx.data(), lanes));
              break;
            case 3:  // volatile round trip (L1 bypass path)
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = (t * 16 + l * 2) % data.size();
              }
              ctx.volatile_load(data,
                                std::span<const std::uint64_t>(idx.data(),
                                                               lanes),
                                std::span<float>(out.data(), lanes));
              break;
            default:  // store write-through
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = (t * 48 + l) % data.size();
                out[l] = static_cast<float>(t);
              }
              ctx.store(data,
                        std::span<const std::uint64_t>(idx.data(), lanes),
                        std::span<const float>(out.data(), lanes));
          }
          ctx.alu(2);
        });
    obs.total_ms += r.ms;
  }
  obs.counters = sim.counters();
  if (sim.sanitizer() != nullptr) {
    obs.hazard_report = sim.sanitizer()->report();
  }
  for (const GpuFault& f : sim.fault_log()) {
    obs.faults.push_back(f.describe());
  }
  obs.stats = sim.trace_stats();
  return obs;
}

void expect_equal(const Observation& actual, const Observation& reference,
                  const char* name) {
  EXPECT_TRUE(actual.counters == reference.counters) << name;
  EXPECT_EQ(actual.total_ms, reference.total_ms) << name;
  EXPECT_EQ(actual.faults, reference.faults) << name;
}

std::string serialize(const Observation& obs) {
  std::ostringstream out;
  out << test::counters_text(obs.counters) << std::hexfloat << "total_ms "
      << obs.total_ms << '\n';
  out << "hazard_report\n" << obs.hazard_report;
  out << "fault_log " << obs.faults.size() << '\n';
  for (const std::string& f : obs.faults) out << f << '\n';
  return out.str();
}

TEST(ReplayMatrix, CountersAndTimesMatchWithAndWithoutGsan) {
  const Observation off = run_workload(/*sanitize=*/false, false);
  const Observation on = run_workload(/*sanitize=*/true, false);
  // Only the gsan-off run's launches count as fused.
  EXPECT_EQ(off.stats.fused_launches, off.stats.launches);
  EXPECT_EQ(on.stats.fused_launches, 0u);
  EXPECT_FALSE(on.hazard_report.empty());
  expect_equal(on, off, "gsan on");
}

TEST(ReplayMatrix, FaultDecisionsMatchWithAndWithoutGsan) {
  const Observation off = run_workload(false, /*inject_faults=*/true);
  const Observation on = run_workload(true, /*inject_faults=*/true);
  EXPECT_FALSE(off.faults.empty());
  expect_equal(on, off, "gsan on, gfi on");
}

// Two runs of one gsan configuration in the same process give the same
// report byte for byte, with and without gfi: nothing in the sanitizer's
// output may follow host addresses or state left by an earlier simulator.
TEST(ReplayMatrix, SanitizerReportsIdenticalAcrossReruns) {
  for (const bool inject_faults : {false, true}) {
    const char* name = inject_faults ? "gfi on" : "gfi off";
    const Observation first = run_workload(/*sanitize=*/true, inject_faults);
    const Observation again = run_workload(/*sanitize=*/true, inject_faults);
    EXPECT_FALSE(first.hazard_report.empty()) << name;
    EXPECT_EQ(again.hazard_report, first.hazard_report) << name;
    expect_equal(again, first, name);
  }
}

// The hazard report (gsan on), the fault log (gfi on), and the counters and
// simulated time of every run of the workload, pinned byte for byte.
TEST(ReplayMatrix, WorkloadMatchesGolden) {
  std::ostringstream all;
  for (const bool inject_faults : {false, true}) {
    for (const bool sanitize : {false, true}) {
      all << "== gsan " << (sanitize ? "on" : "off") << ", gfi "
          << (inject_faults ? "on" : "off") << '\n'
          << serialize(run_workload(sanitize, inject_faults));
    }
  }
  test::expect_matches_golden(
      std::string(RDBS_GOLDEN_DIR) + "/replay_workload_s7.txt", all.str());
}

struct PersistentObservation {
  LaunchResult launch;
  Counters counters;
  std::vector<std::uint32_t> cells;
};

// A persistent kernel whose workers push new tasks mid-launch (the BASYN
// phase-1 shape): every task atomically touches a strided cell and, while
// the frontier lasts, appends two children.
PersistentObservation run_persistent_workload(bool sanitize) {
  GpuSim sim(test_device());
  if (sanitize) sim.enable_sanitizer(SanitizeMode::kOn);
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

TEST(ReplayMatrix, PersistentGrowingTaskListMatchesWithAndWithoutGsan) {
  const PersistentObservation off = run_persistent_workload(false);
  EXPECT_GT(off.launch.tasks, 4u);  // the list actually grew
  const PersistentObservation on = run_persistent_workload(true);
  EXPECT_TRUE(on.counters == off.counters);
  EXPECT_EQ(on.launch.ms, off.launch.ms);
  EXPECT_EQ(on.launch.busy_cycles, off.launch.busy_cycles);
  EXPECT_EQ(on.launch.tasks, off.launch.tasks);
  EXPECT_EQ(on.cells, off.cells);
}

// Engine-level cross-check: full solves must agree with gsan on and off
// (distances, counters, modeled time) — gsan's checks must be invisible to
// everything above the simulator. Every registered engine
// runs; on the adopters of WarpCtx::load_range, launches without gsan
// charge contiguous loads in closed form while gsan launches take the lane
// path. road-TX at this scale has 8,100 vertices, so every vertex scan
// ends on a partial strip of 4 lanes. Each source reaches most of its graph
// (on road-TX, vertex 3 is isolated).
TEST(ReplayMatrix, EngineResultsMatchWithAndWithoutGsan) {
  graph::LoadOptions load;
  load.size_scale = -1;
  load.weights = graph::WeightScheme::kUniformInt1To1000;
  load.seed = 42;
  const std::pair<const char*, graph::VertexId> kRuns[] = {{"k-n21-16", 3},
                                                           {"road-TX", 100}};

  for (const auto& [dataset, source] : kRuns) {
    const graph::Csr csr = graph::load_dataset_by_name(dataset, load);
    for (const core::GpuEngineEntry& engine : core::gpu_engines()) {
      auto solve = [&](SanitizeMode sanitize) {
        core::EngineOptions options;
        options.sanitize = sanitize;
        return engine.make(test_device(), csr, options, /*delta=*/120.0)
            ->run(source);
      };
      const core::GpuRunResult reference = solve(SanitizeMode::kOff);
      const std::string where = std::string(dataset) + ' ' + engine.name;
      ASSERT_TRUE(reference.ok) << where;
      EXPECT_GT(2 * reference.sssp.reached_count(), csr.num_vertices())
          << where;
      const core::GpuRunResult result = solve(SanitizeMode::kOn);
      EXPECT_TRUE(result.counters == reference.counters) << where;
      EXPECT_EQ(result.device_ms, reference.device_ms) << where;
      ASSERT_EQ(result.sssp.distances, reference.sssp.distances) << where;
    }
  }
}

}  // namespace
}  // namespace rdbs::gpusim
