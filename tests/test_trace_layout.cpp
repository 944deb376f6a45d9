// Differential tests for the replay matrix (docs/costmodel.md, "Replay
// pipeline"): two-pass replay of the compressed trace (per-SM L1 shards,
// binned L2 scan) and the fused record+replay mode must be observationally
// indistinguishable — bit-identical counters and launch times,
// byte-identical gsan hazard reports, identical gfi fault decisions —
// across replay worker counts. A seeded pseudo-random workload sweeps the
// op-kind and access-pattern space so the equivalence is exercised well
// beyond what the engine goldens cover. Both paths charge through
// coalesce_warp_lanes and SectoredCache::access_line; test_gpusim.cpp
// checks those against independent reference models.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "gpusim/sim.hpp"
#include "graph/surrogates.hpp"

namespace rdbs::gpusim {
namespace {

struct PipelineUnderTest {
  const char* name;
  ReplayMode mode;
  int threads;
};

// The full matrix: two-pass and fused, serial and with a worker team
// (workers are irrelevant to fused launches but must stay harmless). The
// first row, serial two-pass, is the reference the others must match.
const PipelineUnderTest kMatrix[] = {
    {"compressed/two-pass/1", ReplayMode::kTwoPass, 1},
    {"compressed/two-pass/8", ReplayMode::kTwoPass, 8},
    {"compressed/fused/1", ReplayMode::kAuto, 1},
    {"compressed/fused/8", ReplayMode::kAuto, 8},
};

// Restores the process-wide default replay mode and worker count on scope
// exit, so a failing ASSERT (which returns early) cannot leak a test's
// defaults into the tests that run after it in the same binary.
class ScopedPipelineDefaults {
 public:
  ScopedPipelineDefaults()
      : mode_(GpuSim::default_replay_mode()),
        threads_(GpuSim::default_worker_threads()) {}
  ~ScopedPipelineDefaults() {
    GpuSim::set_default_replay_mode(mode_);
    GpuSim::set_default_worker_threads(threads_);
  }

 private:
  ReplayMode mode_;
  int threads_;
};

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
// launches so cross-launch cache state is covered too.
Observation run_workload(const PipelineUnderTest& p, bool sanitize,
                         bool inject_faults) {
  GpuSim sim(test_device());
  sim.set_replay_mode(p.mode);
  sim.set_worker_threads(p.threads);
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
  EXPECT_EQ(actual.hazard_report, reference.hazard_report) << name;
  EXPECT_EQ(actual.faults, reference.faults) << name;
}

TEST(ReplayMatrix, CountersAndTimesMatchAcrossMatrix) {
  const Observation reference =
      run_workload(kMatrix[0], /*sanitize=*/false, /*inject_faults=*/false);
  // The kAuto configurations must actually have fused (no sanitizer
  // attached), otherwise this test is not covering the fused path.
  for (const PipelineUnderTest& p : kMatrix) {
    const Observation obs = run_workload(p, false, false);
    if (p.mode == ReplayMode::kAuto) {
      EXPECT_EQ(obs.stats.fused_launches, obs.stats.launches) << p.name;
    } else {
      EXPECT_EQ(obs.stats.fused_launches, 0u) << p.name;
    }
    expect_equal(obs, reference, p.name);
  }
}

TEST(ReplayMatrix, SanitizerReportsIdenticalAcrossMatrix) {
  // The sanitizer pins every row to two-pass (it scans the materialized
  // trace), so this compares the decoded trace across worker counts.
  const Observation reference =
      run_workload(kMatrix[0], /*sanitize=*/true, /*inject_faults=*/false);
  EXPECT_FALSE(reference.hazard_report.empty());
  for (const PipelineUnderTest& p : kMatrix) {
    const Observation obs = run_workload(p, true, false);
    EXPECT_EQ(obs.stats.fused_launches, 0u) << p.name;  // sanitizer => trace
    expect_equal(obs, reference, p.name);
  }
}

TEST(ReplayMatrix, FaultDecisionsIdenticalAcrossMatrix) {
  const Observation reference =
      run_workload(kMatrix[0], /*sanitize=*/false, /*inject_faults=*/true);
  EXPECT_FALSE(reference.faults.empty());
  for (const PipelineUnderTest& p : kMatrix) {
    const Observation obs = run_workload(p, false, true);
    expect_equal(obs, reference, p.name);
  }
}

TEST(ReplayMatrix, CompressedTraceAtLeast4xSmallerOnWarpLocalOps) {
  // The capacity claim behind the SCALE-21 row: on the engine's dominant
  // access shape (warp-local small strides) the delta/varint stream plus
  // per-op meta bytes must undercut an array-of-structs trace by >= 4x.
  // That reference record is an 8-byte header (kind, lane count, address
  // offset) plus one u64 address per lane: 264 bytes per full-warp op.
  constexpr std::uint64_t kOps = 256;
  constexpr std::uint64_t kAosBytes = kOps * (8 + 32 * 8);
  GpuSim sim(test_device());
  sim.set_replay_mode(ReplayMode::kTwoPass);  // materialize the trace
  auto data = sim.alloc<float>("data", 1 << 16);
  sim.run_kernel(Schedule::kDynamic, kOps, 4,
                 [&](WarpCtx& ctx, std::uint64_t t) {
                   std::array<std::uint64_t, 32> idx;
                   std::array<float, 32> out;
                   for (std::uint32_t l = 0; l < 32; ++l) {
                     idx[l] = (t * 32 + l) % data.size();
                   }
                   ctx.load(data, idx, std::span<float>(out.data(), 32));
                 });
  const TraceStats& stats = sim.trace_stats();
  ASSERT_GT(stats.peak_trace_bytes, 0u);
  EXPECT_GE(kAosBytes, 4 * stats.peak_trace_bytes);
}

// Engine-level cross-check: full solves must agree across the matrix
// (distances, counters, modeled time) — the replay mode and worker count
// must be invisible to everything above the simulator. Every registered
// engine runs; on the adopters of WarpCtx::load_range, fused launches
// charge contiguous loads in closed form while two-pass launches take the
// lane path. road-TX at this scale has 8,100 vertices, so every vertex
// scan ends on a partial strip of 4 lanes.
TEST(ReplayMatrix, EngineResultsMatchAcrossMatrix) {
  graph::LoadOptions load;
  load.size_scale = -1;
  load.weights = graph::WeightScheme::kUniformInt1To1000;
  load.seed = 42;
  constexpr graph::VertexId kSource = 3;

  // Engines construct their GpuSim internally, so the replay mode goes
  // through the process-wide default; the worker count goes through
  // EngineOptions::sim_threads.
  const ScopedPipelineDefaults restore_defaults;
  for (const char* dataset : {"k-n21-16", "road-TX"}) {
    const graph::Csr csr = graph::load_dataset_by_name(dataset, load);
    for (const core::GpuEngineEntry& engine : core::gpu_engines()) {
      auto solve = [&](const PipelineUnderTest& p) {
        GpuSim::set_default_replay_mode(p.mode);
        core::EngineOptions options;
        options.sim_threads = p.threads;
        return engine.make(test_device(), csr, options, /*delta=*/120.0)
            ->run(kSource);
      };
      const core::GpuRunResult reference = solve(kMatrix[0]);
      ASSERT_TRUE(reference.ok) << dataset << ' ' << engine.name;
      for (std::size_t i = 1; i < std::size(kMatrix); ++i) {
        const std::string where =
            std::string(dataset) + ' ' + engine.name + ' ' + kMatrix[i].name;
        const core::GpuRunResult result = solve(kMatrix[i]);
        EXPECT_TRUE(result.counters == reference.counters) << where;
        EXPECT_EQ(result.device_ms, reference.device_ms) << where;
        ASSERT_EQ(result.sssp.distances, reference.sssp.distances) << where;
      }
    }
  }
}

}  // namespace
}  // namespace rdbs::gpusim
