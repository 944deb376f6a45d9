// gfi chaos harness (docs/fault_injection.md).
//
// The load-bearing property: every engine family, under every fault class,
// either recovers to BIT-IDENTICAL distances vs the fault-free run (which
// the suite anchors to Dijkstra) or returns a typed failure — never wrong
// distances, never a crash. Fault plans are pure functions of the config
// seed and the simulator's op counters, so the injected fault log must be
// byte-identical across reruns, and a failing chaos run replays exactly
// from its seed.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/adds.hpp"
#include "core/gpu_sssp.hpp"
#include "core/rdbs.hpp"
#include "core/cancel.hpp"
#include "core/device_graph.hpp"
#include "core/engine.hpp"
#include "core/query_batch.hpp"
#include "core/query_server.hpp"
#include "core/recovery.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/sim.hpp"
#include "graph/builder.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::Distance;
using graph::VertexId;

Csr chaos_graph() { return test::random_powerlaw_graph(300, 2200, /*seed=*/9); }

// Injection switched on under `seed`, every fault class still at rate 0.
gpusim::FaultConfig seeded_faults(std::uint64_t seed) {
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  return cfg;
}

// One named fault plan per fault class the acceptance sweep requires.
struct FaultScenario {
  std::string name;
  gpusim::FaultConfig cfg;
};

std::vector<FaultScenario> fault_scenarios() {
  std::vector<FaultScenario> scenarios;
  {
    FaultScenario s{"flip_correctable", seeded_faults(11)};
    s.cfg.bit_flip_per_load = 0.01;
    s.cfg.correctable_fraction = 1.0;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"flip_uncorrectable", seeded_faults(12)};
    s.cfg.bit_flip_per_load = 0.01;
    s.cfg.correctable_fraction = 0.0;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"launch_failure", seeded_faults(13)};
    s.cfg.launch_failure = 0.15;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"timeout", seeded_faults(14)};
    s.cfg.timeout = 0.15;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"stream_stall", seeded_faults(15)};
    s.cfg.stream_stall = 0.5;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"device_loss", seeded_faults(16)};
    s.cfg.device_loss = 0.25;
    scenarios.push_back(s);
  }
  return scenarios;
}

// Every registered engine (core/engine.hpp) runs the sweep, at Δ = 120.
// A served batch has its own result shape and is exercised by dedicated
// tests below.
core::GpuRunResult run_engine(
    const core::GpuEngineEntry& engine, const Csr& csr, VertexId source,
    const gpusim::FaultConfig& fault, const core::RetryPolicy& retry,
    gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff) {
  core::EngineOptions options;
  options.sanitize = sanitize;
  options.fault = fault;
  options.retry = retry;
  return engine.make(gpusim::test_device(), csr, options, /*delta=*/120.0)
      ->run(source);
}

const core::GpuEngineEntry& engine_named(std::string_view name) {
  return *core::gpu_engine(name);
}

std::vector<std::string> fault_plan(const core::GpuRunResult& result) {
  std::vector<std::string> plan;
  plan.reserve(result.faults.size());
  for (const gpusim::GpuFault& f : result.faults) plan.push_back(f.describe());
  return plan;
}

// --- the acceptance sweep ---------------------------------------------------

TEST(FaultInjection, EverySweptEngineSurvivesEveryFaultClass) {
  const Csr csr = chaos_graph();
  const VertexId source = 7;
  const std::vector<Distance> oracle = sssp::dijkstra(csr, source).distances;

  core::RetryPolicy retry;  // defaults: 3 attempts, CPU fallback on

  for (const core::GpuEngineEntry& engine : core::gpu_engines()) {
    // Fault-free baseline is bit-identical to Dijkstra (anchors the sweep).
    {
      const core::GpuRunResult clean =
          run_engine(engine, csr, source, gpusim::FaultConfig{}, retry);
      ASSERT_TRUE(clean.ok) << engine.name;
      ASSERT_EQ(clean.sssp.distances, oracle) << engine.name;
      ASSERT_TRUE(clean.faults.empty()) << engine.name;
    }
    for (const FaultScenario& scenario : fault_scenarios()) {
      SCOPED_TRACE(std::string(engine.name) + " x " + scenario.name);
      const core::GpuRunResult result =
          run_engine(engine, csr, source, scenario.cfg, retry);
      // Never wrong distances: recovery (retry or CPU fallback) must land
      // on the exact fault-free result.
      ASSERT_TRUE(result.ok);
      EXPECT_EQ(result.sssp.distances, oracle);
      // Budget is a hard cap on injections.
      EXPECT_LE(result.recovery.faults_injected, scenario.cfg.max_faults);
      EXPECT_EQ(result.recovery.faults_injected, result.faults.size());
    }
  }
}

// --- determinism ------------------------------------------------------------

TEST(FaultInjection, FaultPlanByteIdenticalAcrossReruns) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg = seeded_faults(99);
  cfg.bit_flip_per_load = 0.02;
  cfg.correctable_fraction = 0.5;
  cfg.launch_failure = 0.05;
  cfg.stream_stall = 0.05;
  cfg.max_faults = 8;
  core::RetryPolicy retry;
  retry.max_attempts = 5;

  for (const char* name : {"rdbs", "adds"}) {
    const core::GpuRunResult first =
        run_engine(engine_named(name), csr, /*source=*/3, cfg, retry);
    const core::GpuRunResult second =
        run_engine(engine_named(name), csr, /*source=*/3, cfg, retry);
    EXPECT_EQ(fault_plan(first), fault_plan(second)) << name;
    EXPECT_EQ(first.sssp.distances, second.sssp.distances);
    EXPECT_EQ(first.recovery.retries, second.recovery.retries);
    EXPECT_EQ(first.recovery.cpu_fallbacks, second.recovery.cpu_fallbacks);
  }
}

// --- retry / fallback semantics --------------------------------------------

TEST(FaultInjection, CertainLaunchFailureRetriesUntilBudgetExhausts) {
  const Csr csr = test::paper_figure1_graph();
  const std::vector<Distance> oracle = sssp::dijkstra(csr, 0).distances;

  gpusim::FaultConfig cfg = seeded_faults(5);
  cfg.launch_failure = 1.0;  // every launch fails...
  cfg.max_faults = 2;        // ...until the budget runs dry
  core::RetryPolicy retry;
  retry.max_attempts = 5;

  const core::GpuRunResult result =
      run_engine(engine_named("rdbs"), csr, 0, cfg, retry);
  ASSERT_TRUE(result.ok);
  // Faults are observed at launch completion (CUDA's async error model), so
  // attempt 1 keeps running and drains the whole budget; attempt 2 then
  // runs on a clean device.
  EXPECT_EQ(result.recovery.retries, 1u);
  EXPECT_EQ(result.recovery.cpu_fallbacks, 0u);
  EXPECT_EQ(result.recovery.faults_injected, 2u);
  EXPECT_EQ(result.sssp.distances, oracle);
  for (const gpusim::GpuFault& f : result.faults) {
    EXPECT_EQ(f.cls, gpusim::FaultClass::kLaunchFailure);
  }
}

TEST(FaultInjection, RetryChargesBackoffToTheSimulatedClock) {
  const Csr csr = test::paper_figure1_graph();
  gpusim::FaultConfig cfg = seeded_faults(5);
  cfg.launch_failure = 1.0;
  cfg.max_faults = 1;
  core::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_ms = 1.5;

  const core::GpuRunResult faulted =
      run_engine(engine_named("rdbs"), csr, 0, cfg, retry);
  const core::GpuRunResult clean =
      run_engine(engine_named("rdbs"), csr, 0, gpusim::FaultConfig{}, retry);
  ASSERT_TRUE(faulted.ok);
  EXPECT_EQ(faulted.recovery.retries, 1u);
  // One failed attempt + the backoff + the clean rerun: the recovered run
  // must be visibly more expensive than the fault-free one.
  EXPECT_GE(faulted.device_ms, clean.device_ms + retry.backoff_ms);
}

TEST(FaultInjection, StreamStallIsBenignButCharged) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg = seeded_faults(21);
  cfg.stream_stall = 1.0;  // every launch stalls, up to the budget
  cfg.stall_ms = 3.0;
  core::RetryPolicy retry;

  const core::GpuRunResult stalled =
      run_engine(engine_named("rdbs"), csr, 2, cfg, retry);
  const core::GpuRunResult clean =
      run_engine(engine_named("rdbs"), csr, 2, gpusim::FaultConfig{}, retry);
  ASSERT_TRUE(stalled.ok);
  EXPECT_EQ(stalled.recovery.retries, 0u);  // stalls never poison
  EXPECT_EQ(stalled.recovery.faults_injected, cfg.max_faults);
  EXPECT_EQ(stalled.sssp.distances, clean.sssp.distances);
  EXPECT_GE(stalled.device_ms,
            clean.device_ms + cfg.stall_ms * double(cfg.max_faults) - 1e-9);
}

TEST(FaultInjection, CorrectableFlipsAreCountedButHarmless) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg = seeded_faults(31);
  cfg.bit_flip_per_load = 1.0;
  cfg.correctable_fraction = 1.0;
  core::RetryPolicy retry;

  const core::GpuRunResult result =
      run_engine(engine_named("adds"), csr, 2, cfg, retry);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.recovery.retries, 0u);
  EXPECT_EQ(result.recovery.faults_injected, cfg.max_faults);
  EXPECT_EQ(result.recovery.ecc_corrected, cfg.max_faults);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 2).distances);
}

TEST(FaultInjection, DeviceLossFallsBackToHostDijkstra) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg = seeded_faults(41);
  cfg.device_loss = 1.0;
  core::RetryPolicy retry;

  for (const core::GpuEngineEntry& engine : core::gpu_engines()) {
    SCOPED_TRACE(engine.name);
    const core::GpuRunResult result = run_engine(engine, csr, 4, cfg, retry);
    ASSERT_TRUE(result.ok);
    EXPECT_TRUE(result.recovery.device_lost);
    EXPECT_EQ(result.recovery.cpu_fallbacks, 1u);
    EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 4).distances);
  }
}

TEST(FaultInjection, InvalidSourceThrowsInsteadOfAborting) {
  const Csr csr = test::paper_figure1_graph();
  const VertexId bad = csr.num_vertices();
  for (const core::GpuEngineEntry& engine : core::gpu_engines()) {
    EXPECT_THROW(run_engine(engine, csr, bad, gpusim::FaultConfig{},
                            core::RetryPolicy{}),
                 std::out_of_range)
        << engine.name;
  }
}

// --- the device binding (core/recovery.hpp) ---------------------------------
// The driver resets, per attempt, exactly the simulator it owns, and always
// measures device_ms on its own stream.

// The smallest engine on the driver: an attempt is one heavy launch,
// init_distances over 65,536 vertices (2048 warps of 32-lane stores), then
// the host seed of the source. Records the busy floor and the stream clock
// at the end of every attempt.
class OneLaunchEngine {
 public:
  OneLaunchEngine(core::DeviceBinding device, const Csr& csr,
                  const core::EngineOptions& options)
      : driver_("one-launch", std::move(device), csr, options),
        dist_(driver_.sim().alloc<Distance>("dist", csr.num_vertices(), 4)) {}

  core::GpuRunResult run(VertexId source) {
    return driver_.run(source, [&] {
      driver_.begin_attempt(dist_);
      core::init_distances(driver_.sim(), driver_.stream(), dist_);
      dist_[source] = 0;
      attempt_ends_.push_back(
          {driver_.sim().device_busy_floor_ms(),
           driver_.sim().stream_elapsed_ms(driver_.stream())});
      return driver_.finish(core::GpuRunResult{}, dist_, source);
    });
  }

  struct Clocks {
    double busy_floor_ms;
    double stream_ms;
  };
  const std::vector<Clocks>& attempt_ends() const { return attempt_ends_; }

 private:
  core::AttemptDriver driver_;
  gpusim::Buffer<Distance> dist_;
  std::vector<Clocks> attempt_ends_;
};

Csr edgeless_graph(VertexId n) {
  graph::EdgeList edges;
  edges.num_vertices = n;
  return graph::build_csr(edges);
}

// A heavy launch that fails never runs: its stream pays only the host
// launch overhead, and the simulator's device-wide busy floor counts none
// of the kernel. The owned simulator is reset for the retry, and device_ms
// sums the stream's charges.
TEST(FaultInjection, OwnedBindingBillsAFailedHeavyLaunchOnTheStream) {
  const Csr csr = edgeless_graph(2048 * 32);
  core::EngineOptions options;
  options.fault = seeded_faults(61);
  options.fault.launch_failure = 1.0;
  options.fault.max_faults = 1;  // the first launch fails, the retry is clean
  OneLaunchEngine faulted(gpusim::test_device(), csr, options);
  const core::GpuRunResult result = faulted.run(0);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.recovery.retries, 1u);
  ASSERT_EQ(faulted.attempt_ends().size(), 2u);
  const double launch_ms = gpusim::test_device().kernel_launch_us * 1e-3;
  const OneLaunchEngine::Clocks failed = faulted.attempt_ends()[0];
  EXPECT_DOUBLE_EQ(failed.stream_ms, launch_ms);
  EXPECT_EQ(failed.busy_floor_ms, 0.0);

  OneLaunchEngine clean(gpusim::test_device(), csr, core::EngineOptions{});
  const core::GpuRunResult reference = clean.run(0);
  // The case is live: the same kernel, run, floors past its launch cost.
  EXPECT_GT(clean.attempt_ends()[0].busy_floor_ms, launch_ms);
  EXPECT_DOUBLE_EQ(result.device_ms,
                   launch_ms + options.retry.backoff_ms + reference.device_ms);
}

// A lane borrows one stream of a shared simulator: its poisoned attempt and
// the retry charge only that stream, and never reset the simulator, so the
// other lanes' clocks and the cumulative counters stay in place.
TEST(FaultInjection, BorrowedBindingRetryLeavesTheSharedSimulatorInPlace) {
  const Csr csr = chaos_graph();
  core::QueryBatchOptions options;
  options.streams = 2;
  options.gpu.delta0 = 120.0;
  core::QueryBatch batch(csr, gpusim::test_device(), options);
  gpusim::GpuSim& sim = batch.sim();
  ASSERT_TRUE(batch.run_on_lane(1, 5).result.ok);

  const double other_lane_ms = sim.stream_elapsed_ms(1);
  const double lane_ms = sim.stream_elapsed_ms(0);
  const gpusim::Counters counters = sim.counters();
  gpusim::FaultConfig cfg = seeded_faults(62);
  cfg.launch_failure = 1.0;
  cfg.max_faults = 1;
  sim.enable_fault_injection(cfg);
  const core::GpuRunResult result = batch.run_on_lane(0, 11).result;

  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.recovery.retries, 1u);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 11).distances);
  EXPECT_EQ(sim.stream_elapsed_ms(1), other_lane_ms);
  EXPECT_TRUE(sim.counters() - counters == result.counters);
  EXPECT_DOUBLE_EQ(sim.stream_elapsed_ms(0) - lane_ms, result.device_ms);
}

// --- the recovery contract, engine by engine -------------------------------
// Each swept engine runs its attempts through core::AttemptDriver and must
// honour the whole contract on its own.

class EngineRecoveryContract
    : public ::testing::TestWithParam<core::GpuEngineEntry> {};

TEST_P(EngineRecoveryContract, DeviceLossWithoutFallbackFailsTyped) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg = seeded_faults(51);
  cfg.device_loss = 1.0;
  core::RetryPolicy retry;
  retry.cpu_fallback = false;

  const core::GpuRunResult result = run_engine(GetParam(), csr, 3, cfg, retry);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.recovery.device_lost);
  EXPECT_TRUE(result.sssp.distances.empty());
  ASSERT_FALSE(result.faults.empty());
  EXPECT_EQ(result.faults.back().cls, gpusim::FaultClass::kDeviceLoss);
}

TEST_P(EngineRecoveryContract, SameSeedReplaysTheSamePlan) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg = seeded_faults(53);
  cfg.launch_failure = 0.5;
  cfg.stream_stall = 0.5;
  cfg.max_faults = 6;
  core::RetryPolicy retry;
  retry.max_attempts = 8;

  const core::GpuRunResult a = run_engine(GetParam(), csr, 1, cfg, retry);
  const core::GpuRunResult b = run_engine(GetParam(), csr, 1, cfg, retry);
  ASSERT_TRUE(a.ok);
  ASSERT_FALSE(a.faults.empty());
  EXPECT_EQ(fault_plan(a), fault_plan(b));
  EXPECT_EQ(a.sssp.distances, sssp::dijkstra(csr, 1).distances);
  EXPECT_EQ(a.sssp.distances, b.sssp.distances);
  EXPECT_EQ(a.recovery.retries, b.recovery.retries);
  EXPECT_DOUBLE_EQ(a.device_ms, b.device_ms);
}

TEST_P(EngineRecoveryContract, SanitizerAndFaultsComposeClean) {
  const Csr csr = test::random_grid_graph(14, /*seed=*/7);
  gpusim::FaultConfig cfg = seeded_faults(55);
  cfg.launch_failure = 1.0;  // the first launch fails, then the budget
  cfg.max_faults = 1;        // is spent and the retry runs clean
  core::RetryPolicy retry;

  const core::GpuRunResult result = run_engine(
      GetParam(), csr, 0, cfg, retry, gpusim::SanitizeMode::kOn);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.recovery.retries, 1u);
  EXPECT_EQ(result.recovery.cpu_fallbacks, 0u);
  // The discarded attempt ran the same hazard-free kernels as the retry.
  EXPECT_EQ(result.sanitizer_report, "");
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 0).distances);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineRecoveryContract,
                         ::testing::ValuesIn(core::gpu_engines()),
                         ::testing::PrintToStringParamName());

// --- simulator-level behavior ----------------------------------------------

TEST(FaultInjection, DeviceLossLatchesAcrossResetUntilRevived) {
  gpusim::GpuSim sim(gpusim::test_device());
  gpusim::FaultConfig cfg = seeded_faults(3);
  cfg.device_loss = 1.0;
  sim.enable_fault_injection(cfg);

  auto noop = [](gpusim::WarpCtx&, std::uint64_t) {};
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1, noop);
  EXPECT_TRUE(sim.device_lost());
  sim.reset_all();
  EXPECT_TRUE(sim.device_lost()) << "reset_all must not heal the device";
  sim.revive_device();
  EXPECT_FALSE(sim.device_lost());
  EXPECT_TRUE(sim.fault_log().empty());
}

TEST(FaultInjection, GenuineWatchdogTimeoutFiresWithoutInjection) {
  gpusim::GpuSim sim(gpusim::test_device());
  gpusim::FaultConfig cfg = seeded_faults(3);
  cfg.watchdog_ms = 1e-6;  // any real kernel exceeds this
  sim.enable_fault_injection(cfg);

  gpusim::Buffer<float> buf = sim.alloc<float>("buf", 4096, 4);
  sim.run_kernel(gpusim::Schedule::kStatic, 128, 8,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                   std::array<std::uint64_t, 32> idx{};
                   std::array<float, 32> vals{};
                   for (std::uint32_t i = 0; i < 32; ++i) {
                     idx[i] = (w * 32 + i) % 4096;
                     vals[i] = 1.0f;
                   }
                   ctx.store(buf, std::span<const std::uint64_t>(idx.data(), 32),
                             std::span<const float>(vals.data(), 32));
                 });
  ASSERT_FALSE(sim.fault_log().empty());
  EXPECT_EQ(sim.fault_log().front().cls, gpusim::FaultClass::kTimeout);
}

TEST(FaultInjection, SpecParserRoundTripsAndRejectsGarbage) {
  const gpusim::FaultConfig cfg = gpusim::parse_fault_spec(
      "seed=42,flip=1e-3,ecc=0.25,launch=0.01,timeout=0.02,stall=0.03,"
      "loss=0.004,watchdog=30,stall-ms=1.5,max=9,hot=2,hot-factor=8");
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.bit_flip_per_load, 1e-3);
  EXPECT_DOUBLE_EQ(cfg.correctable_fraction, 0.25);
  EXPECT_DOUBLE_EQ(cfg.launch_failure, 0.01);
  EXPECT_DOUBLE_EQ(cfg.timeout, 0.02);
  EXPECT_DOUBLE_EQ(cfg.stream_stall, 0.03);
  EXPECT_DOUBLE_EQ(cfg.device_loss, 0.004);
  EXPECT_DOUBLE_EQ(cfg.watchdog_ms, 30.0);
  EXPECT_DOUBLE_EQ(cfg.stall_ms, 1.5);
  EXPECT_EQ(cfg.max_faults, 9u);
  EXPECT_EQ(cfg.hot_stream, 2);
  EXPECT_DOUBLE_EQ(cfg.hot_stream_factor, 8.0);

  EXPECT_THROW(gpusim::parse_fault_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW(gpusim::parse_fault_spec("flip"), std::invalid_argument);
  EXPECT_THROW(gpusim::parse_fault_spec("flip=abc"), std::invalid_argument);
}

TEST(FaultInjection, SpecParserReadsIntegersExactly) {
  // Integer keys are read as integers, not through a double: 2^53 + 1 and
  // 2^64 - 1 survive unrounded.
  EXPECT_EQ(gpusim::parse_fault_spec("seed=9007199254740993").seed,
            9007199254740993ull);
  EXPECT_EQ(gpusim::parse_fault_spec("seed=18446744073709551615").seed,
            std::numeric_limits<std::uint64_t>::max());
  // The CI smokes' specs.
  const gpusim::FaultConfig smoke =
      gpusim::parse_fault_spec("seed=7,launch=0.3,max=50");
  EXPECT_EQ(smoke.seed, 7u);
  EXPECT_EQ(smoke.launch_failure, 0.3);
  EXPECT_EQ(smoke.max_faults, 50u);
  const gpusim::FaultConfig flips =
      gpusim::parse_fault_spec("seed=7,launch=0.05,flip=1e-4");
  EXPECT_EQ(flips.launch_failure, 0.05);
  EXPECT_EQ(flips.bit_flip_per_load, 1e-4);
}

TEST(FaultInjection, SpecParserRejectsOutOfRangeIntegersNamingTheKey) {
  // A negative budget used to wrap to an unbounded one, and a huge hot
  // stream was an out-of-range float-to-int conversion.
  for (const auto& [spec, key] :
       {std::pair{"max=-1", "'max'"}, std::pair{"hot=1e12", "'hot'"},
        std::pair{"seed=18446744073709551616", "'seed'"},
        std::pair{"max=1.5", "'max'"}, std::pair{"flip=nan", "'flip'"}}) {
    try {
      gpusim::parse_fault_spec(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultInjection, InjectorDrawsArePureFunctionsOfTheKey) {
  gpusim::FaultConfig cfg = seeded_faults(77);
  cfg.launch_failure = 0.3;
  cfg.bit_flip_per_load = 0.3;
  const gpusim::FaultInjector a(cfg);
  const gpusim::FaultInjector b(cfg);
  for (int stream = 0; stream < 3; ++stream) {
    for (std::uint64_t launch = 1; launch <= 20; ++launch) {
      EXPECT_EQ(a.launch_fault(stream, launch), b.launch_fault(stream, launch));
      const auto da = a.load_fault(stream, launch, 5, 17);
      const auto db = b.load_fault(stream, launch, 5, 17);
      EXPECT_EQ(da.inject, db.inject);
      EXPECT_EQ(da.correctable, db.correctable);
      EXPECT_EQ(da.lane, db.lane);
      EXPECT_EQ(da.bit, db.bit);
    }
  }
  // A different seed yields a different plan somewhere in the key space.
  gpusim::FaultConfig other = cfg;
  other.seed = 78;
  const gpusim::FaultInjector c(other);
  bool differs = false;
  for (std::uint64_t launch = 1; launch <= 200 && !differs; ++launch) {
    differs = a.launch_fault(0, launch) != c.launch_fault(0, launch);
  }
  EXPECT_TRUE(differs);
}

// --- heterogeneous (hot-stream) fault pressure ------------------------------

TEST(FaultInjection, HotStreamScalesLaunchFaultsOnThatStreamOnly) {
  gpusim::FaultConfig cfg = seeded_faults(55);
  cfg.launch_failure = 0.02;

  gpusim::FaultConfig hot = cfg;
  hot.hot_stream = 1;
  hot.hot_stream_factor = 8.0;
  // A factor with no stream selected must be inert (the default shape).
  gpusim::FaultConfig inert = cfg;
  inert.hot_stream_factor = 8.0;

  const gpusim::FaultInjector base(cfg);
  const gpusim::FaultInjector biased(hot);
  const gpusim::FaultInjector unselected(inert);

  std::array<int, 2> base_hits{};
  std::array<int, 2> biased_hits{};
  constexpr std::uint64_t kLaunches = 4000;
  for (int stream = 0; stream < 2; ++stream) {
    for (std::uint64_t launch = 1; launch <= kLaunches; ++launch) {
      base_hits[static_cast<std::size_t>(stream)] +=
          base.launch_fault(stream, launch).has_value() ? 1 : 0;
      biased_hits[static_cast<std::size_t>(stream)] +=
          biased.launch_fault(stream, launch).has_value() ? 1 : 0;
      EXPECT_EQ(base.launch_fault(stream, launch),
                unselected.launch_fault(stream, launch));
    }
  }
  // The cold stream is untouched: the bias scales the hot stream's accept
  // threshold over the SAME underlying uniforms, so every baseline fault
  // also fires under bias and the cold plan is bit-identical.
  EXPECT_EQ(biased_hits[0], base_hits[0]);
  EXPECT_GE(biased_hits[1], base_hits[1]);
  // And the hot stream sees roughly hot_stream_factor x the pressure.
  EXPECT_GT(biased_hits[1], 4 * base_hits[1]);
}

TEST(FaultInjection, HotStreamLeavesBitFlipDrawsUntouched) {
  gpusim::FaultConfig cfg = seeded_faults(56);
  cfg.bit_flip_per_load = 0.05;
  gpusim::FaultConfig hot = cfg;
  hot.hot_stream = 0;
  hot.hot_stream_factor = 16.0;
  const gpusim::FaultInjector base(cfg);
  const gpusim::FaultInjector biased(hot);
  for (std::uint64_t op = 0; op < 500; ++op) {
    const auto a = base.load_fault(/*stream=*/0, /*launch=*/3, /*task=*/2, op);
    const auto b = biased.load_fault(0, 3, 2, op);
    EXPECT_EQ(a.inject, b.inject);
    EXPECT_EQ(a.correctable, b.correctable);
    EXPECT_EQ(a.lane, b.lane);
    EXPECT_EQ(a.bit, b.bit);
  }
}

// --- a served batch ---------------------------------------------------------

TEST(FaultInjection, BatchRecoversPerQueryAndKeepsDistancesExact) {
  const Csr csr = chaos_graph();
  const std::vector<VertexId> sources = {0, 5, 11, 42, 113, 250};

  core::QueryServerOptions options;
  options.batch.streams = 3;
  options.batch.gpu.delta0 = 120.0;
  options.batch.gpu.fault = seeded_faults(19);
  options.batch.gpu.fault.launch_failure = 0.1;
  options.batch.gpu.fault.max_faults = 3;
  core::QueryServer server(csr, gpusim::test_device(), options);

  const core::StreamResult result =
      server.run_stream(core::batch_schedule(sources));
  ASSERT_EQ(result.queries.size(), sources.size());
  EXPECT_EQ(result.failed_queries, 0u);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(result.queries[i].ok);
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, sources[i]).distances);
  }
  EXPECT_EQ(result.recovery.faults_injected, 3u);
}

// --- deadlines x fault classes (docs/serving.md) ----------------------------

// A hung kernel charges the watchdog budget, which blows straight through a
// tighter serving deadline. The deadline must dominate the RetryPolicy: the
// poisoned attempt is terminal — no backoff charge, no further attempts, no
// CPU fallback (a late answer is no answer) — and the result reports
// deadline_exceeded, not a recovery.
TEST(FaultInjection, WatchdogTimeoutRacingDeadlineEndsRecoveryImmediately) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg = seeded_faults(23);
  cfg.timeout = 1.0;      // the first launch hangs...
  cfg.max_faults = 1;     // ...and only the first
  cfg.watchdog_ms = 5.0;  // hang detected after 5 ms

  gpusim::GpuSim sim(gpusim::test_device());
  sim.enable_fault_injection(cfg);
  const core::DeviceCsrBuffers graph_bufs =
      core::DeviceCsrBuffers::upload(sim, csr);
  core::GpuSsspOptions options;
  options.delta0 = 120.0;
  options.pro = false;  // the caller's CSR as-is
  options.retry.max_attempts = 3;
  options.retry.cpu_fallback = true;  // would rescue it — must not fire
  core::GpuDeltaStepping engine({sim, /*stream=*/0, graph_bufs}, csr, options);

  const core::CancelToken token(sim, /*stream=*/0, /*deadline_ms=*/2.0);
  engine.driver().set_cancel_token(&token);
  const core::GpuRunResult result = engine.run(7);

  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.deadline_exceeded);
  EXPECT_TRUE(result.sssp.distances.empty());
  EXPECT_EQ(result.recovery.attempts, 1u);       // terminal on the race
  EXPECT_EQ(result.recovery.cpu_fallbacks, 0u);  // no late fallback
  EXPECT_DOUBLE_EQ(result.recovery.backoff_ms, 0.0);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].cls, gpusim::FaultClass::kTimeout);
  // The watchdog charge is exactly what pushed the stream past 2 ms.
  EXPECT_GE(sim.stream_elapsed_ms(0), cfg.watchdog_ms);
}

// Device loss hitting the probe query of a half-open breaker: the probe is
// a fault outcome, so the breaker reopens — and because a lost device
// latches the whole shared simulator, the query itself is rescued by the
// CPU fallback with exact distances.
TEST(FaultInjection, DeviceLossDuringHalfOpenProbeReopensTheBreaker) {
  const Csr csr = chaos_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 120.0;
  // Zero cool-down: the tripped lane is probe-eligible at the very next
  // dispatch (the simulated clock only advances with work, so a nonzero
  // cool-down would interleave with the warm-up batch nondeterministically).
  options.breaker.cooldown_ms = 0.0;
  options.hedge_to_cpu = false;
  core::QueryServer server(csr, gpusim::test_device(), options);

  // Stage: a clean warm-up query, then trip the (only) lane.
  const core::StreamResult warm_result =
      server.run_stream(core::batch_schedule(std::vector<VertexId>{5}));
  ASSERT_EQ(warm_result.ok_queries, 1u);
  server.trip_lane(0);
  ASSERT_EQ(server.breaker_state(0), core::BreakerState::kOpen);

  // Now every launch loses the device. The next dispatch finds lane 0
  // cooled down, probes it half-open, and the probe hits the loss.
  gpusim::FaultConfig cfg = seeded_faults(29);
  cfg.device_loss = 1.0;
  cfg.max_faults = 1;
  server.batch().sim().enable_fault_injection(cfg);

  const core::StreamResult result =
      server.run_stream(core::batch_schedule(std::vector<VertexId>{11}));

  EXPECT_EQ(server.breaker_state(0), core::BreakerState::kOpen);
  ASSERT_EQ(result.breaker_events.size(), 3u);
  EXPECT_EQ(result.breaker_events[0].transition,
            core::BreakerTransition::kOpen);  // the manual trip
  EXPECT_EQ(result.breaker_events[1].lane, 0);
  EXPECT_EQ(result.breaker_events[1].transition,
            core::BreakerTransition::kHalfOpen);
  EXPECT_EQ(result.breaker_events[2].lane, 0);
  EXPECT_EQ(result.breaker_events[2].transition,
            core::BreakerTransition::kReopen);
  EXPECT_TRUE(result.recovery.device_lost);
  EXPECT_EQ(result.fallback_queries, 1u);
  EXPECT_EQ(result.stats[0].query.status, core::QueryStatus::kCpuFallback);
  EXPECT_EQ(result.queries[0].sssp.distances,
            sssp::dijkstra(csr, 11).distances);
}

// --- checkpoint-resume (docs/serving.md "Checkpoint-resume") ---------------

// With checkpointing on, retries seed from the last clean snapshot instead
// of restarting cold. Resumed recovery must still land on BIT-IDENTICAL
// distances — the checkpoint holds valid upper bounds (label-correcting
// argument), so this is the same exactness contract as a cold retry.
TEST(FaultInjection, CheckpointResumedRetriesRecoverExactDistances) {
  const Csr csr = chaos_graph();
  const std::vector<Distance> oracle = sssp::dijkstra(csr, 3).distances;

  gpusim::FaultConfig cfg = seeded_faults(12);
  cfg.bit_flip_per_load = 0.01;
  cfg.correctable_fraction = 0.0;  // every flip poisons -> retries
  core::RetryPolicy retry;
  retry.max_attempts = 6;

  std::uint64_t resumed_total = 0;
  for (const std::string_view name : {"rdbs", "adds"}) {
    core::GpuRunResult result;
    if (name == "rdbs") {
      core::GpuSsspOptions options;
      options.delta0 = 120.0;
      options.fault = cfg;
      options.retry = retry;
      options.checkpoint_interval = 1;
      core::RdbsSolver solver(csr, gpusim::test_device(), options);
      result = solver.solve(3);
    } else {
      core::AddsOptions options;
      options.delta = 120.0;
      options.fault = cfg;
      options.retry = retry;
      options.checkpoint_interval = 1;
      core::AddsLike eng(gpusim::test_device(), csr, options);
      result = eng.run(3);
    }
    ASSERT_TRUE(result.ok) << name;
    EXPECT_GT(result.recovery.retries, 0u) << name;
    EXPECT_EQ(result.sssp.distances, oracle) << name;
    resumed_total += result.recovery.resumed;
  }
  // At least one retry across the two engines must have been seeded from a
  // checkpoint (the fault plan guarantees mid-run poisons past bucket 1).
  EXPECT_GT(resumed_total, 0u);
}

// Checkpointing costs simulated D2H time but never changes the answer.
TEST(FaultInjection, CheckpointingChargesTheClockAndKeepsDistancesExact) {
  const Csr csr = chaos_graph();
  core::GpuSsspOptions base;
  base.delta0 = 120.0;

  core::RdbsSolver cold(csr, gpusim::test_device(), base);
  const core::GpuRunResult without = cold.solve(7);

  core::GpuSsspOptions ck = base;
  ck.checkpoint_interval = 2;
  core::RdbsSolver snap(csr, gpusim::test_device(), ck);
  const core::GpuRunResult with = snap.solve(7);

  EXPECT_EQ(with.sssp.distances, without.sssp.distances);
  EXPECT_GT(with.device_ms, without.device_ms);
  EXPECT_EQ(with.recovery.resumed, 0u);  // no faults -> nothing to resume
}

// The resume path must be as deterministic as everything else: same seed,
// same resumed count, same fault plan, same distances on every rerun.
TEST(FaultInjection, CheckpointResumeBitIdenticalAcrossReruns) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg = seeded_faults(18);
  cfg.bit_flip_per_load = 0.008;
  cfg.correctable_fraction = 0.0;
  core::RetryPolicy retry;
  retry.max_attempts = 6;

  std::vector<core::GpuRunResult> results;
  for (int run = 0; run < 2; ++run) {
    core::GpuSsspOptions options;
    options.delta0 = 120.0;
    options.fault = cfg;
    options.retry = retry;
    options.checkpoint_interval = 1;
    core::RdbsSolver solver(csr, gpusim::test_device(), options);
    results.push_back(solver.solve(9));
  }
  EXPECT_EQ(results[0].recovery.resumed, results[1].recovery.resumed);
  EXPECT_EQ(results[0].recovery.retries, results[1].recovery.retries);
  EXPECT_EQ(results[0].device_ms, results[1].device_ms);
  EXPECT_EQ(fault_plan(results[0]), fault_plan(results[1]));
  EXPECT_EQ(results[0].sssp.distances, results[1].sssp.distances);
}

}  // namespace
}  // namespace rdbs
