// gfi chaos harness (docs/fault_injection.md).
//
// The load-bearing property: every engine family, under every fault class,
// either recovers to BIT-IDENTICAL distances vs the fault-free run (which
// the suite anchors to Dijkstra) or returns a typed failure — never wrong
// distances, never a crash. Fault plans are pure functions of the config
// seed and the record-phase counters, so the injected fault log must be
// byte-identical across sim_threads, and a failing chaos run replays
// exactly from its seed.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/adds.hpp"
#include "core/gpu_sssp.hpp"
#include "core/rdbs.hpp"
#include "core/gunrock_like.hpp"
#include "core/legacy_gpu.hpp"
#include "core/multi_gpu.hpp"
#include "core/cancel.hpp"
#include "core/device_graph.hpp"
#include "core/query_batch.hpp"
#include "core/query_server.hpp"
#include "core/sep_hybrid.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/sim.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::Distance;
using graph::VertexId;

Csr chaos_graph() { return test::random_powerlaw_graph(300, 2200, /*seed=*/9); }

// One named fault plan per fault class the acceptance sweep requires.
struct FaultScenario {
  std::string name;
  gpusim::FaultConfig cfg;
};

std::vector<FaultScenario> fault_scenarios() {
  std::vector<FaultScenario> scenarios;
  auto make = [](std::uint64_t seed) {
    gpusim::FaultConfig cfg;
    cfg.enabled = true;
    cfg.seed = seed;
    return cfg;
  };
  {
    FaultScenario s{"flip_correctable", make(11)};
    s.cfg.bit_flip_per_load = 0.01;
    s.cfg.correctable_fraction = 1.0;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"flip_uncorrectable", make(12)};
    s.cfg.bit_flip_per_load = 0.01;
    s.cfg.correctable_fraction = 0.0;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"launch_failure", make(13)};
    s.cfg.launch_failure = 0.15;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"timeout", make(14)};
    s.cfg.timeout = 0.15;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"stream_stall", make(15)};
    s.cfg.stream_stall = 0.5;
    scenarios.push_back(s);
  }
  {
    FaultScenario s{"device_loss", make(16)};
    s.cfg.device_loss = 0.25;
    scenarios.push_back(s);
  }
  return scenarios;
}

// Engine families the sweep covers. MultiGpu and QueryBatch have their own
// result shapes and are exercised by dedicated tests below.
enum class Engine {
  kRdbs,
  kBaseline,
  kAdds,
  kGunrock,
  kSepHybrid,
  kHarishNarayanan,
  kDavidson,
};

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kRdbs: return "rdbs";
    case Engine::kBaseline: return "baseline";
    case Engine::kAdds: return "adds";
    case Engine::kGunrock: return "gunrock";
    case Engine::kSepHybrid: return "sep";
    case Engine::kHarishNarayanan: return "hn07";
    case Engine::kDavidson: return "davidson";
  }
  return "?";
}

std::vector<Engine> all_engines() {
  return {Engine::kRdbs,      Engine::kBaseline,
          Engine::kAdds,      Engine::kGunrock,
          Engine::kSepHybrid, Engine::kHarishNarayanan,
          Engine::kDavidson};
}

core::GpuRunResult run_engine(Engine engine, const Csr& csr, VertexId source,
                              const gpusim::FaultConfig& fault,
                              const core::RetryPolicy& retry,
                              int sim_threads = 0) {
  switch (engine) {
    case Engine::kRdbs: {
      core::GpuSsspOptions options;
      options.delta0 = 120.0;
      options.sim_threads = sim_threads;
      options.fault = fault;
      options.retry = retry;
      core::RdbsSolver solver(csr, gpusim::test_device(), options);
      return solver.solve(source);
    }
    case Engine::kBaseline: {
      core::GpuSsspOptions options;
      options.mode = core::EngineMode::kSyncPushBellmanFord;
      options.basyn = false;
      options.pro = false;
      options.adwl = false;
      options.sim_threads = sim_threads;
      options.fault = fault;
      options.retry = retry;
      core::RdbsSolver solver(csr, gpusim::test_device(), options);
      return solver.solve(source);
    }
    case Engine::kAdds: {
      core::AddsOptions options;
      options.delta = 120.0;
      options.sim_threads = sim_threads;
      options.fault = fault;
      options.retry = retry;
      core::AddsLike eng(gpusim::test_device(), csr, options);
      return eng.run(source);
    }
    case Engine::kGunrock: {
      core::gunrock::GunrockSsspOptions options;
      options.fault = fault;
      options.retry = retry;
      return core::gunrock::sssp(gpusim::test_device(), csr, source, options);
    }
    case Engine::kSepHybrid: {
      core::SepHybridOptions options;
      options.fault = fault;
      options.retry = retry;
      core::SepHybrid eng(gpusim::test_device(), csr, options);
      return eng.run(source).gpu;
    }
    case Engine::kHarishNarayanan: {
      core::HarishNarayanan eng(gpusim::test_device(), csr,
                                gpusim::SanitizeMode::kOff, fault, retry);
      return eng.run(source);
    }
    case Engine::kDavidson: {
      core::DavidsonOptions options;
      options.delta = 120.0;
      options.fault = fault;
      options.retry = retry;
      core::DavidsonNearFar eng(gpusim::test_device(), csr, options);
      return eng.run(source);
    }
  }
  return {};
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

  for (const Engine engine : all_engines()) {
    // Fault-free baseline is bit-identical to Dijkstra (anchors the sweep).
    {
      const core::GpuRunResult clean =
          run_engine(engine, csr, source, gpusim::FaultConfig{}, retry);
      ASSERT_TRUE(clean.ok) << engine_name(engine);
      ASSERT_EQ(clean.sssp.distances, oracle) << engine_name(engine);
      ASSERT_TRUE(clean.faults.empty()) << engine_name(engine);
    }
    for (const FaultScenario& scenario : fault_scenarios()) {
      SCOPED_TRACE(std::string(engine_name(engine)) + " x " + scenario.name);
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

TEST(FaultInjection, FaultPlanByteIdenticalAcrossSimThreads) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 99;
  cfg.bit_flip_per_load = 0.02;
  cfg.correctable_fraction = 0.5;
  cfg.launch_failure = 0.05;
  cfg.stream_stall = 0.05;
  cfg.max_faults = 8;
  core::RetryPolicy retry;
  retry.max_attempts = 5;

  for (const Engine engine : {Engine::kRdbs, Engine::kAdds}) {
    const core::GpuRunResult serial =
        run_engine(engine, csr, /*source=*/3, cfg, retry, /*sim_threads=*/1);
    const core::GpuRunResult parallel =
        run_engine(engine, csr, /*source=*/3, cfg, retry, /*sim_threads=*/8);
    EXPECT_EQ(fault_plan(serial), fault_plan(parallel))
        << engine_name(engine);
    EXPECT_EQ(serial.sssp.distances, parallel.sssp.distances);
    EXPECT_EQ(serial.recovery.retries, parallel.recovery.retries);
    EXPECT_EQ(serial.recovery.cpu_fallbacks, parallel.recovery.cpu_fallbacks);
  }
}

TEST(FaultInjection, RerunningTheSameSeedReplaysTheSamePlan) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 4242;
  cfg.launch_failure = 0.2;
  core::RetryPolicy retry;
  const core::GpuRunResult a = run_engine(Engine::kRdbs, csr, 1, cfg, retry);
  const core::GpuRunResult b = run_engine(Engine::kRdbs, csr, 1, cfg, retry);
  EXPECT_EQ(fault_plan(a), fault_plan(b));
  EXPECT_EQ(a.sssp.distances, b.sssp.distances);
  EXPECT_DOUBLE_EQ(a.device_ms, b.device_ms);
}

// --- retry / fallback semantics --------------------------------------------

TEST(FaultInjection, CertainLaunchFailureRetriesUntilBudgetExhausts) {
  const Csr csr = test::paper_figure1_graph();
  const std::vector<Distance> oracle = sssp::dijkstra(csr, 0).distances;

  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 5;
  cfg.launch_failure = 1.0;  // every launch fails...
  cfg.max_faults = 2;        // ...until the budget runs dry
  core::RetryPolicy retry;
  retry.max_attempts = 5;

  const core::GpuRunResult result =
      run_engine(Engine::kRdbs, csr, 0, cfg, retry);
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
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 5;
  cfg.launch_failure = 1.0;
  cfg.max_faults = 1;
  core::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_ms = 1.5;

  const core::GpuRunResult faulted =
      run_engine(Engine::kRdbs, csr, 0, cfg, retry);
  const core::GpuRunResult clean =
      run_engine(Engine::kRdbs, csr, 0, gpusim::FaultConfig{}, retry);
  ASSERT_TRUE(faulted.ok);
  EXPECT_EQ(faulted.recovery.retries, 1u);
  // One failed attempt + the backoff + the clean rerun: the recovered run
  // must be visibly more expensive than the fault-free one.
  EXPECT_GE(faulted.device_ms, clean.device_ms + retry.backoff_ms);
}

TEST(FaultInjection, StreamStallIsBenignButCharged) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 21;
  cfg.stream_stall = 1.0;  // every launch stalls, up to the budget
  cfg.stall_ms = 3.0;
  core::RetryPolicy retry;

  const core::GpuRunResult stalled =
      run_engine(Engine::kRdbs, csr, 2, cfg, retry);
  const core::GpuRunResult clean =
      run_engine(Engine::kRdbs, csr, 2, gpusim::FaultConfig{}, retry);
  ASSERT_TRUE(stalled.ok);
  EXPECT_EQ(stalled.recovery.retries, 0u);  // stalls never poison
  EXPECT_EQ(stalled.recovery.faults_injected, cfg.max_faults);
  EXPECT_EQ(stalled.sssp.distances, clean.sssp.distances);
  EXPECT_GE(stalled.device_ms,
            clean.device_ms + cfg.stall_ms * double(cfg.max_faults) - 1e-9);
}

TEST(FaultInjection, CorrectableFlipsAreCountedButHarmless) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 31;
  cfg.bit_flip_per_load = 1.0;
  cfg.correctable_fraction = 1.0;
  core::RetryPolicy retry;

  const core::GpuRunResult result =
      run_engine(Engine::kAdds, csr, 2, cfg, retry);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.recovery.retries, 0u);
  EXPECT_EQ(result.recovery.faults_injected, cfg.max_faults);
  EXPECT_EQ(result.recovery.ecc_corrected, cfg.max_faults);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 2).distances);
}

TEST(FaultInjection, DeviceLossFallsBackToHostDijkstra) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 41;
  cfg.device_loss = 1.0;
  core::RetryPolicy retry;

  for (const Engine engine : all_engines()) {
    SCOPED_TRACE(engine_name(engine));
    const core::GpuRunResult result = run_engine(engine, csr, 4, cfg, retry);
    ASSERT_TRUE(result.ok);
    EXPECT_TRUE(result.recovery.device_lost);
    EXPECT_EQ(result.recovery.cpu_fallbacks, 1u);
    EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 4).distances);
  }
}

TEST(FaultInjection, NoFallbackPolicyReturnsTypedFailure) {
  const Csr csr = test::paper_figure1_graph();
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 41;
  cfg.device_loss = 1.0;
  core::RetryPolicy retry;
  retry.cpu_fallback = false;

  const core::GpuRunResult result =
      run_engine(Engine::kRdbs, csr, 0, cfg, retry);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.recovery.device_lost);
  EXPECT_TRUE(result.sssp.distances.empty());
  ASSERT_FALSE(result.faults.empty());
  EXPECT_EQ(result.faults.back().cls, gpusim::FaultClass::kDeviceLoss);
}

TEST(FaultInjection, InvalidSourceThrowsInsteadOfAborting) {
  const Csr csr = test::paper_figure1_graph();
  const VertexId bad = csr.num_vertices();
  core::RdbsSolver rdbs(csr, gpusim::test_device(), core::GpuSsspOptions{});
  EXPECT_THROW(rdbs.solve(bad), std::out_of_range);
  core::AddsLike adds(gpusim::test_device(), csr, core::AddsOptions{});
  EXPECT_THROW(adds.run(bad), std::out_of_range);
  core::SepHybrid sep(gpusim::test_device(), csr);
  EXPECT_THROW(sep.run(bad), std::out_of_range);
  core::HarishNarayanan hn(gpusim::test_device(), csr);
  EXPECT_THROW(hn.run(bad), std::out_of_range);
  EXPECT_THROW(core::gunrock::sssp(gpusim::test_device(), csr, bad),
               std::out_of_range);
}

// --- simulator-level behavior ----------------------------------------------

TEST(FaultInjection, DeviceLossLatchesAcrossResetUntilRevived) {
  gpusim::GpuSim sim(gpusim::test_device());
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 3;
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
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 3;
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
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 77;
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
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 55;
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
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 56;
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

// --- MultiGpu ---------------------------------------------------------------

TEST(FaultInjection, MultiGpuShardLossDegradesToExactDistances) {
  const Csr csr = test::random_grid_graph(18, /*seed=*/5);
  core::MultiGpuOptions options;
  options.num_devices = 3;
  options.fault.enabled = true;
  options.fault.seed = 8;
  options.fault.device_loss = 1.0;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);

  const core::MultiGpuRunResult result = engine.run(0);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.recovery.device_lost);
  EXPECT_EQ(result.recovery.cpu_fallbacks, 1u);
  EXPECT_TRUE(engine.any_device_lost());
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 0).distances);
  ASSERT_FALSE(result.faults.empty());
}

TEST(FaultInjection, MultiGpuFaultsCarryTheShardIndex) {
  const Csr csr = test::random_grid_graph(18, /*seed=*/5);
  core::MultiGpuOptions options;
  options.num_devices = 2;
  options.fault.enabled = true;
  options.fault.seed = 8;
  options.fault.launch_failure = 0.4;
  options.fault.max_faults = 6;
  options.retry.max_attempts = 6;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);

  const core::MultiGpuRunResult result = engine.run(0);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 0).distances);
  for (const gpusim::GpuFault& f : result.faults) {
    EXPECT_GE(f.device, 0);
    EXPECT_LT(f.device, options.num_devices);
  }
}

// --- QueryBatch -------------------------------------------------------------

TEST(FaultInjection, BatchRecoversPerQueryAndKeepsDistancesExact) {
  const Csr csr = chaos_graph();
  const std::vector<VertexId> sources = {0, 5, 11, 42, 113, 250};

  core::QueryBatchOptions options;
  options.streams = 3;
  options.gpu.delta0 = 120.0;
  options.gpu.fault.enabled = true;
  options.gpu.fault.seed = 19;
  options.gpu.fault.launch_failure = 0.1;
  options.gpu.fault.max_faults = 3;
  core::QueryBatch batch(csr, gpusim::test_device(), options);

  const core::BatchResult result = batch.run(sources);
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
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 23;
  cfg.timeout = 1.0;      // the first launch hangs...
  cfg.max_faults = 1;     // ...and only the first
  cfg.watchdog_ms = 5.0;  // hang detected after 5 ms

  gpusim::GpuSim sim(gpusim::test_device());
  sim.enable_fault_injection(cfg);
  const core::DeviceCsrBuffers graph_bufs =
      core::DeviceCsrBuffers::upload(sim, csr);
  core::GpuSsspOptions options;
  options.delta0 = 120.0;
  options.pro = false;  // shared-sim ctor: keep the caller's CSR as-is
  options.fault = cfg;
  options.retry.max_attempts = 3;
  options.retry.cpu_fallback = true;  // would rescue it — must not fire
  core::GpuDeltaStepping engine(sim, /*stream=*/0, csr, options, &graph_bufs);

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
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 29;
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

  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 12;
  cfg.bit_flip_per_load = 0.01;
  cfg.correctable_fraction = 0.0;  // every flip poisons -> retries
  core::RetryPolicy retry;
  retry.max_attempts = 6;

  std::uint64_t resumed_total = 0;
  for (const Engine engine : {Engine::kRdbs, Engine::kAdds}) {
    core::GpuRunResult result;
    if (engine == Engine::kRdbs) {
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
    ASSERT_TRUE(result.ok) << engine_name(engine);
    EXPECT_GT(result.recovery.retries, 0u) << engine_name(engine);
    EXPECT_EQ(result.sssp.distances, oracle) << engine_name(engine);
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
// same resumed count, same fault plan, same distances for any sim_threads.
TEST(FaultInjection, CheckpointResumeBitIdenticalAcrossSimThreads) {
  const Csr csr = chaos_graph();
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 18;
  cfg.bit_flip_per_load = 0.008;
  cfg.correctable_fraction = 0.0;
  core::RetryPolicy retry;
  retry.max_attempts = 6;

  std::vector<core::GpuRunResult> results;
  for (const int sim_threads : {1, 8}) {
    core::GpuSsspOptions options;
    options.delta0 = 120.0;
    options.sim_threads = sim_threads;
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
