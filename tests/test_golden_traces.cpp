// Golden-trace regression anchors (ISSUE 4 satellite).
//
// Fixed (engine, graph, seed) triples snapshot their full Counters, recovery
// bookkeeping, simulated clock and final distances into checked-in golden
// files. Any change to the cost
// model, the memory model, an engine's kernel structure, or the graph
// generators shows up here as a readable diff instead of a silent drift.
//
// Regenerate intentionally with:
//   RDBS_UPDATE_GOLDEN=1 ./tests/test_golden_traces
// and commit the updated files under tests/golden/ with an explanation.
//
// Distances are serialized as C++ hexfloats, so the comparison is exact
// (bit-identical), matching the determinism contract in docs/costmodel.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/adds.hpp"
#include "core/gunrock_like.hpp"
#include "core/legacy_gpu.hpp"
#include "core/query_server.hpp"
#include "core/rdbs.hpp"
#include "core/sep_hybrid.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/result.hpp"
#include "test_util.hpp"

#ifndef RDBS_GOLDEN_DIR
#error "tests/CMakeLists.txt must define RDBS_GOLDEN_DIR"
#endif

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;

std::string serialize_trace(const core::GpuRunResult& result) {
  std::ostringstream out;
  out << test::counters_text(result.counters);
  // Recovery bookkeeping and the simulated clock: the per-attempt metric
  // accounting (deltas, backoff, re-upload and checkpoint charges) must
  // not drift either.
  const core::RecoveryStats& r = result.recovery;
  out << "ok " << result.ok << '\n'
      << "recovery_attempts " << r.attempts << '\n'
      << "recovery_retries " << r.retries << '\n'
      << "recovery_resumed " << r.resumed << '\n'
      << "recovery_cpu_fallbacks " << r.cpu_fallbacks << '\n'
      << "recovery_faults_injected " << r.faults_injected << '\n'
      << "recovery_ecc_corrected " << r.ecc_corrected << '\n'
      << "recovery_device_lost " << r.device_lost << '\n';
  // The functional work counters Fig. 9's redundancy is built from.
  const sssp::WorkStats& w = result.sssp.work;
  out << "work_relaxations " << w.relaxations << '\n'
      << "work_total_updates " << w.total_updates << '\n'
      << "work_valid_updates " << w.valid_updates << '\n'
      << "work_iterations " << w.iterations << '\n';
  out << std::hexfloat;
  out << "device_ms " << result.device_ms << '\n'
      << "queue_wait_ms " << result.queue_wait_ms << '\n'
      << "recovery_backoff_ms " << r.backoff_ms << '\n';
  out << "sanitizer_report\n" << result.sanitizer_report;
  out << "distances " << result.sssp.distances.size() << '\n';
  for (const graph::Distance d : result.sssp.distances) out << d << '\n';
  return out.str();
}

// A fault plan that fails the first launches of a run and flips loaded
// distances uncorrectably, so the snapshotted run recovers through at least
// one discarded attempt.
gpusim::FaultConfig retry_forcing_faults(std::uint64_t seed) {
  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  cfg.launch_failure = 0.2;
  cfg.bit_flip_per_load = 0.002;
  cfg.correctable_fraction = 0.0;
  cfg.max_faults = 3;
  return cfg;
}

core::RetryPolicy golden_retry() {
  core::RetryPolicy retry;
  retry.max_attempts = 6;
  return retry;
}

void check_against_golden(const std::string& name,
                          const core::GpuRunResult& result) {
  test::expect_matches_golden(
      std::string(RDBS_GOLDEN_DIR) + "/" + name + ".txt",
      serialize_trace(result));
}

// Triple 1: the full RDBS configuration (BASYN+PRO+ADWL) on a power-law
// graph — the paper's flagship path.
TEST(GoldenTraces, RdbsFullOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/201);
  core::GpuSsspOptions options;
  options.delta0 = 150.0;
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  check_against_golden("rdbs_powerlaw_300_s201", solver.solve(5));
}

// RDBS without PRO: BASYN+ADWL on the original layout, so every light edge
// pays the per-edge weight test, in the parent warps' sweep and in the
// child chunks, and phases 2&3 run fused.
TEST(GoldenTraces, RdbsBasynAdwlWithoutProOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/210);
  core::GpuSsspOptions options;
  options.delta0 = 150.0;
  options.pro = false;
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  const core::GpuRunResult result = solver.solve(5);
  ASSERT_GT(result.counters.child_launches, 0u);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 5).distances);
  check_against_golden("rdbs_nopro_powerlaw_300_s210", result);
}

// Synchronous Δ-stepping (all three optimizations off): phase1_sync's
// per-iteration launches and separate phase-2 and phase-3 kernels.
TEST(GoldenTraces, SyncDeltaSteppingOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/211);
  core::GpuSsspOptions options;
  options.delta0 = 150.0;
  options.basyn = false;
  options.pro = false;
  options.adwl = false;
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  const core::GpuRunResult result = solver.solve(5);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 5).distances);
  check_against_golden("sync_delta_powerlaw_300_s211", result);
}

// Triple 2: the paper's BL baseline (synchronous push Bellman-Ford) on a
// grid — exercises the non-bucketed kernel family.
TEST(GoldenTraces, BaselineBlOnGrid) {
  const Csr csr = test::random_grid_graph(16, /*seed=*/202);
  core::GpuSsspOptions options;
  options.mode = core::EngineMode::kSyncPushBellmanFord;
  options.basyn = false;
  options.pro = false;
  options.adwl = false;
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  check_against_golden("bl_grid_16_s202", solver.solve(0));
}

// Triple 3: the ADDS-like Near/Far comparator on a power-law graph —
// anchors the second engine family and its distinct kernel shapes.
TEST(GoldenTraces, AddsOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(250, 2000, /*seed=*/203);
  core::AddsOptions options;
  options.delta = 120.0;
  core::AddsLike engine(gpusim::test_device(), csr, options);
  check_against_golden("adds_powerlaw_250_s203", engine.run(7));
}

// Recovery anchors: every further engine family under a gfi plan that
// forces at least one retry, with gsan watching. They pin the attempt
// loop's metric accumulation, the re-upload charges and the per-engine
// device-buffer layout (gsan names buffers in its reports).
TEST(GoldenTraces, HarishNarayananRecoversOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(200, 1600, /*seed=*/205);
  core::EngineOptions options;
  options.sanitize = gpusim::SanitizeMode::kOn;
  options.fault = retry_forcing_faults(205);
  options.retry = golden_retry();
  core::HarishNarayanan engine(gpusim::test_device(), csr, options);
  const core::GpuRunResult result = engine.run(3);
  ASSERT_GE(result.recovery.retries, 1u);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 3).distances);
  check_against_golden("hn07_powerlaw_200_s205", result);
}

TEST(GoldenTraces, DavidsonRecoversOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(200, 1600, /*seed=*/206);
  core::DavidsonOptions options;
  options.delta = 120.0;
  options.sanitize = gpusim::SanitizeMode::kOn;
  options.fault = retry_forcing_faults(206);
  options.retry = golden_retry();
  core::DavidsonNearFar engine(gpusim::test_device(), csr, options);
  const core::GpuRunResult result = engine.run(3);
  ASSERT_GE(result.recovery.retries, 1u);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 3).distances);
  check_against_golden("davidson_powerlaw_200_s206", result);
}

TEST(GoldenTraces, SepHybridRecoversOnGrid) {
  const Csr csr = test::random_grid_graph(14, /*seed=*/207);
  core::SepHybridOptions options;
  options.sanitize = gpusim::SanitizeMode::kOn;
  options.fault = retry_forcing_faults(207);
  options.retry = golden_retry();
  core::SepHybrid engine(gpusim::test_device(), csr, options);
  const core::GpuRunResult result = engine.run(0);
  ASSERT_GE(result.recovery.retries, 1u);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 0).distances);
  check_against_golden("sep_grid_14_s207", result);
}

TEST(GoldenTraces, GunrockRecoversOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(200, 1600, /*seed=*/208);
  core::gunrock::GunrockSsspOptions options;
  options.delta = 120.0;
  options.sanitize = gpusim::SanitizeMode::kOn;
  options.fault = retry_forcing_faults(208);
  options.retry = golden_retry();
  const core::GpuRunResult result =
      core::gunrock::sssp(gpusim::test_device(), csr, 3, options);
  ASSERT_GE(result.recovery.retries, 1u);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 3).distances);
  check_against_golden("gunrock_powerlaw_200_s208", result);
}

// Checkpoint-resume anchor: RDBS snapshots every bucket boundary, and a
// poisoned attempt's retry continues from the last clean snapshot.
TEST(GoldenTraces, RdbsCheckpointResumedRetry) {
  const Csr csr = test::random_powerlaw_graph(300, 2200, /*seed=*/209);
  core::GpuSsspOptions options;
  options.delta0 = 120.0;
  options.checkpoint_interval = 1;
  options.fault.enabled = true;
  options.fault.seed = 4;
  options.fault.bit_flip_per_load = 0.005;
  options.fault.correctable_fraction = 0.0;
  options.retry = golden_retry();
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  const core::GpuRunResult result = solver.solve(3);
  ASSERT_GE(result.recovery.resumed, 1u);
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 3).distances);
  check_against_golden("rdbs_checkpoint_300_s209", result);
}

// Triple 4: one QueryServer batch (a t=0 schedule) with every serving
// outcome in it — a recovered query, clean queries, a cooperative deadline
// cancellation with overrun-kernel accounting, and an admission-queue shed. Snapshots the serving decisions (status, finish
// time, overrun kernels, recovery counters) plus every produced distance
// vector, so a change to the scheduler, the cancellation points, the
// breaker bookkeeping or the cost model shows up as a readable diff.
TEST(GoldenTraces, QueryServerMixedOutcomeBatch) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/204);
  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.delta0 = 150.0;
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 204;
  // Every launch fails until the budget of 3 faults is spent. EDF runs the
  // tight-deadline query first; it takes two faults before it is
  // cancelled, and the third makes query 0 recover through a retry.
  options.batch.gpu.fault.launch_failure = 1.0;
  options.batch.gpu.fault.max_faults = 3;
  options.shed_on_overload = false;  // let the tight deadline run and cancel
  options.hedge_to_cpu = false;
  options.max_pending = 4;  // the 5th offered query is shed on arrival
  core::QueryServer server(csr, gpusim::test_device(), options);

  std::vector<core::TrafficQuery> queries =
      core::batch_schedule(std::vector<VertexId>{5, 17, 42, 113, 250});
  queries[2].deadline_ms = 1e-6;  // expires during its first kernels
  const core::StreamResult result = server.run_stream(queries);

  // The batch must actually be mixed, or the snapshot's name lies.
  ASSERT_EQ(result.recovered_queries, 1u);
  ASSERT_EQ(result.ok_queries, 2u);
  ASSERT_EQ(result.deadline_queries, 1u);
  ASSERT_EQ(result.shed_queries, 1u);
  ASSERT_GT(result.overrun_kernels, 0u);

  std::ostringstream out;
  out << std::hexfloat;
  out << "makespan_ms " << result.makespan_ms << '\n';
  out << "overrun_kernels " << result.overrun_kernels << '\n';
  out << "attempts " << result.recovery.attempts << '\n';
  out << "retries " << result.recovery.retries << '\n';
  out << "faults_injected " << result.recovery.faults_injected << '\n';
  out << "backoff_ms " << result.recovery.backoff_ms << '\n';
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const core::StreamQueryStats& sq = result.stats[i];
    out << "query " << i << ' '
        << core::query_status_name(sq.query.status) << " finish "
        << sq.finish_ms << " device " << sq.query.device_ms << " overrun "
        << sq.overrun_kernels << '\n';
    out << "distances " << result.queries[i].sssp.distances.size() << '\n';
    for (const graph::Distance d : result.queries[i].sssp.distances) {
      out << d << '\n';
    }
  }

  test::expect_matches_golden(
      std::string(RDBS_GOLDEN_DIR) + "/server_mixed_300_s204.txt", out.str());

  // And the anchor is correct, not just stable: completed distances are
  // oracle-exact.
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, queries[i].source).distances);
  }
}

// The anchors themselves must be correct, not just stable.
TEST(GoldenTraces, AnchoredRunsMatchDijkstra) {
  {
    const Csr csr = test::random_powerlaw_graph(300, 2400, 201);
    core::GpuSsspOptions options;
    options.delta0 = 150.0;
    core::RdbsSolver solver(csr, gpusim::test_device(), options);
    EXPECT_EQ(solver.solve(5).sssp.distances,
              sssp::dijkstra(csr, 5).distances);
  }
  {
    const Csr csr = test::random_grid_graph(16, 202);
    core::GpuSsspOptions options;
    options.mode = core::EngineMode::kSyncPushBellmanFord;
    options.basyn = false;
    options.pro = false;
    options.adwl = false;
    core::RdbsSolver solver(csr, gpusim::test_device(), options);
    EXPECT_EQ(solver.solve(0).sssp.distances,
              sssp::dijkstra(csr, 0).distances);
  }
  {
    const Csr csr = test::random_powerlaw_graph(250, 2000, 203);
    core::AddsOptions options;
    options.delta = 120.0;
    core::AddsLike engine(gpusim::test_device(), csr, options);
    EXPECT_EQ(engine.run(7).sssp.distances,
              sssp::dijkstra(csr, 7).distances);
  }
}

}  // namespace
}  // namespace rdbs
