// QueryBatch lanes and gpusim stream semantics.
//
// The load-bearing property is at the top: a batch of K sources, served as
// a t=0 schedule through QueryServer::run_stream, must be BIT-IDENTICAL to
// K sequential single-query runs, on every rerun and for every stream count —
// concurrent streams repartition simulated time, never functional state.
// The gpusim-level tests below pin the stream model itself: overlap
// shrinks elapsed time, the concurrent-kernel cap serializes and records
// queue wait, and a single-stream user sees exactly the pre-stream
// accounting.
#include <gtest/gtest.h>

#include <vector>

#include "core/query_batch.hpp"
#include "core/query_server.hpp"
#include "core/rdbs.hpp"
#include "core/traffic.hpp"
#include "gpusim/device.hpp"
#include "gpusim/sim.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;

Csr batch_test_graph() {
  return test::random_powerlaw_graph(400, 3000, /*seed=*/77);
}

std::vector<VertexId> batch_test_sources() { return {0, 17, 113, 256, 399}; }

// The served batch's device time with its queries run back-to-back.
double back_to_back_ms(const core::StreamResult& result) {
  double sum = 0;
  for (const core::StreamQueryStats& sq : result.stats) {
    sum += sq.query.device_ms;
  }
  return sum;
}

// --- recovery accounting ----------------------------------------------------

TEST(RecoveryStats, PlusEqualsSumsEveryFieldAndOrsDeviceLoss) {
  core::RecoveryStats total;
  total.faults_injected = 3;
  total.ecc_corrected = 1;
  total.retries = 2;
  total.resumed = 1;
  total.cpu_fallbacks = 0;
  total.attempts = 3;
  total.backoff_ms = 0.25;
  total.device_lost = false;

  core::RecoveryStats other;
  other.faults_injected = 5;
  other.ecc_corrected = 2;
  other.retries = 4;
  other.resumed = 3;
  other.cpu_fallbacks = 1;
  other.attempts = 5;
  other.backoff_ms = 0.5;
  other.device_lost = true;

  total += other;
  EXPECT_EQ(total.faults_injected, 8u);
  EXPECT_EQ(total.ecc_corrected, 3u);
  EXPECT_EQ(total.retries, 6u);
  EXPECT_EQ(total.resumed, 4u);
  EXPECT_EQ(total.cpu_fallbacks, 1u);
  EXPECT_EQ(total.attempts, 8u);
  EXPECT_EQ(total.backoff_ms, 0.75);
  EXPECT_TRUE(total.device_lost);

  // A lost device stays lost when a clean run is added.
  total += core::RecoveryStats{};
  EXPECT_TRUE(total.device_lost);
  EXPECT_EQ(total.attempts, 8u);
}

// --- batch determinism ------------------------------------------------------

TEST(QueryBatch, BatchBitIdenticalToSequentialAcrossRerunsAndStreams) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();

  core::GpuSsspOptions gpu;
  gpu.delta0 = 150.0;

  // Sequential reference: fresh solver per config is not even needed —
  // one solver, queries back-to-back, is the documented equivalence.
  std::vector<std::vector<graph::Distance>> reference;
  {
    core::RdbsSolver solver(csr, gpusim::test_device(), gpu);
    for (const VertexId s : sources) {
      reference.push_back(solver.solve(s).sssp.distances);
    }
  }
  // And it matches Dijkstra (anchors the whole test).
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(reference[i], sssp::dijkstra(csr, sources[i]).distances);
  }

  for (int run = 0; run < 2; ++run) {
    for (const int streams : {1, 4}) {
      core::QueryServerOptions options;
      options.batch.streams = streams;
      options.batch.gpu = gpu;
      core::QueryServer server(csr, gpusim::test_device(), options);
      const core::StreamResult result =
          server.run_stream(core::batch_schedule(sources));
      ASSERT_EQ(result.queries.size(), sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(result.queries[i].sssp.distances, reference[i])
            << "run " << run << " streams=" << streams
            << " query " << i << " (source " << sources[i] << ")";
      }
    }
  }
}

TEST(QueryBatch, RepeatedRunsOnPooledEnginesStayIdentical) {
  const Csr csr = batch_test_graph();
  const std::vector<core::TrafficQuery> schedule =
      core::batch_schedule(batch_test_sources());
  core::QueryServerOptions options;
  options.batch.streams = 2;
  core::QueryServer server(csr, gpusim::test_device(), options);

  const core::StreamResult first = server.run_stream(schedule);
  const core::StreamResult second = server.run_stream(schedule);
  ASSERT_EQ(first.queries.size(), second.queries.size());
  for (std::size_t i = 0; i < first.queries.size(); ++i) {
    EXPECT_EQ(first.queries[i].sssp.distances,
              second.queries[i].sssp.distances);
    // Pooled buffers / warm caches may change time, never instructions.
    EXPECT_EQ(first.queries[i].counters.warp_instructions(),
              second.queries[i].counters.warp_instructions());
  }
}

TEST(QueryBatch, AddsEngineMatchesOracleAndOverlaps) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();
  core::QueryServerOptions options;
  options.batch.engine = core::BatchEngine::kAdds;
  options.batch.streams = 4;
  options.batch.gpu.delta0 = 150.0;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result =
      server.run_stream(core::batch_schedule(sources));
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, sources[i]).distances);
  }
  EXPECT_LT(result.device_makespan_ms, back_to_back_ms(result));
}

TEST(QueryBatch, MetricsAreConsistent) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();
  core::QueryServerOptions options;
  options.batch.streams = 4;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result =
      server.run_stream(core::batch_schedule(sources));

  ASSERT_EQ(result.stats.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const core::QueryStats& qs = result.stats[i].query;
    EXPECT_GT(qs.device_ms, 0);
    EXPECT_GT(result.queries[i].counters.warp_instructions(), 0u);
    EXPECT_GE(qs.queue_wait_ms, 0);
    EXPECT_LT(qs.stream, server.batch().num_lanes());
  }
  // Overlap can only shrink the makespan, to no less than the slowest query.
  EXPECT_LE(result.device_makespan_ms, back_to_back_ms(result) + 1e-9);
}

// --- per-query failure isolation (gfi) --------------------------------------

TEST(QueryBatch, InvalidSourceFailsThatQueryAlone) {
  const Csr csr = batch_test_graph();
  const VertexId bad = csr.num_vertices() + 5;
  const std::vector<VertexId> sources = {0, bad, 113, 399};
  core::QueryServerOptions options;
  options.batch.streams = 2;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result =
      server.run_stream(core::batch_schedule(sources));

  ASSERT_EQ(result.queries.size(), sources.size());
  ASSERT_EQ(result.stats.size(), sources.size());
  EXPECT_EQ(result.failed_queries, 1u);
  EXPECT_EQ(result.stats[1].query.status, core::QueryStatus::kFailed);
  EXPECT_FALSE(result.stats[1].query.error.empty());
  EXPECT_FALSE(result.queries[1].ok);
  EXPECT_TRUE(result.queries[1].sssp.distances.empty());
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(result.stats[i].query.status, core::QueryStatus::kOk);
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, sources[i]).distances);
  }
}

TEST(QueryBatch, FaultedBatchClassifiesPerQueryStatus) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();
  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 23;
  options.batch.gpu.fault.launch_failure = 0.15;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result =
      server.run_stream(core::batch_schedule(sources));

  EXPECT_EQ(result.failed_queries, 0u);
  std::uint64_t recovered = 0, fallback = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE(i);
    const core::QueryStatus status = result.stats[i].query.status;
    recovered += status == core::QueryStatus::kRecovered;
    fallback += status == core::QueryStatus::kCpuFallback;
    EXPECT_TRUE(result.queries[i].ok);
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, sources[i]).distances);
  }
  EXPECT_EQ(result.recovered_queries, recovered);
  EXPECT_EQ(result.fallback_queries, fallback);
  // The plan injects something on this seed; the tallies must agree with
  // the per-query recovery stats.
  EXPECT_GT(result.recovery.faults_injected, 0u);
  EXPECT_EQ(result.recovery.retries > 0 || result.recovery.cpu_fallbacks > 0,
            recovered + fallback > 0);
}

TEST(QueryBatch, FaultsOffBatchReportsAllOk) {
  const Csr csr = batch_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 3;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result =
      server.run_stream(core::batch_schedule(batch_test_sources()));
  EXPECT_EQ(result.failed_queries, 0u);
  EXPECT_EQ(result.recovered_queries, 0u);
  EXPECT_EQ(result.fallback_queries, 0u);
  EXPECT_EQ(result.recovery.faults_injected, 0u);
  for (const core::StreamQueryStats& sq : result.stats) {
    EXPECT_EQ(sq.query.status, core::QueryStatus::kOk);
    EXPECT_TRUE(sq.query.error.empty());
  }
}

// --- gpusim stream semantics ------------------------------------------------

gpusim::LaunchResult tiny_kernel(gpusim::GpuSim& sim, gpusim::StreamId s) {
  auto buf = sim.alloc<float>("buf" + std::to_string(s), 1 << 12);
  return sim.run_kernel(
      gpusim::Schedule::kDynamic, 512, /*warps_per_block=*/8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t t) {
        std::uint64_t idx[32];
        float out[32];
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          idx[lane] = (t * 32 + lane) % buf.size();
        }
        ctx.load(buf, idx, std::span<float>(out, 32));
        ctx.alu(8);
      },
      /*host_launch=*/true, s);
}

// Regression (serving-layer admission control): an all-failed warm-up
// batch must leave the lane cost estimates at their seed. A failed attempt
// can cost near-zero device time (an immediate launch failure with retries
// and fallback disabled); folding that into the EWMA would drag the
// estimate toward zero and let every future query through the load shedder.
TEST(QueryBatch, AllFailedWarmupLeavesCostEstimatesAtSeed) {
  const Csr csr = batch_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.delta0 = 150.0;
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 11;
  options.batch.gpu.fault.launch_failure = 1.0;   // every launch fails...
  options.batch.gpu.fault.max_faults = 100000;    // ...for the whole batch
  options.batch.gpu.retry.max_attempts = 1;       // no retries
  options.batch.gpu.retry.cpu_fallback = false;   // no rescue: kFailed
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::QueryBatch& batch = server.batch();

  const double seed_ms = batch.cost_seed_ms();
  ASSERT_GT(seed_ms, 0.0);
  const std::vector<VertexId> sources = batch_test_sources();
  const core::StreamResult result =
      server.run_stream(core::batch_schedule(sources));
  ASSERT_EQ(result.failed_queries, sources.size());

  for (int lane = 0; lane < batch.num_lanes(); ++lane) {
    EXPECT_EQ(batch.lane_cost_estimate_ms(lane), seed_ms) << "lane " << lane;
  }
}

// The complement: successful queries DO teach the estimator.
TEST(QueryBatch, SuccessfulQueriesMoveCostEstimatesOffTheSeed) {
  const Csr csr = batch_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::QueryBatch& batch = server.batch();

  const double seed_ms = batch.cost_seed_ms();
  const core::StreamResult result =
      server.run_stream(core::batch_schedule(batch_test_sources()));
  ASSERT_EQ(result.failed_queries, 0u);
  EXPECT_NE(batch.lane_cost_estimate_ms(0), seed_ms);
  EXPECT_GT(batch.lane_cost_estimate_ms(0), 0.0);
}

// Regression (result cache, same failure mode as the all-failed warm-up
// above): a warm-started run costs less device time than a cold one, so
// folding it into the lane cost EWMA would skew the load shedder's COLD-
// cost prediction downward. Warm runs must leave the estimate untouched;
// an identical cold run on the same lane must move it.
TEST(QueryBatch, WarmStartedRunsLeaveCostEstimatesUntouched) {
  const Csr csr = batch_test_graph();
  core::QueryBatchOptions options;
  options.streams = 1;
  options.gpu.delta0 = 150.0;
  core::QueryBatch batch(csr, gpusim::test_device(), options);

  core::ResultCacheOptions copts;
  copts.enabled = true;
  copts.landmarks = 1;
  core::ResultCache cache(csr, copts);
  ASSERT_TRUE(cache.graph_symmetric());
  cache.publish(0, core::QueryStatus::kOk, sssp::dijkstra(csr, 0).distances,
                /*publish_ms=*/0.0);
  batch.set_result_cache(&cache);

  const double seed_ms = batch.cost_seed_ms();
  const core::QueryBatch::LaneOutcome warm = batch.run_on_lane(0, 17);
  ASSERT_EQ(warm.stats.status, core::QueryStatus::kOk);
  ASSERT_TRUE(warm.stats.warm_started);
  EXPECT_EQ(warm.result.sssp.distances, sssp::dijkstra(csr, 17).distances);
  EXPECT_EQ(batch.lane_cost_estimate_ms(0), seed_ms);

  // The same query served cold (cache detached) does teach the estimator.
  batch.set_result_cache(nullptr);
  const core::QueryBatch::LaneOutcome cold = batch.run_on_lane(0, 17);
  ASSERT_EQ(cold.stats.status, core::QueryStatus::kOk);
  ASSERT_FALSE(cold.stats.warm_started);
  EXPECT_NE(batch.lane_cost_estimate_ms(0), seed_ms);
}

TEST(GpuSimStreams, SingleStreamAccumulatesLikeLegacyTimeline) {
  gpusim::GpuSim sim(gpusim::test_device());
  double sum = 0;
  for (int i = 0; i < 3; ++i) sum += tiny_kernel(sim, 0).ms;
  EXPECT_DOUBLE_EQ(sim.stream_elapsed_ms(0), sum);
  EXPECT_DOUBLE_EQ(sim.elapsed_ms(), sum);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(0), 0);
  EXPECT_EQ(sim.stream_kernels(0), 3u);
}

TEST(GpuSimStreams, ConcurrentStreamsOverlapBelowTheCap) {
  gpusim::DeviceSpec spec = gpusim::test_device();
  ASSERT_GE(spec.max_concurrent_kernels, 4);
  gpusim::GpuSim sim(spec);
  double sum = 0;
  double longest = 0;
  for (gpusim::StreamId s = 0; s < 4; ++s) {
    const double ms = tiny_kernel(sim, s).ms;
    sum += ms;
    longest = std::max(longest, ms);
  }
  // Under the cap every stream starts at 0, so the makespan is the longest
  // stream, floored by the whole-device throughput bound.
  EXPECT_LT(sim.elapsed_ms(), sum);
  EXPECT_GE(sim.elapsed_ms(), longest);
  EXPECT_GE(sim.elapsed_ms(), sim.device_busy_floor_ms());
  for (gpusim::StreamId s = 0; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(s), 0);
  }
}

TEST(GpuSimStreams, ConcurrencyCapSerializesAndRecordsQueueWait) {
  gpusim::DeviceSpec spec = gpusim::test_device();
  spec.max_concurrent_kernels = 1;
  gpusim::GpuSim sim(spec);
  std::vector<double> ms;
  for (gpusim::StreamId s = 0; s < 3; ++s) ms.push_back(tiny_kernel(sim, s).ms);

  // cap=1 is a serial device: kernels run back-to-back in arrival order.
  EXPECT_DOUBLE_EQ(sim.elapsed_ms(), ms[0] + ms[1] + ms[2]);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(0), 0);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(1), ms[0]);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(2), ms[0] + ms[1]);
}

TEST(GpuSimStreams, ResetTimeClearsStreamsAndFloor) {
  gpusim::GpuSim sim(gpusim::test_device());
  tiny_kernel(sim, 2);
  ASSERT_GT(sim.elapsed_ms(), 0);
  sim.reset_time();
  EXPECT_DOUBLE_EQ(sim.elapsed_ms(), 0);
  EXPECT_DOUBLE_EQ(sim.device_busy_floor_ms(), 0);
  EXPECT_DOUBLE_EQ(sim.stream_elapsed_ms(2), 0);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(2), 0);
}

}  // namespace
}  // namespace rdbs
