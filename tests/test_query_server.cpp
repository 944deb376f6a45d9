// QueryServer — the overload-safe serving layer (docs/serving.md).
//
// Load-bearing properties, in order: (1) serving decisions are
// bit-identical across reruns for every stream count, and completed
// distances always match the Dijkstra oracle regardless of lane layout or
// degradation; (2) a completed query NEVER finishes past its deadline (the
// engines withhold late distances); (3) admission control sheds instead of
// queueing past the deadline; (4) a tripped lane is routed around and
// re-enters service through cool-down -> half-open -> probe.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "core/query_server.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;

Csr server_test_graph() {
  return test::random_powerlaw_graph(400, 3000, /*seed=*/77);
}

// A t=0 batch: every source arrives at once with the same deadline.
std::vector<core::TrafficQuery> queries_for(
    const std::vector<VertexId>& sources,
    double deadline_ms = std::numeric_limits<double>::infinity()) {
  return core::batch_schedule(sources, deadline_ms);
}

bool completed(core::QueryStatus status) {
  return status == core::QueryStatus::kOk ||
         status == core::QueryStatus::kRecovered ||
         status == core::QueryStatus::kCpuFallback;
}

core::TrafficQuery at(double arrival_ms, VertexId source,
                      core::TrafficClass cls,
                      double deadline_ms =
                          std::numeric_limits<double>::infinity()) {
  core::TrafficQuery q;
  q.arrival_ms = arrival_ms;
  q.source = source;
  q.cls = cls;
  q.deadline_ms = deadline_ms;
  return q;
}

// Invariants every stream result must satisfy, whatever the schedule:
// completed queries carry oracle-exact distances and finished within their
// (absolute-in-stream) deadline; a shed query burned zero device time and
// was never dispatched (kShedded and completed are mutually exclusive by
// construction — a shed query has no distances); class tallies partition
// the offered load.
void check_stream_invariants(const Csr& csr,
                             const std::vector<core::TrafficQuery>& schedule,
                             const core::StreamResult& result) {
  ASSERT_EQ(result.queries.size(), schedule.size());
  ASSERT_EQ(result.stats.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const core::StreamQueryStats& sq = result.stats[i];
    EXPECT_EQ(sq.arrival_ms, schedule[i].arrival_ms) << "query " << i;
    if (completed(sq.query.status)) {
      EXPECT_TRUE(result.queries[i].ok);
      EXPECT_EQ(result.queries[i].sssp.distances,
                sssp::dijkstra(csr, schedule[i].source).distances)
          << "query " << i;
      EXPECT_GE(sq.dispatch_ms, sq.arrival_ms) << "query " << i;
      EXPECT_GE(sq.finish_ms, sq.dispatch_ms) << "query " << i;
      EXPECT_EQ(sq.sojourn_ms, sq.finish_ms - sq.arrival_ms) << "query " << i;
      if (std::isfinite(sq.deadline_ms)) {
        EXPECT_LE(sq.finish_ms, sq.deadline_ms + 1e-9) << "query " << i;
      }
    } else {
      EXPECT_FALSE(result.queries[i].ok);
      EXPECT_TRUE(result.queries[i].sssp.distances.empty()) << "query " << i;
    }
    if (sq.query.status == core::QueryStatus::kShedded) {
      // Shed means shed: no device time, no dispatch, no lane occupancy.
      EXPECT_EQ(sq.query.device_ms, 0.0) << "query " << i;
      EXPECT_EQ(sq.dispatch_ms, 0.0) << "query " << i;
      EXPECT_EQ(sq.finish_ms, 0.0) << "query " << i;
    }
  }
  std::uint64_t offered = 0, terminal = 0;
  for (const core::ClassTally& tally : result.classes) {
    offered += tally.offered;
    terminal +=
        tally.completed + tally.shed + tally.missed + tally.failed;
  }
  EXPECT_EQ(offered, schedule.size());
  EXPECT_EQ(terminal, schedule.size());
  EXPECT_EQ(result.ok_queries + result.recovered_queries +
                result.fallback_queries + result.failed_queries +
                result.deadline_queries + result.shed_queries,
            schedule.size());
}

// --- determinism -----------------------------------------------------------

TEST(QueryServer, BitIdenticalAcrossRerunsForEveryStreamCount) {
  const Csr csr = server_test_graph();
  const std::vector<VertexId> sources = {0, 17, 113, 256, 399, 42, 7, 300};

  for (const int streams : {1, 4}) {
    std::vector<core::StreamResult> results;
    std::vector<core::TrafficQuery> queries = queries_for(sources);
    // A mixed batch: two queries get a moderate deadline so the serving
    // decisions themselves (not just the distances) are exercised.
    queries[2].deadline_ms = 1.0;
    queries[5].deadline_ms = 0.25;

    for (int run = 0; run < 2; ++run) {
      core::QueryServerOptions options;
      options.batch.streams = streams;
      options.batch.gpu.delta0 = 150.0;
      core::QueryServer server(csr, gpusim::test_device(), options);
      results.push_back(server.run_stream(queries));
      check_stream_invariants(csr, queries, results.back());
    }

    const core::StreamResult& a = results[0];
    const core::StreamResult& b = results[1];
    EXPECT_EQ(a.makespan_ms, b.makespan_ms);
    EXPECT_EQ(a.shed_queries, b.shed_queries);
    EXPECT_EQ(a.deadline_queries, b.deadline_queries);
    EXPECT_EQ(a.overrun_kernels, b.overrun_kernels);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(a.stats[i].query.status, b.stats[i].query.status) << i;
      EXPECT_EQ(a.stats[i].finish_ms, b.stats[i].finish_ms) << i;
      EXPECT_EQ(a.queries[i].sssp.distances, b.queries[i].sssp.distances)
          << i;
    }
  }
}

// --- deadlines -------------------------------------------------------------

TEST(QueryServer, UnboundedQueriesAllCompleteExactly) {
  const Csr csr = server_test_graph();
  const std::vector<core::TrafficQuery> queries =
      queries_for({0, 17, 113, 256, 399});

  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.delta0 = 150.0;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result = server.run_stream(queries);

  EXPECT_EQ(result.ok_queries, queries.size());
  EXPECT_EQ(result.shed_queries, 0u);
  EXPECT_EQ(result.deadline_queries, 0u);
  check_stream_invariants(csr, queries, result);
  EXPECT_GT(result.makespan_ms, 0.0);
}

// A batch is a t=0 schedule. On a fresh server with no deadlines, every
// query takes the earliest-free lane in offer order and is charged no idle
// gap: exactly a hand loop of pick_lane() + run_on_lane() on a twin lane
// pool. BENCH_batch.json and the calibration of BENCH_server.json rest on
// this.
TEST(QueryServer, UnboundedT0BatchDispatchesEarliestFreeInOrder) {
  const Csr csr = server_test_graph();
  const std::vector<VertexId> sources = {0, 17, 113, 256, 399, 42, 7, 300};
  for (const int streams : {1, 3}) {
    SCOPED_TRACE(streams);
    core::QueryServerOptions options;
    options.batch.streams = streams;
    options.batch.gpu.delta0 = 150.0;
    core::QueryServer server(csr, gpusim::test_device(), options);
    const core::StreamResult served = server.run_stream(queries_for(sources));
    ASSERT_EQ(served.ok_queries, sources.size());

    core::QueryBatch twin(csr, gpusim::test_device(), options.batch);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      SCOPED_TRACE(i);
      const int lane = twin.pick_lane();
      const core::QueryBatch::LaneOutcome outcome =
          twin.run_on_lane(lane, sources[i]);
      EXPECT_EQ(served.stats[i].query.stream, twin.lane_stream(lane));
      EXPECT_EQ(served.stats[i].query.device_ms, outcome.stats.device_ms);
      EXPECT_EQ(served.stats[i].finish_ms, twin.lane_clock_ms(lane));
      EXPECT_EQ(served.queries[i].sssp.distances,
                outcome.result.sssp.distances);
    }
  }
}

TEST(QueryServer, ImpossibleDeadlineIsCancelledWithPartialMetricsOnly) {
  const Csr csr = server_test_graph();
  // One query whose deadline expires during its very first kernels. With
  // shedding and hedging off the server must dispatch it anyway, cancel at
  // the first bucket boundary, and report the partial work.
  std::vector<core::TrafficQuery> queries = queries_for({17}, 1e-6);

  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  options.shed_on_overload = false;
  options.hedge_to_cpu = false;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result = server.run_stream(queries);

  ASSERT_EQ(result.deadline_queries, 1u);
  EXPECT_EQ(result.stats[0].query.status,
            core::QueryStatus::kDeadlineExceeded);
  EXPECT_FALSE(result.queries[0].ok);
  EXPECT_TRUE(result.queries[0].sssp.distances.empty());
  EXPECT_TRUE(result.queries[0].deadline_exceeded);
  // Partial metrics: the cancelled attempt still charged device time, and
  // every kernel it completed ran past the (already expired) deadline.
  EXPECT_GT(result.stats[0].query.device_ms, 0.0);
  EXPECT_GT(result.stats[0].overrun_kernels, 0u);
  EXPECT_GT(result.queries[0].counters.kernel_launches, 0u);
}

TEST(QueryServer, OverloadIsShedUpFrontNotServedLate) {
  const Csr csr = server_test_graph();
  // 8 queries, 1 lane, deadline sized for roughly one query: the first
  // completes, the rest must be shed (predicted miss) — never completed
  // late, never dispatched to burn device time.
  core::QueryServerOptions probe_options;
  probe_options.batch.streams = 1;
  probe_options.batch.gpu.delta0 = 150.0;
  core::QueryServer probe(csr, gpusim::test_device(), probe_options);
  const core::StreamResult one =
      probe.run_stream(queries_for({0}));
  const double one_query_ms = one.stats[0].finish_ms;
  ASSERT_GT(one_query_ms, 0.0);

  core::QueryServerOptions options = probe_options;
  options.hedge_to_cpu = false;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const std::vector<core::TrafficQuery> queries = queries_for(
      {0, 17, 113, 256, 399, 42, 7, 300}, 1.5 * one_query_ms);
  const core::StreamResult result = server.run_stream(queries);

  EXPECT_GE(result.ok_queries, 1u);
  EXPECT_GT(result.shed_queries, 0u);
  EXPECT_EQ(result.ok_queries + result.shed_queries +
                result.deadline_queries,
            queries.size());
  check_stream_invariants(csr, queries, result);
  for (const core::StreamQueryStats& sq : result.stats) {
    if (sq.query.status == core::QueryStatus::kShedded) {
      EXPECT_EQ(sq.query.device_ms, 0.0);  // shed before any device work
      EXPECT_EQ(sq.query.error, "predicted deadline miss");
    }
  }
}

TEST(QueryServer, BoundedPendingQueueShedsArrivalsBeyondCapacity) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  options.max_pending = 2;
  core::QueryServer server(csr, gpusim::test_device(), options);

  const std::vector<core::TrafficQuery> queries =
      queries_for({0, 17, 113, 256, 399});
  const core::StreamResult result = server.run_stream(queries);
  EXPECT_EQ(result.ok_queries, 2u);
  EXPECT_EQ(result.shed_queries, 3u);
  // The first two offered take the queue; the rest never get in.
  EXPECT_EQ(result.stats[0].query.status, core::QueryStatus::kOk);
  EXPECT_EQ(result.stats[1].query.status, core::QueryStatus::kOk);
  for (std::size_t i = 2; i < queries.size(); ++i) {
    EXPECT_EQ(result.stats[i].query.status, core::QueryStatus::kShedded);
    EXPECT_EQ(result.stats[i].query.error, "admission queue full");
  }
  check_stream_invariants(csr, queries, result);
}

TEST(QueryServer, EdfDispatchesUrgentQueriesFirst) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  core::QueryServer server(csr, gpusim::test_device(), options);

  // Offered loosest-deadline first; EDF must run them in reverse order.
  std::vector<core::TrafficQuery> queries = queries_for({0, 17, 113});
  queries[0].deadline_ms = 300.0;
  queries[1].deadline_ms = 200.0;
  queries[2].deadline_ms = 100.0;
  const core::StreamResult result = server.run_stream(queries);

  EXPECT_EQ(result.ok_queries, 3u);
  EXPECT_LT(result.stats[2].finish_ms, result.stats[1].finish_ms);
  EXPECT_LT(result.stats[1].finish_ms, result.stats[0].finish_ms);
  check_stream_invariants(csr, queries, result);
}

// --- hedging ---------------------------------------------------------------

TEST(QueryServer, HedgesToHostWhenDeviceCannotMeetDeadline) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  // Host lane 1000x faster than its default model: any deadline the device
  // estimate rejects is still feasible on the host.
  options.host_slowdown = 1e-3;
  core::QueryServer server(csr, gpusim::test_device(), options);

  const double infeasible_ms = server.batch().cost_seed_ms() * 0.5;
  ASSERT_GT(infeasible_ms, server.host_cost_ms());
  const std::vector<core::TrafficQuery> queries =
      queries_for({17}, infeasible_ms);
  const core::StreamResult result = server.run_stream(queries);

  EXPECT_EQ(result.hedged_queries, 1u);
  EXPECT_EQ(result.fallback_queries, 1u);
  EXPECT_TRUE(result.stats[0].hedged);
  EXPECT_EQ(result.stats[0].query.status, core::QueryStatus::kCpuFallback);
  EXPECT_EQ(result.stats[0].query.device_ms, 0.0);
  check_stream_invariants(csr, queries, result);
}

// --- circuit breakers ------------------------------------------------------

TEST(QueryServer, TrippedLaneIsRoutedAroundWithExactDistances) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 4;
  options.batch.gpu.delta0 = 150.0;
  options.breaker.cooldown_ms = 1e6;  // stays open for the whole batch
  core::QueryServer server(csr, gpusim::test_device(), options);
  server.trip_lane(0);
  EXPECT_EQ(server.breaker_state(0), core::BreakerState::kOpen);

  const std::vector<core::TrafficQuery> queries =
      queries_for({0, 17, 113, 256, 399, 42, 7, 300});
  const core::StreamResult result = server.run_stream(queries);

  EXPECT_EQ(result.ok_queries, queries.size());
  const gpusim::StreamId tripped = server.batch().lane_stream(0);
  for (const core::StreamQueryStats& sq : result.stats) {
    EXPECT_NE(sq.query.stream, tripped);
  }
  check_stream_invariants(csr, queries, result);
  EXPECT_EQ(server.breaker_state(0), core::BreakerState::kOpen);
  // The manual trip is reported with this run's events.
  ASSERT_EQ(result.breaker_events.size(), 1u);
  EXPECT_EQ(result.breaker_events[0].lane, 0);
  EXPECT_EQ(result.breaker_events[0].transition,
            core::BreakerTransition::kOpen);
}

TEST(QueryServer, ConsecutiveFaultOutcomesTripThenProbeThenClose) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  // Every launch fails until the 2-fault budget is spent, so the first
  // query recovers through retries (a fault outcome), trips the breaker at
  // threshold 1, and later clean queries probe the lane shut again.
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 7;
  options.batch.gpu.fault.launch_failure = 1.0;
  options.batch.gpu.fault.max_faults = 2;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_ms = 0.01;
  // No host hedging: with the only lane open, the server must wait out the
  // cool-down and probe the lane rather than bypass it.
  options.hedge_to_cpu = false;
  core::QueryServer server(csr, gpusim::test_device(), options);

  const std::vector<core::TrafficQuery> queries =
      queries_for({0, 17, 113, 256});
  const core::StreamResult result = server.run_stream(queries);

  check_stream_invariants(csr, queries, result);
  EXPECT_GT(result.recovery.retries, 0u);
  EXPECT_GT(result.recovery.attempts, queries.size());
  ASSERT_GE(result.breaker_events.size(), 3u);
  EXPECT_EQ(result.breaker_events[0].transition,
            core::BreakerTransition::kOpen);
  EXPECT_EQ(result.breaker_events[1].transition,
            core::BreakerTransition::kHalfOpen);
  EXPECT_EQ(result.breaker_events[2].transition,
            core::BreakerTransition::kClose);
  EXPECT_EQ(server.breaker_state(0), core::BreakerState::kClosed);
  // The single lane was tripped and re-entered service: all queries done.
  EXPECT_EQ(result.ok_queries + result.recovered_queries, queries.size());
}

TEST(QueryServer, BreakerDisabledNeverTripsAutomatically) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 7;
  options.batch.gpu.fault.launch_failure = 1.0;
  options.batch.gpu.fault.max_faults = 2;
  options.breaker.enabled = false;
  options.breaker.failure_threshold = 1;
  core::QueryServer server(csr, gpusim::test_device(), options);

  const core::StreamResult result =
      server.run_stream(queries_for({0, 17, 113}));
  EXPECT_TRUE(result.breaker_events.empty());
  EXPECT_EQ(server.breaker_state(0), core::BreakerState::kClosed);
  EXPECT_EQ(result.ok_queries + result.recovered_queries, 3u);
}

TEST(QueryServer, AllLanesOpenWaitsOutCooldownWhenDeadlineAllows) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.delta0 = 150.0;
  options.hedge_to_cpu = false;
  options.breaker.cooldown_ms = 0.5;
  core::QueryServer server(csr, gpusim::test_device(), options);
  server.trip_lane(0);
  server.trip_lane(1);

  const std::vector<core::TrafficQuery> queries = queries_for({17});
  const core::StreamResult result = server.run_stream(queries);

  // No eligible lane at dispatch: with an unbounded deadline the server
  // waits out the earliest cool-down instead of shedding, probes the lane
  // half-open, and serves the query there.
  EXPECT_EQ(result.ok_queries, 1u);
  EXPECT_GE(result.stats[0].finish_ms, options.breaker.cooldown_ms);
  check_stream_invariants(csr, queries, result);
}

// --- streaming (timed arrivals) --------------------------------------------

TEST(QueryServer, StreamBitIdenticalAcrossReruns) {
  const Csr csr = server_test_graph();

  // Calibrate the offered load to the device: overlapping arrivals, a
  // deadline mix where interactive is tight but feasible.
  double one_query_ms = 0;
  {
    core::QueryServerOptions probe;
    probe.batch.streams = 1;
    probe.batch.gpu.delta0 = 150.0;
    core::QueryServer server(csr, gpusim::test_device(), probe);
    one_query_ms =
        server.run_stream(queries_for({17}))
            .stats[0]
            .finish_ms;
    ASSERT_GT(one_query_ms, 0.0);
  }
  core::TrafficSpec spec;
  spec.num_queries = 64;
  spec.seed = 204;
  spec.rate_qpms = 2.0 / one_query_ms;
  spec.class_deadline_ms = {3.0 * one_query_ms, 10.0 * one_query_ms,
                            std::numeric_limits<double>::infinity()};
  const std::vector<core::TrafficQuery> schedule =
      core::generate_traffic(spec, csr.num_vertices());

  for (const int streams : {1, 4}) {
    std::vector<core::StreamResult> results;
    for (int run = 0; run < 2; ++run) {
      core::QueryServerOptions options;
      options.batch.streams = streams;
      options.batch.gpu.delta0 = 150.0;
      // Fault injection + breakers on: the chaotic paths (retries, trips,
      // half-open probes, EWMA decay) must be as deterministic as the
      // happy path.
      options.batch.gpu.fault.enabled = true;
      options.batch.gpu.fault.seed = 31;
      options.batch.gpu.fault.launch_failure = 0.02;
      options.breaker.failure_threshold = 2;
      options.breaker.cooldown_ms = one_query_ms;
      core::QueryServer server(csr, gpusim::test_device(), options);
      results.push_back(server.run_stream(schedule));
      check_stream_invariants(csr, schedule, results.back());
    }

    const core::StreamResult& a = results[0];
    const core::StreamResult& b = results[1];
    EXPECT_EQ(a.makespan_ms, b.makespan_ms) << streams;
    EXPECT_EQ(a.device_makespan_ms, b.device_makespan_ms) << streams;
    EXPECT_EQ(a.shed_queries, b.shed_queries) << streams;
    EXPECT_EQ(a.deadline_queries, b.deadline_queries) << streams;
    EXPECT_EQ(a.rerouted_queries, b.rerouted_queries) << streams;
    EXPECT_EQ(a.breaker_events.size(), b.breaker_events.size()) << streams;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      EXPECT_EQ(a.stats[i].query.status, b.stats[i].query.status) << i;
      EXPECT_EQ(a.stats[i].dispatch_ms, b.stats[i].dispatch_ms) << i;
      EXPECT_EQ(a.stats[i].finish_ms, b.stats[i].finish_ms) << i;
      EXPECT_EQ(a.stats[i].promotions, b.stats[i].promotions) << i;
      EXPECT_EQ(a.queries[i].sssp.distances, b.queries[i].sssp.distances)
          << i;
    }
    for (int c = 0; c < core::kNumTrafficClasses; ++c) {
      EXPECT_EQ(a.classes[static_cast<std::size_t>(c)].completed,
                b.classes[static_cast<std::size_t>(c)].completed);
      EXPECT_EQ(a.classes[static_cast<std::size_t>(c)].shed,
                b.classes[static_cast<std::size_t>(c)].shed);
    }
  }
}

TEST(QueryServer, StreamDispatchesByPriorityClass) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  core::QueryServer server(csr, gpusim::test_device(), options);

  // All three classes arrive together, least urgent first in the input:
  // the single lane must serve them in class order regardless.
  const std::vector<core::TrafficQuery> schedule = {
      at(0.0, 113, core::TrafficClass::kBestEffort),
      at(0.0, 256, core::TrafficClass::kBatch),
      at(0.0, 17, core::TrafficClass::kInteractive),
  };
  const core::StreamResult result = server.run_stream(schedule);

  EXPECT_EQ(result.ok_queries, 3u);
  check_stream_invariants(csr, schedule, result);
  EXPECT_LT(result.stats[2].finish_ms, result.stats[1].finish_ms);
  EXPECT_LT(result.stats[1].finish_ms, result.stats[0].finish_ms);
  for (const core::StreamQueryStats& sq : result.stats) {
    EXPECT_EQ(sq.promotions, 0);  // aging off by default
  }
}

TEST(QueryServer, StreamQueueExpiredQueriesAreShedNeverDispatched) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  // Shedding and hedging off: the ONLY way these queries can avoid the
  // device is the queue-expiry sweep.
  options.shed_on_overload = false;
  options.hedge_to_cpu = false;
  core::QueryServer server(csr, gpusim::test_device(), options);

  // An unbounded interactive query pins the lane; three batch queries with
  // deadlines far shorter than its runtime expire while queued. They must
  // be shed without ever touching a lane — not dispatched-and-cancelled.
  const std::vector<core::TrafficQuery> schedule = {
      at(0.0, 17, core::TrafficClass::kInteractive),
      at(0.0, 113, core::TrafficClass::kBatch, /*deadline_ms=*/1e-3),
      at(0.0, 256, core::TrafficClass::kBatch, /*deadline_ms=*/1e-3),
      at(0.0, 399, core::TrafficClass::kBatch, /*deadline_ms=*/1e-3),
  };
  const core::StreamResult result = server.run_stream(schedule);

  check_stream_invariants(csr, schedule, result);
  EXPECT_EQ(result.ok_queries, 1u);
  EXPECT_EQ(result.shed_queries, 3u);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_EQ(result.stats[i].query.status, core::QueryStatus::kShedded);
    EXPECT_EQ(result.stats[i].query.error, "deadline expired while queued");
    EXPECT_EQ(result.stats[i].query.device_ms, 0.0);
  }
  EXPECT_EQ(result.classes[1].shed, 3u);
}

TEST(QueryServer, StreamAgingPromotesStarvedBestEffort) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions base;
  base.batch.streams = 1;
  base.batch.gpu.delta0 = 150.0;

  // Calibrate arrival spacing well under the per-query service time so an
  // interactive flood keeps the queue non-empty for the whole stream.
  double service_ms = 0;
  {
    core::QueryServer probe(csr, gpusim::test_device(), base);
    const core::StreamResult two =
        probe.run_stream(queries_for({17, 17}));
    service_ms = std::min(two.stats[0].finish_ms,
                          two.stats[1].finish_ms - two.stats[0].finish_ms);
    ASSERT_GT(service_ms, 0.0);
  }
  std::vector<core::TrafficQuery> schedule = {
      at(0.0, 113, core::TrafficClass::kBestEffort)};
  for (int k = 0; k < 12; ++k) {
    schedule.push_back(
        at(k * 0.4 * service_ms, 17, core::TrafficClass::kInteractive));
  }

  // Strict priority: the flood starves the best-effort query to the very
  // end of the stream.
  core::QueryServer strict(csr, gpusim::test_device(), base);
  const core::StreamResult starved = strict.run_stream(schedule);
  check_stream_invariants(csr, schedule, starved);
  EXPECT_EQ(starved.ok_queries, schedule.size());
  EXPECT_EQ(starved.stats[0].promotions, 0);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GT(starved.stats[0].finish_ms, starved.stats[i].finish_ms) << i;
  }

  // With aging, the best-effort query is promoted one class per aging_ms
  // waited and overtakes the flood: a priority inversion is bounded by
  // (class gap) * aging_ms of waiting plus one in-flight query.
  core::QueryServerOptions aged_options = base;
  aged_options.aging_ms = 0.5 * service_ms;
  core::QueryServer aged(csr, gpusim::test_device(), aged_options);
  const core::StreamResult promoted = aged.run_stream(schedule);
  check_stream_invariants(csr, schedule, promoted);
  EXPECT_EQ(promoted.ok_queries, schedule.size());
  EXPECT_GE(promoted.stats[0].promotions, 2);
  EXPECT_LT(promoted.stats[0].dispatch_ms, starved.stats[0].dispatch_ms);
  // The wait is bounded: 2 classes of gap need ~2 * aging_ms of queueing,
  // plus at most the query already occupying the lane.
  EXPECT_LE(promoted.stats[0].dispatch_ms,
            2.0 * aged_options.aging_ms + 2.0 * service_ms);
}

TEST(QueryServer, HalfOpenProbeDecaysLaneEwmaExactlyOnce) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  options.hedge_to_cpu = false;
  options.breaker.cooldown_ms = 0.01;
  // Full decay: at half-open entry the EWMA must land exactly on the seed,
  // which makes "applied exactly once" checkable to the bit.
  options.breaker.half_open_ewma_decay = 1.0;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const double seed_ms = server.batch().cost_seed_ms();
  const double alpha = core::kLaneCostEwmaAlpha;

  // Move the estimate off the seed with one clean query.
  server.run_stream(queries_for({17}));
  const double warmed_ms = server.batch().lane_cost_estimate_ms(0);
  ASSERT_NE(warmed_ms, seed_ms);

  server.trip_lane(0);
  const std::vector<core::TrafficQuery> schedule = {
      at(0.0, 17, core::TrafficClass::kInteractive),
      at(0.0, 113, core::TrafficClass::kInteractive),
  };
  const core::StreamResult result = server.run_stream(schedule);
  check_stream_invariants(csr, schedule, result);
  EXPECT_EQ(result.ok_queries, 2u);

  // Query 0 probed the lane half-open: decay to the seed happened before
  // its EWMA update, so the estimate after it is alpha*observed +
  // (1-alpha)*seed — any trace of `warmed_ms` means the decay was skipped,
  // a double application would decay query 1's observation too.
  const double d0 = result.stats[0].query.device_ms;
  const double d1 = result.stats[1].query.device_ms;
  ASSERT_GT(d0, 0.0);
  ASSERT_GT(d1, 0.0);
  const double after_probe = alpha * d0 + (1.0 - alpha) * seed_ms;
  const double after_close = alpha * d1 + (1.0 - alpha) * after_probe;
  EXPECT_DOUBLE_EQ(server.batch().lane_cost_estimate_ms(0), after_close);
  EXPECT_EQ(server.breaker_state(0), core::BreakerState::kClosed);
  // open (the manual trip, logged after the warm-up run) -> half-open ->
  // close, nothing else.
  ASSERT_EQ(result.breaker_events.size(), 3u);
  EXPECT_EQ(result.breaker_events[0].transition,
            core::BreakerTransition::kOpen);
  EXPECT_EQ(result.breaker_events[1].transition,
            core::BreakerTransition::kHalfOpen);
  EXPECT_EQ(result.breaker_events[2].transition,
            core::BreakerTransition::kClose);
}

TEST(QueryServer, StreamEwmaSurvivesIdleStretchWithZeroCompletions) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 1;
  options.batch.gpu.delta0 = 150.0;
  options.shed_on_overload = false;
  options.hedge_to_cpu = false;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const double seed_ms = server.batch().cost_seed_ms();

  // Widely-spaced arrivals (long idle gaps) whose deadlines expire during
  // their first kernels: every query is dispatched and cancelled, zero
  // complete. The lane's cost estimate must come out of this untouched —
  // cancelled queries never teach the estimator, and idling is not
  // evidence of anything.
  std::vector<core::TrafficQuery> schedule;
  for (int k = 0; k < 5; ++k) {
    schedule.push_back(at(k * 50.0 * seed_ms, 17,
                          core::TrafficClass::kInteractive,
                          /*deadline_ms=*/1e-6));
  }
  const core::StreamResult idle_stream = server.run_stream(schedule);
  check_stream_invariants(csr, schedule, idle_stream);
  EXPECT_EQ(idle_stream.deadline_queries, schedule.size());
  EXPECT_EQ(server.batch().lane_cost_estimate_ms(0), seed_ms);
  // Every query started at its own arrival, not at the previous finish:
  // the idle gap was charged so dispatch aligns with arrival.
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(idle_stream.stats[i].dispatch_ms, schedule[i].arrival_ms) << i;
  }

  // The regression, from the shedder's side: a server that sheds every
  // infeasible query runs the same idle stretch with ZERO device work —
  // and must come out still willing to admit a feasible query. (A zeroed
  // estimate would break the other way, admitting everything; the seed
  // holding keeps the shedder honest in both directions.)
  core::QueryServerOptions strict = options;
  strict.shed_on_overload = true;
  core::QueryServer shedder(csr, gpusim::test_device(), strict);
  const core::StreamResult all_shed = shedder.run_stream(schedule);
  check_stream_invariants(csr, schedule, all_shed);
  EXPECT_EQ(all_shed.shed_queries, schedule.size());
  EXPECT_EQ(shedder.batch().lane_cost_estimate_ms(0), seed_ms);
  const std::vector<core::TrafficQuery> feasible = {
      at(0.0, 17, core::TrafficClass::kBatch,
         /*deadline_ms=*/20.0 * seed_ms)};
  const core::StreamResult after = shedder.run_stream(feasible);
  EXPECT_EQ(after.ok_queries, 1u);
  EXPECT_EQ(after.shed_queries, 0u);
}

// --- lifecycle across run_stream() calls ------------------------------------------

TEST(QueryServer, StatePersistsAcrossRuns) {
  const Csr csr = server_test_graph();
  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.delta0 = 150.0;
  options.breaker.cooldown_ms = 1e6;
  core::QueryServer server(csr, gpusim::test_device(), options);

  server.trip_lane(1);
  const core::StreamResult first =
      server.run_stream(queries_for({0, 17}));
  ASSERT_EQ(first.breaker_events.size(), 1u);
  const core::StreamResult second =
      server.run_stream(queries_for({113, 256}));
  // The trip was already reported; it must not be re-reported, but the
  // lane stays open into the second run.
  EXPECT_TRUE(second.breaker_events.empty());
  EXPECT_EQ(server.breaker_state(1), core::BreakerState::kOpen);
  const gpusim::StreamId tripped = server.batch().lane_stream(1);
  for (const core::StreamQueryStats& sq : second.stats) {
    EXPECT_NE(sq.query.stream, tripped);
  }
  EXPECT_EQ(second.ok_queries, 2u);
}

// --- checkpoint-resume & lane migration (docs/serving.md) ------------------

core::QueryServerOptions migration_options(bool migrate) {
  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.delta0 = 150.0;
  // Snapshot every bucket boundary so a mid-query failure leaves a
  // checkpoint behind; surface exhausted recovery as kFailed (the state
  // migration picks up) instead of silently falling back to the host.
  options.batch.gpu.checkpoint_interval = 1;
  options.batch.gpu.retry.max_attempts = 1;
  options.batch.gpu.retry.cpu_fallback = false;
  options.hedge_to_cpu = false;
  options.migrate = migrate;
  // Keep the breaker from opening the destination lane mid-test.
  options.breaker.failure_threshold = 100;
  return options;
}

// A query that loses its device mid-run migrates to the other lane, resumes
// from the checkpoint, and completes with oracle-exact distances; with
// migration off the identical run fails outright.
TEST(QueryServer, MigrationResumesLostQueryOnSurvivingLane) {
  const Csr csr = server_test_graph();
  const std::vector<VertexId> sources = {0, 17, 113, 256, 399, 42};

  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 4;
  cfg.device_loss = 0.002;  // one loss somewhere mid-stream
  cfg.max_faults = 1;

  core::StreamResult with_migration;
  core::StreamResult without_migration;
  for (const bool migrate : {true, false}) {
    core::QueryServerOptions options = migration_options(migrate);
    options.batch.gpu.fault = cfg;
    core::QueryServer server(csr, gpusim::test_device(), options);
    core::StreamResult result =
        server.run_stream(queries_for(sources));
    (migrate ? with_migration : without_migration) = std::move(result);
  }

  ASSERT_EQ(without_migration.failed_queries, 1u);
  EXPECT_EQ(with_migration.failed_queries, 0u);
  EXPECT_EQ(with_migration.migrated_queries, 1u);
  EXPECT_EQ(with_migration.ok_queries, sources.size());
  check_stream_invariants(csr, queries_for(sources), with_migration);

  // The migrated query finished on a lane other than the one it failed on,
  // and its stats say so.
  bool saw_migrated = false;
  for (const core::StreamQueryStats& sq : with_migration.stats) {
    saw_migrated = saw_migrated || sq.query.migrated;
  }
  EXPECT_TRUE(saw_migrated);
}

// Migration only helps when a checkpoint exists: with checkpointing off the
// same storm fails the query even with migration enabled.
TEST(QueryServer, MigrationWithoutCheckpointLeavesQueryFailed) {
  const Csr csr = server_test_graph();
  const std::vector<VertexId> sources = {0, 17, 113, 256, 399, 42};

  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 4;
  cfg.device_loss = 0.002;
  cfg.max_faults = 1;

  core::QueryServerOptions options = migration_options(true);
  options.batch.gpu.checkpoint_interval = 0;  // no snapshots, no resume
  options.batch.gpu.fault = cfg;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result =
      server.run_stream(queries_for(sources));

  EXPECT_EQ(result.failed_queries, 1u);
  EXPECT_EQ(result.migrated_queries, 0u);
}

// Migration decisions and the resumed distances are bit-identical across
// reruns, like every other serving decision.
TEST(QueryServer, MigrationBitIdenticalAcrossReruns) {
  const Csr csr = server_test_graph();
  const std::vector<VertexId> sources = {0, 17, 113, 256, 399, 42};

  gpusim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 4;
  cfg.device_loss = 0.002;
  cfg.max_faults = 1;

  std::vector<core::StreamResult> results;
  for (int run = 0; run < 2; ++run) {
    core::QueryServerOptions options = migration_options(true);
    options.batch.gpu.fault = cfg;
    core::QueryServer server(csr, gpusim::test_device(), options);
    results.push_back(
        server.run_stream(queries_for(sources)));
  }
  EXPECT_EQ(results[0].migrated_queries, results[1].migrated_queries);
  EXPECT_EQ(results[0].makespan_ms, results[1].makespan_ms);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(results[0].stats[i].query.status,
              results[1].stats[i].query.status)
        << i;
    EXPECT_EQ(results[0].queries[i].sssp.distances,
              results[1].queries[i].sssp.distances)
        << i;
  }
}

// --- closed-loop clients (docs/serving.md "Closed-loop clients") -----------

// Under a queue-full overload, closed-loop clients bring shed queries back
// after backoff: fewer queries end shed than in the identical open-loop
// run, retry amplification stays within the budget, and every completed
// retry carries oracle-exact distances.
TEST(QueryServer, StreamClosedLoopRetriesShedWorkWithinBudget) {
  const Csr csr = server_test_graph();

  // A burst of simultaneous arrivals against a 2-deep pending queue forces
  // queue-full sheds at t=0; re-arrivals after backoff find the queue
  // drained and complete.
  std::vector<core::TrafficQuery> schedule;
  for (int i = 0; i < 10; ++i) {
    schedule.push_back(
        at(0.0, static_cast<VertexId>(17 + 31 * i),
                      core::TrafficClass::kInteractive));
  }

  core::StreamResult open_loop;
  core::StreamResult closed_loop;
  for (const bool closed : {false, true}) {
    core::QueryServerOptions options;
    options.batch.streams = 2;
    options.batch.gpu.delta0 = 150.0;
    options.max_pending = 2;
    options.hedge_to_cpu = false;
    if (closed) {
      options.closed_loop.enabled = true;
      options.closed_loop.retry_budget = 3;
      options.closed_loop.backoff_base_ms = 0.2;
      options.closed_loop.seed = 5;
    }
    core::QueryServer server(csr, gpusim::test_device(), options);
    (closed ? closed_loop : open_loop) = server.run_stream(schedule);
  }

  ASSERT_GT(open_loop.shed_queries, 0u);
  EXPECT_EQ(open_loop.retried_arrivals, 0u);
  EXPECT_LT(closed_loop.shed_queries, open_loop.shed_queries);
  EXPECT_GT(closed_loop.retried_arrivals, 0u);

  // Bounded amplification: per-query re-arrivals never exceed the budget,
  // and the total equals the per-query sum (no phantom arrivals).
  std::uint64_t rearrivals = 0;
  std::uint64_t retried_queries = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const core::StreamQueryStats& sq = closed_loop.stats[i];
    ASSERT_GE(sq.arrivals, 1);
    EXPECT_LE(sq.arrivals - 1, 3) << "query " << i;
    rearrivals += static_cast<std::uint64_t>(sq.arrivals - 1);
    if (sq.arrivals > 1) ++retried_queries;
    if (completed(sq.query.status)) {
      EXPECT_EQ(closed_loop.queries[i].sssp.distances,
                sssp::dijkstra(csr, schedule[i].source).distances)
          << "query " << i;
    }
  }
  EXPECT_EQ(closed_loop.retried_arrivals, rearrivals);
  EXPECT_LE(closed_loop.retried_arrivals, 3 * retried_queries);
}

// Conservation over one mixed run with faults, closed-loop retries, the
// result cache and host hedging all active: every offered query ends in
// exactly one terminal status, every aggregate counter and class tally is a
// recount of the per-query records, and a query that was served (or missed
// its deadline) arrived before it was dispatched and was dispatched before
// it finished.
TEST(QueryServer, StreamCountersConserveEveryOfferedQuery) {
  const Csr csr = server_test_graph();
  core::TrafficSpec spec;
  spec.num_queries = 96;
  spec.seed = 12;
  spec.rate_qpms = 40.0;  // well past what two lanes drain
  spec.zipf_s = 1.3;
  spec.source_universe = 16;
  spec.class_deadline_ms = {0.2, 0.8, std::numeric_limits<double>::infinity()};
  const std::vector<core::TrafficQuery> schedule =
      core::generate_traffic(spec, csr.num_vertices());

  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.delta0 = 150.0;
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 9;
  options.batch.gpu.fault.launch_failure = 0.05;
  options.batch.gpu.fault.max_faults = 64;
  options.batch.gpu.checkpoint_interval = 1;
  options.batch.gpu.retry.max_attempts = 2;
  options.batch.gpu.retry.cpu_fallback = false;
  options.max_pending = 8;
  options.cache.enabled = true;
  options.cache.capacity = 8;
  options.cache.landmarks = 2;
  options.closed_loop.enabled = true;
  options.closed_loop.retry_budget = 2;
  options.closed_loop.backoff_base_ms = 0.1;
  options.closed_loop.seed = 3;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result = server.run_stream(schedule);
  ASSERT_EQ(result.stats.size(), schedule.size());
  ASSERT_EQ(result.queries.size(), schedule.size());

  // The run must be mixed, or conservation is checked on nothing.
  EXPECT_GT(result.shed_queries, 0u);
  EXPECT_GT(result.failed_queries + result.recovered_queries, 0u);
  EXPECT_GT(result.cached_queries, 0u);
  EXPECT_GT(result.joined_queries, 0u);
  EXPECT_GT(result.hedged_queries, 0u);
  EXPECT_GT(result.migrated_queries + result.resumed_queries, 0u);
  EXPECT_GT(result.retried_arrivals, 0u);

  std::array<std::uint64_t, core::kNumQueryStatuses> status{};
  std::array<core::ClassTally, core::kNumTrafficClasses> classes{};
  std::uint64_t hedged = 0, rerouted = 0, joined = 0, warm = 0, migrated = 0,
                resumed = 0, overrun = 0, rearrivals = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const core::StreamQueryStats& sq = result.stats[i];
    const auto s = static_cast<std::size_t>(sq.query.status);
    ASSERT_LT(s, status.size()) << "query " << i << " has no terminal status";
    ++status[s];
    core::ClassTally& tally = classes[static_cast<std::size_t>(sq.cls)];
    ++tally.offered;
    switch (sq.query.status) {
      case core::QueryStatus::kShedded: ++tally.shed; break;
      case core::QueryStatus::kDeadlineExceeded: ++tally.missed; break;
      case core::QueryStatus::kFailed: ++tally.failed; break;
      default: ++tally.completed; break;
    }
    hedged += sq.hedged ? 1 : 0;
    rerouted += sq.rerouted ? 1 : 0;
    joined += sq.single_flight ? 1 : 0;
    warm += sq.query.warm_started ? 1 : 0;
    migrated += sq.query.migrated ? 1 : 0;
    resumed += result.queries[i].recovery.resumed > 0 ? 1 : 0;
    overrun += sq.overrun_kernels;
    ASSERT_GE(sq.arrivals, 1) << "query " << i;
    rearrivals += static_cast<std::uint64_t>(sq.arrivals - 1);
    if (sq.query.status != core::QueryStatus::kShedded &&
        sq.query.status != core::QueryStatus::kFailed) {
      EXPECT_LE(sq.arrival_ms, sq.dispatch_ms) << "query " << i;
      EXPECT_LE(sq.dispatch_ms, sq.finish_ms) << "query " << i;
    }
  }

  const auto count = [&](core::QueryStatus s) {
    return status[static_cast<std::size_t>(s)];
  };
  EXPECT_EQ(result.ok_queries, count(core::QueryStatus::kOk));
  EXPECT_EQ(result.recovered_queries, count(core::QueryStatus::kRecovered));
  EXPECT_EQ(result.fallback_queries, count(core::QueryStatus::kCpuFallback));
  EXPECT_EQ(result.failed_queries, count(core::QueryStatus::kFailed));
  EXPECT_EQ(result.deadline_queries,
            count(core::QueryStatus::kDeadlineExceeded));
  EXPECT_EQ(result.shed_queries, count(core::QueryStatus::kShedded));
  EXPECT_EQ(result.cached_queries, count(core::QueryStatus::kCacheHit));
  EXPECT_EQ(result.ok_queries + result.recovered_queries +
                result.fallback_queries + result.failed_queries +
                result.deadline_queries + result.shed_queries +
                result.cached_queries,
            schedule.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    EXPECT_EQ(result.classes[c].offered, classes[c].offered) << c;
    EXPECT_EQ(result.classes[c].completed, classes[c].completed) << c;
    EXPECT_EQ(result.classes[c].shed, classes[c].shed) << c;
    EXPECT_EQ(result.classes[c].missed, classes[c].missed) << c;
    EXPECT_EQ(result.classes[c].failed, classes[c].failed) << c;
  }
  EXPECT_EQ(result.hedged_queries, hedged);
  EXPECT_EQ(result.rerouted_queries, rerouted);
  EXPECT_EQ(result.joined_queries, joined);
  EXPECT_EQ(result.warm_started_queries, warm);
  EXPECT_EQ(result.migrated_queries, migrated);
  EXPECT_EQ(result.resumed_queries, resumed);
  EXPECT_EQ(result.overrun_kernels, overrun);
  EXPECT_EQ(result.retried_arrivals, rearrivals);
}

// Closed-loop scheduling (jittered backoff, backpressure deferral) is a
// pure function of the spec: bit-identical streams on every rerun.
TEST(QueryServer, StreamClosedLoopBitIdenticalAcrossReruns) {
  const Csr csr = server_test_graph();

  std::vector<core::TrafficQuery> schedule;
  for (int i = 0; i < 12; ++i) {
    schedule.push_back(
        at(0.05 * i, static_cast<VertexId>(13 + 29 * i),
                      core::TrafficClass::kInteractive, /*deadline_ms=*/1.5));
  }

  std::vector<core::StreamResult> results;
  for (int run = 0; run < 2; ++run) {
    core::QueryServerOptions options;
    options.batch.streams = 2;
    options.batch.gpu.delta0 = 150.0;
    options.max_pending = 3;
    options.hedge_to_cpu = false;
    options.closed_loop.enabled = true;
    options.closed_loop.retry_budget = 2;
    options.closed_loop.backoff_base_ms = 0.3;
    options.closed_loop.jitter = 0.5;
    options.closed_loop.seed = 11;
    options.closed_loop.backpressure_depth = 2;
    options.closed_loop.backpressure_penalty_ms = 0.1;
    core::QueryServer server(csr, gpusim::test_device(), options);
    results.push_back(server.run_stream(schedule));
  }
  EXPECT_EQ(results[0].retried_arrivals, results[1].retried_arrivals);
  EXPECT_EQ(results[0].retry_exhausted, results[1].retry_exhausted);
  EXPECT_EQ(results[0].shed_queries, results[1].shed_queries);
  EXPECT_EQ(results[0].makespan_ms, results[1].makespan_ms);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(results[0].stats[i].query.status,
              results[1].stats[i].query.status)
        << i;
    EXPECT_EQ(results[0].stats[i].arrivals, results[1].stats[i].arrivals)
        << i;
    EXPECT_EQ(results[0].queries[i].sssp.distances,
              results[1].queries[i].sssp.distances)
        << i;
  }
}

}  // namespace
}  // namespace rdbs
