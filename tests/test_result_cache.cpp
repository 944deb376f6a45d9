// ResultCache — exact-hit reuse, single-flight sharing and landmark warm
// starts across queries (core/result_cache.hpp; docs/serving.md "Result
// cache").
//
// Load-bearing properties, in order: (1) a cache hit returns distances
// BIT-identical to the solve that produced them, and every warm-started
// solve returns distances bit-identical to a cold solve and to the host
// Dijkstra oracle — on power-law, Kronecker and grid graphs, for both
// engines; (2) single-flight waiters share the producer's outcome,
// including its failure; (3) the cache's time model (publish_ms vs the
// decision clock) cleanly separates "published" from "in flight"; (4) an
// epoch bump invalidates every entry and landmark; (5) serving results with
// the cache on are bit-identical across reruns for every stream count; (6) a full cache admits and evicts by aged request count, one
// count per offered arrival.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/query_server.hpp"
#include "core/result_cache.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::Distance;
using graph::VertexId;

Csr kronecker_graph(int scale, std::uint64_t seed) {
  graph::KroneckerParams params;
  params.scale = scale;
  params.edgefactor = 8;
  params.seed = seed;
  graph::EdgeList edges = graph::generate_kronecker(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, seed);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

Csr er_graph(VertexId n, std::uint64_t m, std::uint64_t seed) {
  graph::UniformRandomParams params;
  params.num_vertices = n;
  params.num_edges = m;
  params.seed = seed;
  graph::EdgeList edges = graph::generate_uniform_random(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, seed);
  graph::BuildOptions options;
  options.symmetrize = true;
  return graph::build_csr(edges, options);
}

// A deliberately asymmetric digraph (one-way edge), for the symmetry gate.
Csr one_way_graph() {
  graph::EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 1.0);
  edges.add_edge(1, 2, 2.0);
  edges.add_edge(2, 1, 2.0);
  graph::BuildOptions options;
  options.symmetrize = false;
  return graph::build_csr(edges, options);
}

std::vector<Distance> dijkstra_distances(const Csr& csr, VertexId source) {
  return sssp::dijkstra(csr, source).distances;
}

core::ResultCacheOptions small_cache(std::size_t capacity = 8,
                                     std::size_t landmarks = 3) {
  core::ResultCacheOptions options;
  options.enabled = true;
  options.capacity = capacity;
  options.landmarks = landmarks;
  return options;
}

// --- unit: lifecycle and time model ----------------------------------------

TEST(ResultCache, MissThenInflightThenHitFollowsThePublishClock) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache());
  const std::vector<Distance> d0 = dijkstra_distances(csr, 0);

  EXPECT_EQ(cache.lookup(0, 0.0), nullptr);
  EXPECT_EQ(cache.lookup_inflight(0, 0.0), nullptr);

  cache.publish(0, core::QueryStatus::kOk, d0, /*publish_ms=*/10.0);
  // Before the publish time the entry is in flight, not servable.
  EXPECT_EQ(cache.lookup(0, 9.0), nullptr);
  const core::CachedResult* flight = cache.lookup_inflight(0, 9.0);
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->publish_ms, 10.0);
  EXPECT_EQ(flight->distances, d0);
  // From the publish time on it is an exact hit — and no longer in flight.
  const core::CachedResult* hit = cache.lookup(0, 10.0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->status, core::QueryStatus::kOk);
  EXPECT_EQ(hit->distances, d0);
  EXPECT_EQ(cache.lookup_inflight(0, 10.0), nullptr);

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().inflight_hits, 1u);
  EXPECT_EQ(cache.stats().publishes, 1u);
}

TEST(ResultCache, PublishedFailureSharesInFlightThenExpiresAtLookup) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache());
  cache.publish(0, core::QueryStatus::kFailed, {}, 10.0);

  // While in flight the failure is shared (a single-flight waiter inherits
  // it: same fault outcome as the producer)...
  const core::CachedResult* flight = cache.lookup_inflight(0, 5.0);
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->status, core::QueryStatus::kFailed);
  EXPECT_TRUE(flight->distances.empty());

  // ...but once published it must NOT poison later queries: the first
  // exact-hit lookup expires it and the source resolves fresh.
  EXPECT_EQ(cache.lookup(0, 11.0), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  const std::vector<Distance> d0 = dijkstra_distances(csr, 0);
  cache.publish(0, core::QueryStatus::kOk, d0, 20.0);
  ASSERT_NE(cache.lookup(0, 20.0), nullptr);
}

TEST(ResultCache, CompletedPublishReplacesFailedAndEarlierPublishWins) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache());
  const std::vector<Distance> d0 = dijkstra_distances(csr, 0);

  cache.publish(0, core::QueryStatus::kFailed, {}, 30.0);
  cache.publish(0, core::QueryStatus::kOk, d0, 40.0);  // completed beats failed
  const core::CachedResult* entry = cache.lookup_inflight(0, 0.0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->status, core::QueryStatus::kOk);
  EXPECT_EQ(entry->publish_ms, 40.0);

  cache.publish(0, core::QueryStatus::kRecovered, d0, 35.0);  // earlier wins
  entry = cache.lookup_inflight(0, 0.0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->publish_ms, 35.0);
  cache.publish(0, core::QueryStatus::kOk, d0, 45.0);  // later: ignored
  EXPECT_EQ(cache.lookup_inflight(0, 0.0)->publish_ms, 35.0);
}

TEST(ResultCache, EpochBumpInvalidatesEntriesAndLandmarks) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache(/*capacity=*/8, /*landmarks=*/2));
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0), 1.0);
  cache.publish(3, core::QueryStatus::kOk, dijkstra_distances(csr, 3), 2.0);
  ASSERT_EQ(cache.size(), 2u);
  ASSERT_EQ(cache.num_landmarks(), 2u);
  ASSERT_TRUE(cache.is_landmark(0));

  const std::uint64_t epoch_before = cache.epoch();
  cache.bump_epoch();
  EXPECT_EQ(cache.epoch(), epoch_before + 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.num_landmarks(), 0u);
  EXPECT_EQ(cache.lookup(0, 100.0), nullptr);
  std::vector<Distance> bounds;
  EXPECT_FALSE(cache.warm_bounds(5, 100.0, &bounds));
  EXPECT_EQ(cache.stats().invalidations, 4u);
}

// --- unit: frequency-aware admission and eviction --------------------------

// Counts `times` requests for `source`, as the server does once per arrival.
void request(core::ResultCache& cache, VertexId source, int times = 1) {
  for (int i = 0; i < times; ++i) cache.record_request(source);
}

TEST(ResultCache, HotSourceSurvivesAOneOffScanOfColdSources) {
  const Csr csr = test::random_powerlaw_graph(200, 1600, /*seed=*/5);
  constexpr std::size_t kCapacity = 4;
  core::ResultCache cache(csr, small_cache(kCapacity, /*landmarks=*/0));
  request(cache, 0, 3);
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0), 1.0);

  // 2 x capacity cold sources, each asked for once: recency alone would
  // push the hot source out; by count the scan only displaces itself.
  for (VertexId v = 1; v <= 2 * kCapacity; ++v) {
    request(cache, v);
    cache.publish(v, core::QueryStatus::kOk, dijkstra_distances(csr, v),
                  2.0 + v);
  }
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_NE(cache.lookup(0, 100.0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().rejected, kCapacity + 1);
  for (VertexId v = 1; v < kCapacity; ++v) {
    EXPECT_NE(cache.lookup(v, 100.0), nullptr) << v;  // filled free slots
  }
  for (VertexId v = kCapacity; v <= 2 * kCapacity; ++v) {
    EXPECT_EQ(cache.lookup(v, 100.0), nullptr) << v;  // turned away
  }
}

TEST(ResultCache, EqualCountsEvictTheLeastRecentlyUsedEntry) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache(/*capacity=*/2, /*landmarks=*/0));
  request(cache, 0);
  request(cache, 1);
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0), 1.0);
  cache.publish(1, core::QueryStatus::kOk, dijkstra_distances(csr, 1), 2.0);
  ASSERT_NE(cache.lookup(0, 5.0), nullptr);  // touch 0: now 1 is the LRU

  request(cache, 2, 2);  // beats both count-1 entries
  cache.publish(2, core::QueryStatus::kOk, dijkstra_distances(csr, 2), 3.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().rejected, 0u);
  EXPECT_EQ(cache.lookup(1, 5.0), nullptr);   // evicted
  EXPECT_NE(cache.lookup(0, 5.0), nullptr);   // kept (recently used)
  EXPECT_NE(cache.lookup(2, 5.0), nullptr);   // admitted
}

TEST(ResultCache, CountsHalveAfterTheAgingWindowSoAFormerlyHotSourceGoes) {
  const Csr csr = test::random_powerlaw_graph(200, 1600, /*seed=*/7);
  constexpr std::size_t kCapacity = 2;
  constexpr std::size_t kWindow = core::ResultCache::kAgingWindow * kCapacity;
  core::ResultCache cache(csr, small_cache(kCapacity, /*landmarks=*/0));
  request(cache, 0, 6);
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0), 1.0);
  request(cache, 1, 6);
  cache.publish(1, core::QueryStatus::kOk, dijkstra_distances(csr, 1), 2.0);

  // One-off sources fill the window up to its last request...
  VertexId cold = 100;
  for (std::size_t n = 12; n + 1 < kWindow; ++n) request(cache, cold++);
  EXPECT_EQ(cache.request_count(0), 6u);
  EXPECT_EQ(cache.request_count(100), 1u);
  // ...which halves every count and drops the zeros.
  request(cache, cold);
  EXPECT_EQ(cache.request_count(0), 3u);
  EXPECT_EQ(cache.request_count(1), 3u);
  EXPECT_EQ(cache.request_count(100), 0u);

  // Four fresh requests now beat the formerly hot source's aged three
  // (without aging its six would win); 0 is the older of the tied pair.
  request(cache, 2, 4);
  cache.publish(2, core::QueryStatus::kOk, dijkstra_distances(csr, 2), 3.0);
  EXPECT_EQ(cache.stats().rejected, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(0, 10.0), nullptr);
  EXPECT_NE(cache.lookup(1, 10.0), nullptr);
  EXPECT_NE(cache.lookup(2, 10.0), nullptr);
}

TEST(ResultCache, AResultThatDoesNotBeatTheVictimIsNotCached) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache(/*capacity=*/2, /*landmarks=*/0));
  request(cache, 0, 2);
  request(cache, 1, 2);
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0), 1.0);
  cache.publish(1, core::QueryStatus::kOk, dijkstra_distances(csr, 1), 2.0);

  request(cache, 2, 2);  // ties the victim: not enough
  cache.publish(2, core::QueryStatus::kOk, dijkstra_distances(csr, 2), 30.0);
  EXPECT_EQ(cache.stats().rejected, 1u);
  // Not stored at all: neither joinable in flight nor servable later.
  EXPECT_EQ(cache.lookup_inflight(2, 10.0), nullptr);
  EXPECT_EQ(cache.lookup(2, 40.0), nullptr);

  // A failure never displaces a completed entry, whatever its count.
  request(cache, 3, 5);
  cache.publish(3, core::QueryStatus::kFailed, {}, 30.0);
  EXPECT_EQ(cache.lookup_inflight(3, 10.0), nullptr);
  EXPECT_EQ(cache.stats().rejected, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().publishes, 4u);
  EXPECT_NE(cache.lookup(0, 40.0), nullptr);
  EXPECT_NE(cache.lookup(1, 40.0), nullptr);
}

TEST(ResultCache, FailedEntriesAreEvictedBeforeCompletedOnes) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache(/*capacity=*/2, /*landmarks=*/0));
  request(cache, 0, 3);  // the failed source is the most requested
  request(cache, 1);
  cache.publish(0, core::QueryStatus::kFailed, {}, 50.0);  // still in flight
  cache.publish(1, core::QueryStatus::kOk, dijkstra_distances(csr, 1), 2.0);
  ASSERT_EQ(cache.lookup_inflight(0, 10.0)->status,
            core::QueryStatus::kFailed);  // touched most recently

  // The failed entry goes first although it has the highest count and is
  // not the LRU, and it goes even for a source never requested.
  cache.publish(2, core::QueryStatus::kOk, dijkstra_distances(csr, 2), 3.0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().rejected, 0u);
  EXPECT_EQ(cache.lookup_inflight(0, 10.0), nullptr);
  EXPECT_NE(cache.lookup(1, 10.0), nullptr);
  EXPECT_NE(cache.lookup(2, 10.0), nullptr);
}

TEST(ResultCache, RequestCountsSurviveAnEpochBump) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache(/*capacity=*/1, /*landmarks=*/0));
  request(cache, 0, 2);
  request(cache, 1);
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0), 1.0);
  cache.bump_epoch();
  // The graph changed, not the traffic: the entries go, the counts stay.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.request_count(0), 2u);
  EXPECT_EQ(cache.request_count(1), 1u);

  cache.publish(1, core::QueryStatus::kOk, dijkstra_distances(csr, 1), 2.0);
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0), 3.0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(1, 5.0), nullptr);
  EXPECT_NE(cache.lookup(0, 5.0), nullptr);
}

// --- unit: landmark warm bounds --------------------------------------------

TEST(ResultCache, WarmBoundsAreValidUpperBoundsWithZeroAtTheSource) {
  const Csr csr = test::random_powerlaw_graph(200, 1600, /*seed=*/9);
  core::ResultCache cache(csr, small_cache(/*capacity=*/8, /*landmarks=*/3));
  ASSERT_TRUE(cache.graph_symmetric());
  for (const VertexId lm : {VertexId{3}, VertexId{50}, VertexId{120}}) {
    cache.publish(lm, core::QueryStatus::kOk, dijkstra_distances(csr, lm),
                  1.0);
  }
  ASSERT_EQ(cache.num_landmarks(), 3u);

  const VertexId source = 77;
  std::vector<Distance> bounds;
  ASSERT_TRUE(cache.warm_bounds(source, 2.0, &bounds));
  ASSERT_EQ(bounds.size(), csr.num_vertices());
  EXPECT_EQ(bounds[source], 0.0);
  const std::vector<Distance> exact = dijkstra_distances(csr, source);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (bounds[v] == graph::kInfiniteDistance) continue;
    // Triangle inequality: every finite bound dominates the true distance
    // (this is exactly what makes warm-start seeding provably exact).
    EXPECT_GE(bounds[v] + 1e-9, exact[v]) << "vertex " << v;
  }
}

TEST(ResultCache, WarmBoundsRefuseAsymmetricGraphs) {
  const Csr csr = one_way_graph();
  core::ResultCache cache(csr, small_cache());
  EXPECT_FALSE(cache.graph_symmetric());
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0), 1.0);
  std::vector<Distance> bounds;
  EXPECT_FALSE(cache.warm_bounds(1, 2.0, &bounds));
  EXPECT_EQ(cache.stats().warm_starts, 0u);
}

TEST(ResultCache, LandmarksOnlyContributeOncePublished) {
  const Csr csr = test::paper_figure1_graph();
  core::ResultCache cache(csr, small_cache(/*capacity=*/8, /*landmarks=*/1));
  cache.publish(0, core::QueryStatus::kOk, dijkstra_distances(csr, 0),
                /*publish_ms=*/10.0);
  std::vector<Distance> bounds;
  EXPECT_FALSE(cache.warm_bounds(4, 5.0, &bounds));   // still in flight
  EXPECT_TRUE(cache.warm_bounds(4, 10.0, &bounds));   // published
}

// --- integration: QueryServer with the cache on ----------------------------

core::QueryServerOptions cached_server_options(int streams = 2) {
  core::QueryServerOptions sopts;
  sopts.batch.streams = streams;
  sopts.cache.enabled = true;
  sopts.cache.capacity = 32;
  sopts.cache.landmarks = 3;
  return sopts;
}

// A t=0 batch of unbounded queries.
std::vector<core::TrafficQuery> queries_for(
    const std::vector<VertexId>& sources) {
  return core::batch_schedule(sources);
}

TEST(ResultCacheServing, RepeatRunIsServedEntirelyFromCacheBitIdentically) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/11);
  core::QueryServer server(csr, gpusim::test_device(),
                           cached_server_options());
  const std::vector<core::TrafficQuery> queries =
      queries_for({5, 9, 23, 112, 250});

  const core::StreamResult cold = server.run_stream(queries);
  ASSERT_EQ(cold.cached_queries, 0u);
  const core::StreamResult warm = server.run_stream(queries);

  EXPECT_EQ(warm.cached_queries, queries.size());
  // Exact hits never touch a lane: the repeat run costs zero device time.
  EXPECT_EQ(warm.device_makespan_ms, 0.0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(warm.stats[i].query.status, core::QueryStatus::kCacheHit);
    EXPECT_EQ(warm.stats[i].finish_ms, 0.0);
    EXPECT_EQ(warm.queries[i].sssp.distances, cold.queries[i].sssp.distances);
    EXPECT_EQ(warm.queries[i].sssp.distances,
              dijkstra_distances(csr, queries[i].source));
  }
}

TEST(ResultCacheServing, SingleFlightWaitersShareTheProducersResult) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/13);
  core::QueryServer server(csr, gpusim::test_device(),
                           cached_server_options());
  const std::vector<core::TrafficQuery> queries =
      queries_for({42, 42, 42, 42, 42, 42});

  const core::StreamResult result = server.run_stream(queries);
  // One producer solves; the other five attach to its in-flight entry.
  EXPECT_EQ(result.joined_queries, queries.size() - 1);
  EXPECT_EQ(server.result_cache()->stats().inflight_hits,
            queries.size() - 1);
  const std::vector<Distance> exact = dijkstra_distances(csr, 42);
  std::size_t producers = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(result.queries[i].ok);
    EXPECT_EQ(result.queries[i].sssp.distances, exact) << "query " << i;
    if (!result.stats[i].single_flight) {
      ++producers;
      // Waiters share the producer's finish time and status.
    } else {
      EXPECT_EQ(result.stats[i].query.status, core::QueryStatus::kOk);
    }
  }
  EXPECT_EQ(producers, 1u);
}

// The admission policy counts offered arrivals: each schedule arrival and
// each closed-loop re-arrival once, the dispatch-time re-check never.
TEST(ResultCacheServing, EachArrivalIsCountedOnceAndTheDispatchRecheckNever) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/31);
  core::QueryServerOptions options = cached_server_options(/*streams=*/1);
  options.max_pending = 1;  // the rest are turned away and re-arrive
  options.closed_loop.enabled = true;
  options.closed_loop.retry_budget = 2;
  options.closed_loop.backoff_base_ms = 0.1;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const std::vector<VertexId> sources = {5, 9, 23, 112, 250};
  const core::StreamResult result = server.run_stream(queries_for(sources));

  ASSERT_GT(result.retried_arrivals, 0u);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(server.result_cache()->request_count(sources[i]),
              static_cast<std::uint64_t>(result.stats[i].arrivals))
        << "source " << sources[i];
  }
}

TEST(ResultCacheServing, EpochBumpForcesAFreshSolve) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/17);
  core::QueryServer server(csr, gpusim::test_device(),
                           cached_server_options());
  const std::vector<core::TrafficQuery> queries = queries_for({7, 31});

  (void)server.run_stream(queries);
  server.bump_graph_epoch();
  const core::StreamResult fresh = server.run_stream(queries);
  EXPECT_EQ(fresh.cached_queries, 0u);
  EXPECT_EQ(fresh.joined_queries, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(fresh.queries[i].sssp.distances,
              dijkstra_distances(csr, queries[i].source));
  }
}

// Warm-started solves must be bit-identical to cold solves and to the host
// Dijkstra oracle — per engine, per graph family. The landmark phase seeds
// the cache; the probe phase then runs NEW sources, which pick up warm
// bounds (warm_started_queries proves the path actually engaged).
void check_warm_equals_cold(const Csr& csr, core::BatchEngine engine) {
  const std::vector<VertexId> landmark_sources = {1, 3, 5};
  std::vector<VertexId> probes;
  for (VertexId v = 10; v < csr.num_vertices() && probes.size() < 6; v += 37) {
    probes.push_back(v);
  }

  core::QueryServerOptions cached = cached_server_options();
  cached.batch.engine = engine;
  core::QueryServer warm_server(csr, gpusim::test_device(), cached);
  (void)warm_server.run_stream(queries_for(landmark_sources));
  ASSERT_EQ(warm_server.result_cache()->num_landmarks(), 3u);
  const core::StreamResult warm = warm_server.run_stream(queries_for(probes));
  // Every probe that any landmark can reach gets warm bounds; a probe in a
  // component no landmark touches (possible on Kronecker, which has
  // isolated vertices) legitimately runs cold.
  EXPECT_GT(warm.warm_started_queries, 0u);
  EXPECT_LE(warm.warm_started_queries, probes.size());

  core::QueryServerOptions plain = cached_server_options();
  plain.batch.engine = engine;
  plain.cache.enabled = false;
  core::QueryServer cold_server(csr, gpusim::test_device(), plain);
  const core::StreamResult cold = cold_server.run_stream(queries_for(probes));

  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::vector<Distance> oracle = dijkstra_distances(csr, probes[i]);
    EXPECT_EQ(warm.queries[i].sssp.distances, oracle) << "probe " << i;
    EXPECT_EQ(cold.queries[i].sssp.distances, oracle) << "probe " << i;
    EXPECT_EQ(warm.queries[i].sssp.distances,
              cold.queries[i].sssp.distances)
        << "probe " << i;
  }
}

TEST(ResultCacheServing, WarmStartMatchesColdAndDijkstraOnErGraph) {
  const Csr csr = er_graph(256, 2048, /*seed=*/21);
  check_warm_equals_cold(csr, core::BatchEngine::kRdbs);
  check_warm_equals_cold(csr, core::BatchEngine::kAdds);
}

TEST(ResultCacheServing, WarmStartMatchesColdAndDijkstraOnKroneckerGraph) {
  const Csr csr = kronecker_graph(/*scale=*/8, /*seed=*/23);
  check_warm_equals_cold(csr, core::BatchEngine::kRdbs);
  check_warm_equals_cold(csr, core::BatchEngine::kAdds);
}

TEST(ResultCacheServing, WarmStartMatchesColdAndDijkstraOnGridGraph) {
  const Csr csr = test::random_grid_graph(/*side=*/18, /*seed=*/25);
  check_warm_equals_cold(csr, core::BatchEngine::kRdbs);
  check_warm_equals_cold(csr, core::BatchEngine::kAdds);
}

// The full serving result — statuses, finish times, distances, cache
// counters — must be bit-identical across reruns for every stream count,
// cache on (streams repartition simulated time, never functional state;
// the cache keys on vertex ids and the serving clock only).
TEST(ResultCacheServing, BitIdenticalAcrossRerunsForEveryStreamCount) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/29);
  const std::vector<core::TrafficQuery> first =
      queries_for({5, 9, 9, 23, 112, 5, 250, 9});
  const std::vector<core::TrafficQuery> second =
      queries_for({9, 5, 17, 23, 23, 250});

  for (const int streams : {1, 4}) {
    std::vector<core::StreamResult> runs1, runs2;
    for (int run = 0; run < 2; ++run) {
      core::QueryServer server(csr, gpusim::test_device(),
                               cached_server_options(streams));
      runs1.push_back(server.run_stream(first));
      runs2.push_back(server.run_stream(second));
    }
    const auto expect_same = [&](const core::StreamResult& a,
                                 const core::StreamResult& b) {
      ASSERT_EQ(a.stats.size(), b.stats.size());
      EXPECT_EQ(a.cached_queries, b.cached_queries);
      EXPECT_EQ(a.joined_queries, b.joined_queries);
      EXPECT_EQ(a.warm_started_queries, b.warm_started_queries);
      EXPECT_EQ(a.device_makespan_ms, b.device_makespan_ms);
      for (std::size_t i = 0; i < a.stats.size(); ++i) {
        EXPECT_EQ(a.stats[i].query.status, b.stats[i].query.status)
            << "streams " << streams << " query " << i;
        EXPECT_EQ(a.stats[i].finish_ms, b.stats[i].finish_ms)
            << "streams " << streams << " query " << i;
        EXPECT_EQ(a.stats[i].single_flight, b.stats[i].single_flight);
        EXPECT_EQ(a.queries[i].sssp.distances, b.queries[i].sssp.distances)
            << "streams " << streams << " query " << i;
      }
    };
    expect_same(runs1[0], runs1[1]);
    expect_same(runs2[0], runs2[1]);
    // Completed/cached distances are oracle-exact in every configuration.
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(runs1[0].queries[i].sssp.distances,
                dijkstra_distances(csr, first[i].source));
    }
    // The repeat batch is dominated by reuse: every repeated source is an
    // exact hit, every first-seen one a fresh solve.
    EXPECT_GT(runs2[0].cached_queries, 0u);
  }
}

}  // namespace
}  // namespace rdbs
