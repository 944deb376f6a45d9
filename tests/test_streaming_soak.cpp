// Streaming soak (ISSUE 7 satellite): a seeded 10k-query mixed-class
// schedule crushing a 4-lane server on the k-n18 Kronecker surrogate,
// served from a memory-mapped on-disk CSR (graph::MappedCsr) the way a
// long-lived server process would hold it.
//
// The offered load is far past device capacity on purpose: the soak's
// value is exercising every serving path at volume — admission-queue
// sheds, predicted-miss sheds, queue expiry, EDF + aging promotions,
// breaker trips from injected faults, half-open probes, reroutes — and
// pinning the AGGREGATE outcome (per-class tallies, p99 sojourn, makespan)
// in a golden snapshot. Any change to the scheduler, the cost model or the
// traffic generator shows up here as a readable diff.
//
// Regenerate intentionally with:
//   RDBS_UPDATE_GOLDEN=1 ./tests/test_streaming_soak
// and commit the updated file under tests/golden/ with an explanation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/query_server.hpp"
#include "graph/io.hpp"
#include "graph/surrogates.hpp"
#include "sssp/dijkstra.hpp"

#ifndef RDBS_GOLDEN_DIR
#error "tests/CMakeLists.txt must define RDBS_GOLDEN_DIR"
#endif

namespace rdbs {
namespace {

using graph::Csr;

bool completed(core::QueryStatus status) {
  return status == core::QueryStatus::kOk ||
         status == core::QueryStatus::kRecovered ||
         status == core::QueryStatus::kCpuFallback;
}

TEST(StreamingSoak, TenThousandMixedClassQueriesOnMappedKn18) {
  // --- the graph: k-n18 surrogate, round-tripped through the mmap path --
  const Csr built = graph::load_dataset_by_name("k-n18-16");
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rdbs_soak_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string bin_path = (dir / "k-n18.csr").string();
  graph::write_binary_csr(built, bin_path);
  const graph::MappedCsr mapped(bin_path);
  ASSERT_EQ(mapped.num_vertices(), built.num_vertices());
  ASSERT_EQ(mapped.num_edges(), built.num_edges());
  const Csr csr = mapped.to_csr();
  ASSERT_TRUE(std::equal(csr.row_offsets().begin(), csr.row_offsets().end(),
                         built.row_offsets().begin(),
                         built.row_offsets().end()));
  ASSERT_TRUE(std::equal(csr.adjacency().begin(), csr.adjacency().end(),
                         built.adjacency().begin(), built.adjacency().end()));
  ASSERT_TRUE(std::equal(csr.weights().begin(), csr.weights().end(),
                         built.weights().begin(), built.weights().end()));
  std::filesystem::remove_all(dir);

  // --- the server: 4 lanes, aging on, breakers over injected faults -------
  core::QueryServerOptions options;
  options.batch.streams = 4;
  options.batch.gpu.delta0 = 150.0;
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 18;
  options.batch.gpu.fault.launch_failure = 0.005;
  options.batch.gpu.fault.max_faults = 400;  // default 4: too calm to soak
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 2.0;
  options.aging_ms = 1.0;
  options.max_pending = 64;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const double seed_ms = server.batch().cost_seed_ms();

  // --- the traffic: 10k bursty mixed-class queries at ~20x capacity ------
  // Rates and deadlines are expressed in units of the a-priori per-query
  // cost estimate, so the soak stays "brutally overloaded but not all
  // infeasible" even if the cost model is retuned.
  core::TrafficSpec spec;
  spec.process = core::ArrivalProcess::kBursty;
  spec.seed = 18;
  spec.num_queries = 10000;
  spec.rate_qpms = 20.0 * options.batch.streams / seed_ms;  // in-burst QPS
  spec.burst_factor = 1.0;
  spec.idle_factor = 0.1;
  spec.burst_on_ms = 12.0 * seed_ms;
  spec.burst_off_ms = 24.0 * seed_ms;
  spec.zipf_s = 1.1;
  spec.source_universe = 512;
  spec.class_mix = {0.5, 0.3, 0.2};
  spec.class_deadline_ms = {4.0 * seed_ms, 10.0 * seed_ms, 40.0 * seed_ms};
  const std::vector<core::TrafficQuery> schedule =
      core::generate_traffic(spec, csr.num_vertices());

  const core::StreamResult result = server.run_stream(schedule);

  // --- invariants at volume ----------------------------------------------
  ASSERT_EQ(result.stats.size(), schedule.size());
  std::vector<double> sojourns;
  std::uint64_t checked = 0, promotions = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const core::StreamQueryStats& sq = result.stats[i];
    promotions += static_cast<std::uint64_t>(sq.promotions);
    if (completed(sq.query.status)) {
      sojourns.push_back(sq.sojourn_ms);
      EXPECT_LE(sq.finish_ms, sq.deadline_ms + 1e-9) << i;
      // Oracle-exactness on a deterministic sample (every 7th completion);
      // full verification would dominate the soak's runtime.
      if (++checked % 7 == 0) {
        EXPECT_EQ(result.queries[i].sssp.distances,
                  sssp::dijkstra(csr, schedule[i].source).distances)
            << i;
      }
    } else {
      EXPECT_TRUE(result.queries[i].sssp.distances.empty()) << i;
      if (sq.query.status == core::QueryStatus::kShedded) {
        EXPECT_EQ(sq.query.device_ms, 0.0) << i;
      }
    }
  }
  const std::uint64_t done =
      result.ok_queries + result.recovered_queries + result.fallback_queries;
  EXPECT_EQ(done + result.failed_queries + result.deadline_queries +
                result.shed_queries,
            schedule.size());
  // The soak must actually soak: plenty of completions AND plenty of
  // shedding, faults recovered, lanes rerouted around open breakers.
  EXPECT_GT(done, 100u);
  EXPECT_GT(result.shed_queries, 1000u);
  EXPECT_GT(result.deadline_queries, 0u);
  EXPECT_GT(result.recovered_queries, 0u);
  EXPECT_GT(result.rerouted_queries, 0u);
  EXPECT_GT(promotions, 0u);
  EXPECT_FALSE(result.breaker_events.empty());
  ASSERT_FALSE(sojourns.empty());

  std::sort(sojourns.begin(), sojourns.end());
  const double p50 = sojourns[(sojourns.size() - 1) / 2];
  const double p99 =
      sojourns[static_cast<std::size_t>(
          0.99 * static_cast<double>(sojourns.size() - 1))];

  // --- golden aggregate snapshot ------------------------------------------
  std::ostringstream out;
  out << "offered " << schedule.size() << '\n'
      << "completed " << done << " ok " << result.ok_queries << " recovered "
      << result.recovered_queries << " fallback " << result.fallback_queries
      << '\n'
      << "shed " << result.shed_queries << " missed "
      << result.deadline_queries << " failed " << result.failed_queries
      << '\n'
      << "hedged " << result.hedged_queries << " rerouted "
      << result.rerouted_queries << " promotions " << promotions << '\n'
      << "overrun_kernels " << result.overrun_kernels << '\n'
      << "breaker_events " << result.breaker_events.size() << '\n';
  for (int c = 0; c < core::kNumTrafficClasses; ++c) {
    const core::ClassTally& tally =
        result.classes[static_cast<std::size_t>(c)];
    out << "class " << core::traffic_class_name(
               static_cast<core::TrafficClass>(c))
        << " offered " << tally.offered << " completed " << tally.completed
        << " shed " << tally.shed << " missed " << tally.missed << " failed "
        << tally.failed << '\n';
  }
  out << std::hexfloat << "p50_sojourn_ms " << p50 << '\n'
      << "p99_sojourn_ms " << p99 << '\n'
      << "makespan_ms " << result.makespan_ms << '\n'
      << "device_makespan_ms " << result.device_makespan_ms << '\n';

  const std::string path =
      std::string(RDBS_GOLDEN_DIR) + "/soak_stream_kn18_s18.txt";
  const std::string actual = out.str();
  if (std::getenv("RDBS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with RDBS_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "soak aggregate drifted from " << path
      << " — if the change is intentional, regenerate with "
         "RDBS_UPDATE_GOLDEN=1 and commit the diff";
}

// Cached soak (ISSUE 9 satellite): the same mmap'd k-n18 served through a
// result-cache-enabled server under hot-Zipf traffic — 10k queries over 64
// distinct sources, so the cache's whole surface fires at volume: exact
// hits, single-flight joins on concurrent duplicates, landmark warm starts
// on misses, and frequency-based admission and eviction (capacity 16 <
// universe 64). Every completed query — hit, join or solve — is checked
// against a per-source memoized Dijkstra oracle, so the miss path is held
// to the same contract as before the cache existed. The aggregate
// (including the cache counters) is pinned in its own golden snapshot.
TEST(StreamingSoak, CachedKn18SliceServesHotSourcesFromTheCache) {
  // The long-lived-server posture again: the CSR is served from an mmap'd
  // on-disk image, while the cache holds its landmark vectors on the side.
  const Csr built = graph::load_dataset_by_name("k-n18-16");
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rdbs_soak_cache_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string bin_path = (dir / "k-n18.csr").string();
  graph::write_binary_csr(built, bin_path);
  const graph::MappedCsr mapped(bin_path);
  const Csr csr = mapped.to_csr();
  std::filesystem::remove_all(dir);
  ASSERT_EQ(csr.num_vertices(), built.num_vertices());

  core::QueryServerOptions options;
  options.batch.streams = 4;
  options.batch.gpu.delta0 = 150.0;
  options.aging_ms = 1.0;
  options.max_pending = 64;
  options.cache.enabled = true;
  options.cache.capacity = 16;  // < source universe: eviction stays hot
  options.cache.landmarks = 4;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const double seed_ms = server.batch().cost_seed_ms();

  core::TrafficSpec spec;
  spec.process = core::ArrivalProcess::kBursty;
  spec.seed = 9;
  spec.num_queries = 10000;
  spec.rate_qpms = 20.0 * options.batch.streams / seed_ms;
  spec.burst_factor = 1.0;
  spec.idle_factor = 0.1;
  spec.burst_on_ms = 12.0 * seed_ms;
  spec.burst_off_ms = 24.0 * seed_ms;
  spec.zipf_s = 1.3;
  spec.source_universe = 64;
  spec.class_mix = {0.5, 0.3, 0.2};
  spec.class_deadline_ms = {4.0 * seed_ms, 10.0 * seed_ms, 40.0 * seed_ms};
  const std::vector<core::TrafficQuery> schedule =
      core::generate_traffic(spec, csr.num_vertices());

  const core::StreamResult result = server.run_stream(schedule);

  // Every completed query against the oracle. Hot sources repeat, so one
  // Dijkstra per DISTINCT source (≤ 64) covers thousands of completions.
  ASSERT_EQ(result.stats.size(), schedule.size());
  std::map<graph::VertexId, std::vector<graph::Distance>> oracle;
  std::vector<double> sojourns;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const core::StreamQueryStats& sq = result.stats[i];
    const bool done = completed(sq.query.status) ||
                      sq.query.status == core::QueryStatus::kCacheHit;
    if (!done) {
      EXPECT_TRUE(result.queries[i].sssp.distances.empty()) << i;
      continue;
    }
    sojourns.push_back(sq.sojourn_ms);
    auto it = oracle.find(schedule[i].source);
    if (it == oracle.end()) {
      it = oracle.emplace(schedule[i].source,
                          sssp::dijkstra(csr, schedule[i].source).distances)
               .first;
    }
    EXPECT_EQ(result.queries[i].sssp.distances, it->second)
        << i << " (" << core::query_status_name(sq.query.status) << ")";
    if (sq.query.status == core::QueryStatus::kCacheHit) {
      EXPECT_EQ(sq.query.device_ms, 0.0) << i;
    }
  }
  const std::uint64_t done = result.ok_queries + result.recovered_queries +
                             result.fallback_queries + result.cached_queries;

  // The cache must have pulled real weight: exact hits, in-flight joins and
  // warm starts all in the thousands-of-queries regime, and the hit path
  // must dominate the class tallies' completions vs the uncached soak.
  EXPECT_GT(result.cached_queries, 0u);
  EXPECT_GT(result.joined_queries, 0u);
  EXPECT_GT(result.warm_started_queries, 0u);
  EXPECT_GT(done, 1000u);
  ASSERT_FALSE(sojourns.empty());

  std::sort(sojourns.begin(), sojourns.end());
  const double p50 = sojourns[(sojourns.size() - 1) / 2];
  const double p99 =
      sojourns[static_cast<std::size_t>(
          0.99 * static_cast<double>(sojourns.size() - 1))];

  std::ostringstream out;
  out << "offered " << schedule.size() << '\n'
      << "completed " << done << " ok " << result.ok_queries << " recovered "
      << result.recovered_queries << " fallback " << result.fallback_queries
      << '\n'
      << "cache_hits " << result.cached_queries << " joins "
      << result.joined_queries << " warm_starts "
      << result.warm_started_queries << '\n'
      << "shed " << result.shed_queries << " missed "
      << result.deadline_queries << " failed " << result.failed_queries
      << '\n';
  for (int c = 0; c < core::kNumTrafficClasses; ++c) {
    const core::ClassTally& tally =
        result.classes[static_cast<std::size_t>(c)];
    out << "class " << core::traffic_class_name(
               static_cast<core::TrafficClass>(c))
        << " offered " << tally.offered << " completed " << tally.completed
        << " shed " << tally.shed << " missed " << tally.missed << " failed "
        << tally.failed << '\n';
  }
  out << std::hexfloat << "p50_sojourn_ms " << p50 << '\n'
      << "p99_sojourn_ms " << p99 << '\n'
      << "makespan_ms " << result.makespan_ms << '\n'
      << "device_makespan_ms " << result.device_makespan_ms << '\n';

  const std::string path =
      std::string(RDBS_GOLDEN_DIR) + "/soak_cache_kn18_s9.txt";
  const std::string actual = out.str();
  if (std::getenv("RDBS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with RDBS_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "cached soak aggregate drifted from " << path
      << " — if the change is intentional, regenerate with "
         "RDBS_UPDATE_GOLDEN=1 and commit the diff";
}

// Sanitized soak (ISSUE 8 satellite): a shorter slice of the same k-n18
// mixed-class schedule with gsan v2 enabled — per-launch scans plus the
// cross-stream happens-before detector and the no-progress checker watching
// all four lanes, with fault injection and recovery still on. The serving
// layer's contract: a brutal but correct run produces ZERO hazards.
TEST(StreamingSoak, SanitizedKn18SliceReportsZeroHazards) {
  const Csr csr = graph::load_dataset_by_name("k-n18-16");

  core::QueryServerOptions options;
  options.batch.streams = 4;
  options.batch.gpu.delta0 = 150.0;
  options.batch.gpu.sanitize = gpusim::SanitizeMode::kOn;
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 18;
  options.batch.gpu.fault.launch_failure = 0.005;
  options.batch.gpu.fault.max_faults = 80;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 2.0;
  options.aging_ms = 1.0;
  options.max_pending = 64;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const double seed_ms = server.batch().cost_seed_ms();

  core::TrafficSpec spec;
  spec.process = core::ArrivalProcess::kBursty;
  spec.seed = 18;
  spec.num_queries = 1500;
  spec.rate_qpms = 20.0 * options.batch.streams / seed_ms;
  spec.burst_factor = 1.0;
  spec.idle_factor = 0.1;
  spec.burst_on_ms = 12.0 * seed_ms;
  spec.burst_off_ms = 24.0 * seed_ms;
  spec.zipf_s = 1.1;
  spec.source_universe = 512;
  spec.class_mix = {0.5, 0.3, 0.2};
  spec.class_deadline_ms = {4.0 * seed_ms, 10.0 * seed_ms, 40.0 * seed_ms};
  const std::vector<core::TrafficQuery> schedule =
      core::generate_traffic(spec, csr.num_vertices());

  const core::StreamResult result = server.run_stream(schedule);

  ASSERT_NE(server.batch().sim().sanitizer(), nullptr);
  EXPECT_EQ(server.batch().sim().sanitizer()->report(), "");

  // Still a soak, not a smoke test: plenty of completions AND shedding,
  // with faults actually fired and recovered under the sanitizer's eye.
  const std::uint64_t done =
      result.ok_queries + result.recovered_queries + result.fallback_queries;
  ASSERT_EQ(result.stats.size(), schedule.size());
  EXPECT_GT(done, 50u);
  EXPECT_GT(result.shed_queries, 100u);
  EXPECT_GT(result.recovered_queries, 0u);
}

}  // namespace
}  // namespace rdbs
