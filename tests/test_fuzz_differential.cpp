// Differential fuzzing: every SSSP engine in the library against the
// Dijkstra oracle on randomized graphs.
//
// Each case derives everything — graph family and size, weight scheme,
// zero-weight and duplicate-edge injection, symmetrization, Δ0, engine
// and flag combination, source vertex — from one 64-bit case seed, so a
// failure reproduces from the seed alone. The seed and the full case
// description are printed in the failure message.
//
// Weights are integer-valued doubles (0..1000), so path sums are exact
// and every engine must match Dijkstra EXACTLY, not approximately.
//
// The tier-1 run does kDefaultIters cases (a few per engine family);
// the nightly job raises it via the RDBS_FUZZ_ITERS environment
// variable (see ci/run_tier1.sh) and additionally sets
// RDBS_FUZZ_SANITIZE=1 so every simulated case runs under gsan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/adds.hpp"
#include "core/engine.hpp"
#include "core/query_batch.hpp"
#include "core/query_server.hpp"
#include "core/rdbs.hpp"
#include "core/traffic.hpp"
#include "common/rng.hpp"
#include "gpusim/fault.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/ligra_like.hpp"
#include "sssp/pq_delta_star.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;
using graph::Weight;

constexpr int kDefaultIters = 50;

int fuzz_iterations() {
  const char* env = std::getenv("RDBS_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return kDefaultIters;
  const int iters = std::atoi(env);
  return iters > 0 ? iters : kDefaultIters;
}

// RDBS_FUZZ_SANITIZE=1 runs every simulated engine under gsan
// (docs/sanitizer.md) and fails the case if any hazard is reported.
// The nightly workflow sets it, turning the long fuzz into a hazard
// sweep over thousands of random graphs as well as an oracle check.
gpusim::SanitizeMode fuzz_sanitize() {
  const char* env = std::getenv("RDBS_FUZZ_SANITIZE");
  return (env != nullptr && *env != '\0' && *env != '0')
             ? gpusim::SanitizeMode::kOn
             : gpusim::SanitizeMode::kOff;
}

// RDBS_FUZZ_FAULTS=1 additionally runs every simulated case under a
// seed-derived gfi fault plan (docs/fault_injection.md): random bit flips,
// launch failures, timeouts, stalls and the occasional device loss. The
// oracle requirement is UNCHANGED — recovery must land on distances exactly
// equal to Dijkstra — so this mode fuzzes the retry/fallback machinery with
// the same reproduce-from-seed property as the base fuzzer. It also turns
// on the checkpoint leg (run_checkpoint_case below).
bool fuzz_faults() {
  const char* env = std::getenv("RDBS_FUZZ_FAULTS");
  return env != nullptr && *env != '\0' && *env != '0';
}

// RDBS_FUZZ_OVERLOAD=1 additionally pushes every query-batch case through
// the QueryServer front end (docs/serving.md) as a t=0 schedule with
// seed-derived deadlines, queue limits and circuit-breaker churn (random
// trip_lane before the run). The oracle requirement splits by outcome: every COMPLETED query
// (ok / recovered / cpu-fallback) must carry distances exactly equal to
// Dijkstra's and finish within its deadline; every non-completed query
// (shed / deadline / failed) must carry no distances at all. The same knob
// also enables the streaming-chaos leg (run_streaming_chaos_case below):
// seed-derived traffic schedules through run_stream(), with bit-identity
// asserted across two runs. The nightly workflow sets it together
// with RDBS_FUZZ_FAULTS, turning the long fuzz into an overload-chaos sweep
// over the whole serving stack.
bool fuzz_overload() {
  const char* env = std::getenv("RDBS_FUZZ_OVERLOAD");
  return env != nullptr && *env != '\0' && *env != '0';
}

// RDBS_FUZZ_CACHE=0 disables the result-cache leg (run_cache_case below):
// seed-derived hot-Zipf traffic served twice, cache on and cache off, with
// per-query distance identity against the Dijkstra oracle and cache-on
// bit-identity across two runs. ON by default — the leg is cheap
// and warm-start seeding touches the engines' frontier initialization, the
// riskiest code the cache reaches. Combined with RDBS_FUZZ_SANITIZE=1 it
// also proves warm-start seeding introduces no gsan hazards.
bool fuzz_cache() {
  const char* env = std::getenv("RDBS_FUZZ_CACHE");
  return env == nullptr || *env == '\0' || *env != '0';
}

// RDBS_FUZZ_WARM=0 disables the warm-start leg (run_warm_case below):
// every warm-start-capable engine case is re-run seeded with an ARBITRARY
// valid upper-bound vector — the Dijkstra oracle inflated by seed-derived
// non-negative integer slack with a sprinkle of +inf "unknown" entries —
// and must land on distances bit-identical to the cold run. ON by default:
// this is the exactness argument behind checkpoint-resume and landmark
// warm starts (any valid upper bound is a correct seed for a
// label-correcting engine), exercised far from the tidy bounds the cache
// produces.
bool fuzz_warm() {
  const char* env = std::getenv("RDBS_FUZZ_WARM");
  return env == nullptr || *env == '\0' || *env != '0';
}

gpusim::FaultConfig fuzz_fault_config(std::uint64_t case_seed) {
  gpusim::FaultConfig cfg;
  if (!fuzz_faults()) return cfg;  // disabled
  cfg.enabled = true;
  cfg.seed = case_seed ^ 0xfa51751ca5e5eedull;
  cfg.bit_flip_per_load = 1e-3;
  cfg.correctable_fraction = 0.5;
  cfg.launch_failure = 0.05;
  cfg.timeout = 0.02;
  cfg.stream_stall = 0.05;
  cfg.device_loss = 0.01;
  return cfg;
}

core::RetryPolicy fuzz_retry_policy() {
  core::RetryPolicy retry;
  retry.max_attempts = 4;  // budget (max_faults=4) always drains in time
  return retry;
}

// splitmix64: master seed + case index -> independent case seed.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index) {
  std::uint64_t z = master + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Engine families the fuzzer cycles through. Every case exercises exactly
// one; 50 iterations cover each family a few times. kAdds through kDavidson
// are built from the engine registry (core/engine.hpp) by their
// engine_name().
enum class Engine {
  kRdbs,        // GpuDeltaStepping via RdbsSolver, random flag combo
  kBatch,       // QueryBatch (concurrent streams) with the RDBS engine
  kAdds,        // ADDS comparator
  kGunrock,     // gunrock-like frontier SSSP
  kSepHybrid,   // SEP mode-switching hybrid
  kHarish,      // Harish-Narayanan 2007 legacy kernel
  kDavidson,    // Davidson near/far legacy kernel
  kCpuDelta,    // host Δ-stepping
  kCpuPqDelta,  // host PQ-Δ*
  kCpuBellman,  // host Bellman-Ford
  kCpuLigra,    // host Ligra-style edge_map Bellman-Ford
  kCount,
};

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kRdbs: return "rdbs";
    case Engine::kBatch: return "query-batch";
    case Engine::kAdds: return "adds";
    case Engine::kGunrock: return "gunrock";
    case Engine::kSepHybrid: return "sep";
    case Engine::kHarish: return "hn07";
    case Engine::kDavidson: return "davidson";
    case Engine::kCpuDelta: return "cpu-delta";
    case Engine::kCpuPqDelta: return "cpu-pq-delta";
    case Engine::kCpuBellman: return "cpu-bellman-ford";
    case Engine::kCpuLigra: return "cpu-ligra";
    case Engine::kCount: break;
  }
  return "?";
}

struct FuzzCase {
  std::uint64_t seed = 0;
  Engine engine = Engine::kRdbs;
  int family = 0;           // 0 ER, 1 Kronecker, 2 grid/road-like
  bool symmetrize = false;
  bool zero_weights = false;
  bool duplicate_edges = false;
  Weight delta0 = 1;
  VertexId source = 0;
  // RDBS flag combo (kRdbs/kBatch only).
  bool basyn = true, pro = true, adwl = true;
  int streams = 1;          // kBatch only

  std::string describe() const {
    std::ostringstream out;
    out << "seed=" << seed << " engine=" << engine_name(engine)
        << " family=" << (family == 0 ? "erdos-renyi"
                                      : family == 1 ? "kronecker" : "grid")
        << " symmetrize=" << symmetrize << " zero_weights=" << zero_weights
        << " duplicate_edges=" << duplicate_edges << " delta0=" << delta0
        << " source=" << source;
    if (engine == Engine::kRdbs || engine == Engine::kBatch) {
      out << " basyn=" << basyn << " pro=" << pro << " adwl=" << adwl;
    }
    if (engine == Engine::kBatch) out << " streams=" << streams;
    return out.str();
  }
};

Csr build_case_graph(const FuzzCase& c, Xoshiro256& rng) {
  graph::EdgeList edges;
  switch (c.family) {
    case 0: {  // Erdős–Rényi G(n, m)
      graph::UniformRandomParams params;
      params.num_vertices =
          static_cast<VertexId>(rng.uniform_int(20, 400));
      params.num_edges = static_cast<graph::EdgeIndex>(rng.uniform_int(
          params.num_vertices, params.num_vertices * 8));
      params.seed = rng.next();
      edges = graph::generate_uniform_random(params);
      break;
    }
    case 1: {  // Kronecker / R-MAT (scale-free, the paper's synthetic)
      graph::KroneckerParams params;
      params.scale = static_cast<int>(rng.uniform_int(5, 8));
      params.edgefactor = static_cast<int>(rng.uniform_int(4, 10));
      params.seed = rng.next();
      edges = graph::generate_kronecker(params);
      break;
    }
    default: {  // thinned grid (road-like: high diameter, low degree)
      graph::GridParams params;
      params.width = static_cast<VertexId>(rng.uniform_int(4, 20));
      params.height = static_cast<VertexId>(rng.uniform_int(4, 20));
      params.keep_probability = 0.7 + 0.3 * rng.uniform_real();
      params.seed = rng.next();
      edges = graph::generate_grid(params);
      break;
    }
  }
  // Integer weights keep double sums exact -> exact oracle comparison.
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000,
                        rng.next());
  if (c.zero_weights && !edges.edges.empty()) {
    // Zero out ~10% of edges: exercises same-bucket re-relaxation chains.
    for (auto& e : edges.edges) {
      if (rng.next_below(10) == 0) e.weight = 0;
    }
  }
  if (c.duplicate_edges && !edges.edges.empty()) {
    // Re-add ~10% of edges with a different weight; build_csr keeps the
    // min-weight copy, so the oracle and engine see the same graph.
    const std::size_t dups = 1 + edges.edges.size() / 10;
    for (std::size_t i = 0; i < dups; ++i) {
      auto copy = edges.edges[rng.next_below(edges.edges.size())];
      copy.weight = static_cast<Weight>(rng.uniform_int(0, 1000));
      edges.edges.push_back(copy);
    }
  }
  graph::BuildOptions build;
  build.symmetrize = c.symmetrize;
  return graph::build_csr(edges, build);
}

std::vector<graph::Distance> run_engine(const FuzzCase& c, const Csr& csr,
                                        std::string* sanitizer_report) {
  const gpusim::DeviceSpec device = gpusim::test_device();
  const gpusim::SanitizeMode sanitize = fuzz_sanitize();
  const gpusim::FaultConfig fault = fuzz_fault_config(c.seed);
  const core::RetryPolicy retry = fuzz_retry_policy();
  switch (c.engine) {
    case Engine::kRdbs: {
      core::GpuSsspOptions options;
      options.basyn = c.basyn;
      options.pro = c.pro;
      options.adwl = c.adwl;
      options.delta0 = c.delta0;
      options.sanitize = sanitize;
      options.fault = fault;
      options.retry = retry;
      core::RdbsSolver solver(csr, device, options);
      auto result = solver.solve(c.source);
      *sanitizer_report = std::move(result.sanitizer_report);
      return std::move(result.sssp.distances);
    }
    case Engine::kBatch: {
      core::QueryServerOptions options;
      options.batch.streams = c.streams;
      options.batch.gpu.basyn = c.basyn;
      options.batch.gpu.pro = c.pro;
      options.batch.gpu.adwl = c.adwl;
      options.batch.gpu.delta0 = c.delta0;
      options.batch.gpu.sanitize = sanitize;
      options.batch.gpu.fault = fault;
      options.batch.gpu.retry = retry;
      core::QueryServer server(csr, device, options);
      const VertexId sources[1] = {c.source};
      auto result = server.run_stream(core::batch_schedule(sources));
      if (const gpusim::Sanitizer* san = server.batch().sim().sanitizer()) {
        *sanitizer_report = san->report();
      }
      return std::move(result.queries[0].sssp.distances);
    }
    case Engine::kAdds:
    case Engine::kGunrock:
    case Engine::kSepHybrid:
    case Engine::kHarish:
    case Engine::kDavidson: {
      core::EngineOptions options;
      options.sanitize = sanitize;
      options.fault = fault;
      options.retry = retry;
      auto result = core::gpu_engine(engine_name(c.engine))
                        ->make(device, csr, options, c.delta0)
                        ->run(c.source);
      *sanitizer_report = std::move(result.sanitizer_report);
      return std::move(result.sssp.distances);
    }
    case Engine::kCpuDelta:
      return sssp::delta_stepping_distances(csr, c.source, c.delta0)
          .distances;
    case Engine::kCpuPqDelta: {
      sssp::PqDeltaStarOptions options;
      options.delta_star = c.delta0;
      return sssp::pq_delta_star(csr, c.source, options).distances;
    }
    case Engine::kCpuBellman:
      return sssp::bellman_ford(csr, c.source).distances;
    case Engine::kCpuLigra:
      return sssp::ligra::sssp_bellman_ford(csr, c.source).sssp.distances;
    case Engine::kCount: break;
  }
  ADD_FAILURE() << "unhandled engine";
  return {};
}

// Overload-chaos leg of a kBatch fuzz case: same engine flags and fault
// plan, served through QueryServer::run_stream as a t=0 batch under
// randomized pressure. All serving
// knobs derive from the case seed, so a failure still reproduces from the
// seed alone.
void run_overload_case(const FuzzCase& c, const Csr& csr, int case_index) {
  Xoshiro256 rng(c.seed ^ 0x0f5e71de5e11aadull);
  core::QueryServerOptions options;
  options.batch.streams = c.streams;
  options.batch.gpu.basyn = c.basyn;
  options.batch.gpu.pro = c.pro;
  options.batch.gpu.adwl = c.adwl;
  options.batch.gpu.delta0 = c.delta0;
  options.batch.gpu.sanitize = fuzz_sanitize();
  options.batch.gpu.fault = fuzz_fault_config(c.seed);
  options.batch.gpu.retry = fuzz_retry_policy();
  options.max_pending = 1 + static_cast<int>(rng.next_below(8));
  options.shed_on_overload = rng.next_below(2) == 0;
  options.hedge_to_cpu = rng.next_below(2) == 0;
  options.breaker.enabled = rng.next_below(2) == 0;
  options.breaker.failure_threshold = 1 + static_cast<int>(rng.next_below(3));
  options.breaker.cooldown_ms = 0.01 * static_cast<double>(rng.next_below(64));
  options.breaker.half_open_probes = 1 + static_cast<int>(rng.next_below(2));
  core::QueryServer server(csr, gpusim::test_device(), options);
  // Breaker churn: sometimes start the run with a lane already tripped.
  if (rng.next_below(4) == 0) {
    server.trip_lane(static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(options.batch.streams))));
  }

  // A t=0 batch: every query arrives at once.
  std::vector<core::TrafficQuery> queries(2 + rng.next_below(5));
  for (core::TrafficQuery& q : queries) {
    q.source = static_cast<VertexId>(rng.next_below(csr.num_vertices()));
    // 1/3 unbounded; the rest log-uniform across ~5 decades, so some
    // deadlines are hopeless, some tight, and some comfortable.
    if (rng.next_below(3) != 0) {
      q.deadline_ms = 0.001 * static_cast<double>(
                                  std::uint64_t{1} << rng.next_below(16));
    }
  }

  const core::StreamResult result = server.run_stream(queries);
  if (const gpusim::Sanitizer* san = server.batch().sim().sanitizer()) {
    EXPECT_EQ(san->report(), "")
        << "overload case " << case_index << ": " << c.describe();
  }
  ASSERT_EQ(result.queries.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const core::StreamQueryStats& sq = result.stats[i];
    const bool completed = sq.query.status == core::QueryStatus::kOk ||
                           sq.query.status == core::QueryStatus::kRecovered ||
                           sq.query.status == core::QueryStatus::kCpuFallback;
    if (completed) {
      EXPECT_EQ(result.queries[i].sssp.distances,
                sssp::dijkstra(csr, queries[i].source).distances)
          << "overload case " << case_index << " query " << i << " ("
          << core::query_status_name(sq.query.status)
          << "): " << c.describe();
      EXPECT_LE(sq.finish_ms, sq.deadline_ms + 1e-9)
          << "overload case " << case_index << " query " << i
          << " completed late: " << c.describe();
    } else {
      EXPECT_TRUE(result.queries[i].sssp.distances.empty())
          << "overload case " << case_index << " query " << i << " ("
          << core::query_status_name(sq.query.status)
          << ") carries distances despite not completing: " << c.describe();
    }
  }
}

// Streaming-chaos leg of a kBatch fuzz case (RDBS_FUZZ_OVERLOAD=1): the
// case seed also derives a small timed traffic schedule — random arrival
// process, rate, class mix, deadlines — served through run_stream() under
// the case's gfi fault plan, sometimes with hot-stream bias (one lane under
// elevated fault pressure). Two contracts at fuzz scale:
//   * the completed/non-completed oracle split of run_overload_case, and
//   * streaming determinism — the entire result (statuses, dispatch and
//     finish times, promotions, distances, breaker events) must be
//     bit-identical when the same configuration runs twice.
void run_streaming_chaos_case(const FuzzCase& c, const Csr& csr,
                              int case_index) {
  Xoshiro256 rng(c.seed ^ 0x57e4a21c7a05ull);
  core::TrafficSpec spec;
  spec.process = static_cast<core::ArrivalProcess>(rng.next_below(3));
  spec.seed = rng.next();
  spec.num_queries = 8 + rng.next_below(25);
  // Log-uniform offered rate across ~3 decades: some schedules trickle,
  // some crush the lanes and exercise shed/expiry paths.
  spec.rate_qpms =
      0.01 * static_cast<double>(std::uint64_t{1} << rng.next_below(10));
  spec.source_universe = 1 + static_cast<std::uint32_t>(rng.next_below(64));
  for (int cls = 0; cls < core::kNumTrafficClasses; ++cls) {
    // 1/3 unbounded; the rest log-uniform, hopeless through comfortable.
    const auto idx = static_cast<std::size_t>(cls);
    spec.class_deadline_ms[idx] =
        rng.next_below(3) == 0
            ? std::numeric_limits<double>::infinity()
            : 0.001 * static_cast<double>(std::uint64_t{1}
                                          << rng.next_below(16));
  }
  const std::vector<core::TrafficQuery> schedule =
      core::generate_traffic(spec, csr.num_vertices());

  core::QueryServerOptions options;
  options.batch.streams = c.streams;
  options.batch.gpu.basyn = c.basyn;
  options.batch.gpu.pro = c.pro;
  options.batch.gpu.adwl = c.adwl;
  options.batch.gpu.delta0 = c.delta0;
  options.batch.gpu.fault = fuzz_fault_config(c.seed);
  options.batch.gpu.retry = fuzz_retry_policy();
  if (options.batch.gpu.fault.enabled && rng.next_below(2) == 0) {
    // Hot-stream bias: one lane under elevated launch-fault pressure, so
    // the EWMA-driven lane policy has real heterogeneity to react to.
    options.batch.gpu.fault.hot_stream = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(c.streams)));
    options.batch.gpu.fault.hot_stream_factor =
        static_cast<double>(2 + rng.next_below(7));
  }
  options.lane_policy = rng.next_below(2) == 0
                            ? core::LanePolicy::kEarliestFree
                            : core::LanePolicy::kPredictedFastest;
  options.max_pending = 1 + static_cast<int>(rng.next_below(8));
  options.shed_on_overload = rng.next_below(2) == 0;
  options.hedge_to_cpu = rng.next_below(2) == 0;
  options.breaker.enabled = rng.next_below(2) == 0;
  options.breaker.failure_threshold = 1 + static_cast<int>(rng.next_below(3));
  options.breaker.cooldown_ms = 0.01 * static_cast<double>(rng.next_below(64));
  if (rng.next_below(2) == 0) {
    options.aging_ms =
        0.001 * static_cast<double>(std::uint64_t{1} << rng.next_below(10));
  }

  core::StreamResult results[2];
  for (core::StreamResult& result : results) {
    core::QueryServer server(csr, gpusim::test_device(), options);
    result = server.run_stream(schedule);
  }
  const core::StreamResult& first = results[0];
  const core::StreamResult& second = results[1];

  ASSERT_EQ(first.stats.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const core::StreamQueryStats& sq = first.stats[i];
    const bool completed = sq.query.status == core::QueryStatus::kOk ||
                           sq.query.status == core::QueryStatus::kRecovered ||
                           sq.query.status == core::QueryStatus::kCpuFallback;
    if (completed) {
      EXPECT_EQ(first.queries[i].sssp.distances,
                sssp::dijkstra(csr, schedule[i].source).distances)
          << "stream case " << case_index << " query " << i << " ("
          << core::query_status_name(sq.query.status)
          << "): " << c.describe();
      EXPECT_LE(sq.finish_ms, sq.deadline_ms + 1e-9)
          << "stream case " << case_index << " query " << i
          << " completed late: " << c.describe();
    } else {
      EXPECT_TRUE(first.queries[i].sssp.distances.empty())
          << "stream case " << case_index << " query " << i << " ("
          << core::query_status_name(sq.query.status)
          << ") carries distances despite not completing: " << c.describe();
    }
    // Bit-identity across the two runs, per query.
    EXPECT_EQ(first.stats[i].query.status, second.stats[i].query.status)
        << "stream case " << case_index << " query " << i << ": "
        << c.describe();
    EXPECT_EQ(first.stats[i].dispatch_ms, second.stats[i].dispatch_ms)
        << "stream case " << case_index << " query " << i << ": "
        << c.describe();
    EXPECT_EQ(first.stats[i].finish_ms, second.stats[i].finish_ms)
        << "stream case " << case_index << " query " << i << ": "
        << c.describe();
    EXPECT_EQ(first.stats[i].promotions, second.stats[i].promotions)
        << "stream case " << case_index << " query " << i << ": "
        << c.describe();
    EXPECT_EQ(first.queries[i].sssp.distances,
              second.queries[i].sssp.distances)
        << "stream case " << case_index << " query " << i << ": "
        << c.describe();
  }
  EXPECT_EQ(first.makespan_ms, second.makespan_ms)
      << "stream case " << case_index << ": " << c.describe();
  EXPECT_EQ(first.shed_queries, second.shed_queries)
      << "stream case " << case_index << ": " << c.describe();
  EXPECT_EQ(first.deadline_queries, second.deadline_queries)
      << "stream case " << case_index << ": " << c.describe();
  EXPECT_EQ(first.breaker_events.size(), second.breaker_events.size())
      << "stream case " << case_index << ": " << c.describe();
}

// Cross-stream leg of a kBatch fuzz case (RDBS_FUZZ_SANITIZE=1): the same
// engine flags over SEVERAL seed-derived sources at the case's random
// stream count, so the lanes genuinely overlap in simulated time and the
// vector-clock happens-before detector sees real cross-stream concurrency.
// Two gates: the sweep must be hazard-free, and the hazard report (empty or
// not) plus every distance vector must be byte-identical across two runs
// — cross-stream reports are rank-stable by contract.
void run_cross_stream_case(const FuzzCase& c, const Csr& csr,
                           int case_index) {
  Xoshiro256 rng(c.seed ^ 0xc0557a3acc0eddull);
  std::vector<VertexId> sources(2 + rng.next_below(5));
  for (VertexId& s : sources) {
    s = static_cast<VertexId>(rng.next_below(csr.num_vertices()));
  }

  std::string reports[2];
  core::StreamResult results[2];
  for (int t = 0; t < 2; ++t) {
    core::QueryServerOptions options;
    options.batch.streams = c.streams;
    options.batch.gpu.basyn = c.basyn;
    options.batch.gpu.pro = c.pro;
    options.batch.gpu.adwl = c.adwl;
    options.batch.gpu.delta0 = c.delta0;
    options.batch.gpu.sanitize = gpusim::SanitizeMode::kOn;
    options.batch.gpu.fault = fuzz_fault_config(c.seed);
    options.batch.gpu.retry = fuzz_retry_policy();
    core::QueryServer server(csr, gpusim::test_device(), options);
    results[t] = server.run_stream(core::batch_schedule(sources));
    const gpusim::Sanitizer* sanitizer = server.batch().sim().sanitizer();
    ASSERT_NE(sanitizer, nullptr);
    reports[t] = sanitizer->report();
  }
  EXPECT_EQ(reports[0], "")
      << "cross-stream case " << case_index << ": " << c.describe();
  EXPECT_EQ(reports[0], reports[1])
      << "cross-stream case " << case_index
      << " report differs across runs: " << c.describe();
  ASSERT_EQ(results[0].queries.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(results[0].queries[i].sssp.distances,
              results[1].queries[i].sssp.distances)
        << "cross-stream case " << case_index << " query " << i << ": "
        << c.describe();
  }
}

// Result-cache leg of a kBatch fuzz case (RDBS_FUZZ_CACHE, on by default):
// the case seed derives a hot-Zipf traffic schedule — a small source
// universe guarantees repeats, so exact hits, single-flight joins and
// warm starts all fire — served through run_stream() three times: cache
// off, then cache on twice. Contracts:
//   * every COMPLETED query in any run (kCacheHit included) carries
//     distances exactly equal to Dijkstra's — cache hits, joined waiters
//     and warm-started solves are all held to the same oracle;
//   * queries completed in BOTH the cache-on and cache-off runs carry
//     bit-identical distance vectors;
//   * the entire cache-on result (statuses, times, distances, cache
//     counters) is bit-identical across its two runs;
//   * under RDBS_FUZZ_SANITIZE=1 the cached run must be hazard-free —
//     warm-start seeding must not introduce gsan races.
// Sweep-level tally: any single case may legitimately see zero hits (a
// wide universe draw, early deadlines), but across a whole fuzz run the
// hot-Zipf schedules must produce cache activity, and the tiny capacities
// must make the admission policy both displace entries and turn results
// away, or the leg is testing nothing. Checked at the end of the main TEST.
struct CacheLegTally {
  std::size_t exact_hits = 0;
  std::size_t joins = 0;
  std::size_t warm_starts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;
  std::size_t cases = 0;
};
CacheLegTally g_cache_tally;

void run_cache_case(const FuzzCase& c, const Csr& csr, int case_index) {
  Xoshiro256 rng(c.seed ^ 0xcac4edba5e11ull);
  core::TrafficSpec spec;
  spec.process = static_cast<core::ArrivalProcess>(rng.next_below(3));
  spec.seed = rng.next();
  spec.num_queries = 12 + rng.next_below(21);
  spec.rate_qpms =
      0.02 * static_cast<double>(std::uint64_t{1} << rng.next_below(9));
  // Hot sources: a tiny universe under a steep Zipf makes repeats (and
  // therefore hits and in-flight joins) near-certain even at n=12.
  spec.zipf_s = 1.1 + 0.1 * static_cast<double>(rng.next_below(6));
  spec.source_universe = 1 + static_cast<std::uint32_t>(rng.next_below(12));
  for (int cls = 0; cls < core::kNumTrafficClasses; ++cls) {
    // Half unbounded, half generous: the leg wants completions to compare,
    // not shed/expiry churn (run_streaming_chaos_case covers that).
    const auto idx = static_cast<std::size_t>(cls);
    spec.class_deadline_ms[idx] =
        rng.next_below(2) == 0
            ? std::numeric_limits<double>::infinity()
            : 0.01 * static_cast<double>(std::uint64_t{1}
                                         << rng.next_below(12));
  }
  const std::vector<core::TrafficQuery> schedule =
      core::generate_traffic(spec, csr.num_vertices());

  core::QueryServerOptions options;
  options.batch.streams = c.streams;
  options.batch.gpu.basyn = c.basyn;
  options.batch.gpu.pro = c.pro;
  options.batch.gpu.adwl = c.adwl;
  options.batch.gpu.delta0 = c.delta0;
  options.batch.gpu.sanitize = fuzz_sanitize();
  options.batch.gpu.fault = fuzz_fault_config(c.seed);
  options.batch.gpu.retry = fuzz_retry_policy();
  options.max_pending = 4 + static_cast<int>(rng.next_below(8));
  options.shed_on_overload = rng.next_below(2) == 0;
  options.hedge_to_cpu = rng.next_below(2) == 0;
  // Tiny capacity keeps admission and eviction in play; landmarks 0..3
  // covers the warm-start-disabled boundary as well as multi-landmark
  // min-combines.
  core::ResultCacheOptions cache;
  cache.enabled = true;
  cache.capacity = 1 + static_cast<std::size_t>(rng.next_below(6));
  cache.landmarks = static_cast<std::size_t>(rng.next_below(4));

  const auto completed = [](core::QueryStatus s) {
    return s == core::QueryStatus::kOk ||
           s == core::QueryStatus::kRecovered ||
           s == core::QueryStatus::kCpuFallback ||
           s == core::QueryStatus::kCacheHit;
  };

  core::StreamResult cold;  // cache off
  {
    core::QueryServer server(csr, gpusim::test_device(), options);
    cold = server.run_stream(schedule);
  }
  core::StreamResult cached[2];  // cache on, run twice
  core::ResultCacheStats cache_stats[2];
  for (int t = 0; t < 2; ++t) {
    core::QueryServerOptions run_options = options;
    run_options.cache = cache;
    core::QueryServer server(csr, gpusim::test_device(), run_options);
    cached[t] = server.run_stream(schedule);
    cache_stats[t] = server.result_cache()->stats();
    if (fuzz_sanitize() == gpusim::SanitizeMode::kOn) {
      ASSERT_NE(server.batch().sim().sanitizer(), nullptr);
      EXPECT_EQ(server.batch().sim().sanitizer()->report(), "")
          << "cache case " << case_index << " run " << t << ": "
          << c.describe();
    }
  }
  const core::StreamResult& first = cached[0];
  const core::StreamResult& second = cached[1];

  ASSERT_EQ(cold.stats.size(), schedule.size());
  ASSERT_EQ(first.stats.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::vector<graph::Distance> oracle =
        sssp::dijkstra(csr, schedule[i].source).distances;
    const bool cold_done = completed(cold.stats[i].query.status);
    const bool warm_done = completed(first.stats[i].query.status);
    if (cold_done) {
      EXPECT_EQ(cold.queries[i].sssp.distances, oracle)
          << "cache case " << case_index << " query " << i
          << " (cache off): " << c.describe();
    }
    if (warm_done) {
      EXPECT_EQ(first.queries[i].sssp.distances, oracle)
          << "cache case " << case_index << " query " << i << " ("
          << core::query_status_name(first.stats[i].query.status)
          << ", cache on): " << c.describe();
    }
    if (cold_done && warm_done) {
      EXPECT_EQ(first.queries[i].sssp.distances,
                cold.queries[i].sssp.distances)
          << "cache case " << case_index << " query " << i
          << " differs cache on vs off: " << c.describe();
    }
    // Bit-identity of the cached run across its two runs, per query.
    EXPECT_EQ(first.stats[i].query.status, second.stats[i].query.status)
        << "cache case " << case_index << " query " << i << ": "
        << c.describe();
    EXPECT_EQ(first.stats[i].single_flight, second.stats[i].single_flight)
        << "cache case " << case_index << " query " << i << ": "
        << c.describe();
    EXPECT_EQ(first.stats[i].dispatch_ms, second.stats[i].dispatch_ms)
        << "cache case " << case_index << " query " << i << ": "
        << c.describe();
    EXPECT_EQ(first.stats[i].finish_ms, second.stats[i].finish_ms)
        << "cache case " << case_index << " query " << i << ": "
        << c.describe();
    EXPECT_EQ(first.queries[i].sssp.distances,
              second.queries[i].sssp.distances)
        << "cache case " << case_index << " query " << i << ": "
        << c.describe();
  }
  EXPECT_EQ(first.cached_queries, second.cached_queries)
      << "cache case " << case_index << ": " << c.describe();
  EXPECT_EQ(first.joined_queries, second.joined_queries)
      << "cache case " << case_index << ": " << c.describe();
  EXPECT_EQ(first.warm_started_queries, second.warm_started_queries)
      << "cache case " << case_index << ": " << c.describe();
  EXPECT_EQ(first.makespan_ms, second.makespan_ms)
      << "cache case " << case_index << ": " << c.describe();
  EXPECT_EQ(cache_stats[0].evictions, cache_stats[1].evictions)
      << "cache case " << case_index << ": " << c.describe();
  EXPECT_EQ(cache_stats[0].rejected, cache_stats[1].rejected)
      << "cache case " << case_index << ": " << c.describe();

  g_cache_tally.exact_hits += first.cached_queries;
  g_cache_tally.joins += first.joined_queries;
  g_cache_tally.warm_starts += first.warm_started_queries;
  g_cache_tally.evictions += cache_stats[0].evictions;
  g_cache_tally.rejected += cache_stats[0].rejected;
  ++g_cache_tally.cases;
}

// Warm-start leg of a warm-start-capable fuzz case (RDBS_FUZZ_WARM, on by
// default): re-run the same engine seeded with an arbitrary valid
// upper-bound vector and demand bit-identical distances. The bounds are
// adversarially sloppy on purpose — per-vertex the oracle value is kept
// exact, inflated by integer slack (doubles stay exact), or withheld as
// +inf — because the label-correcting exactness argument promises ANY
// valid upper bound works, not just the tidy vectors the result cache or
// a checkpoint produce. Sweep-level tally guards against the generator
// degenerating into all-+inf bounds (which would retest the cold path).
struct WarmLegTally {
  std::size_t finite_bounds = 0;
  std::size_t cases = 0;
};
WarmLegTally g_warm_tally;

std::vector<graph::Distance> fuzz_warm_bounds(
    const std::vector<graph::Distance>& exact, Xoshiro256& rng) {
  std::vector<graph::Distance> bounds(
      exact.size(), std::numeric_limits<graph::Distance>::infinity());
  for (std::size_t v = 0; v < exact.size(); ++v) {
    if (!std::isfinite(exact[v])) continue;  // unreachable: only +inf valid
    switch (rng.next_below(4)) {
      case 0: break;  // unknown vertex: bound stays +inf
      case 1:
        bounds[v] = exact[v];  // exact bound (tightest legal)
        break;
      default:
        // Loose bound: integer slack keeps double arithmetic exact.
        bounds[v] = exact[v] + static_cast<graph::Distance>(
                                   1 + rng.next_below(1000));
        break;
    }
    if (std::isfinite(bounds[v])) ++g_warm_tally.finite_bounds;
  }
  return bounds;
}

void run_warm_case(const FuzzCase& c, const Csr& csr,
                   const std::vector<graph::Distance>& expected,
                   int case_index) {
  Xoshiro256 rng(c.seed ^ 0x3a5fb0cd5eedull);
  const std::vector<graph::Distance> bounds = fuzz_warm_bounds(expected, rng);
  const gpusim::DeviceSpec device = gpusim::test_device();
  const gpusim::SanitizeMode sanitize = fuzz_sanitize();
  const gpusim::FaultConfig fault = fuzz_fault_config(c.seed);
  const core::RetryPolicy retry = fuzz_retry_policy();
  std::string sanitizer_report;
  std::vector<graph::Distance> warm;
  if (c.engine == Engine::kRdbs) {
    core::GpuSsspOptions options;
    options.basyn = c.basyn;
    options.pro = c.pro;
    options.adwl = c.adwl;
    options.delta0 = c.delta0;
    options.sanitize = sanitize;
    options.fault = fault;
    options.retry = retry;
    core::RdbsSolver solver(csr, device, options);
    // Bounds are in the ORIGINAL numbering; the solver maps them through
    // the PRO permutation (the contract run_cache_case's batch relies on).
    solver.set_warm_start(&bounds);
    auto result = solver.solve(c.source);
    sanitizer_report = std::move(result.sanitizer_report);
    warm = std::move(result.sssp.distances);
  } else {
    ASSERT_EQ(c.engine, Engine::kAdds)
        << "warm case " << case_index << ": engine family has no warm path";
    core::AddsOptions options;
    options.delta = c.delta0;
    options.sanitize = sanitize;
    options.fault = fault;
    options.retry = retry;
    core::AddsLike adds(device, csr, options);
    adds.driver().set_warm_start(&bounds);
    auto result = adds.run(c.source);
    sanitizer_report = std::move(result.sanitizer_report);
    warm = std::move(result.sssp.distances);
  }
  ASSERT_TRUE(sanitizer_report.empty())
      << "warm case " << case_index << ": " << c.describe() << "\n"
      << sanitizer_report;
  ASSERT_EQ(warm.size(), expected.size())
      << "warm case " << case_index << ": " << c.describe();
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(warm[v], expected[v])
        << "warm case " << case_index << " vertex " << v << ": "
        << c.describe();
  }
  ++g_warm_tally.cases;
}

// Checkpoint leg of an RDBS or ADDS fuzz case (on with RDBS_FUZZ_FAULTS):
// the same engine and fault plan, snapshotting every 1 + seed % 3
// boundaries, so retries resume from committed checkpoints whose copies
// overlapped the run. The distances must equal Dijkstra's. Sweep-level
// tally guards against a plan that never resumes (which would retest the
// cold retry path).
struct CheckpointLegTally {
  std::uint64_t resumed = 0;
  std::size_t cases = 0;
};
CheckpointLegTally g_checkpoint_tally;

void run_checkpoint_case(const FuzzCase& c, const Csr& csr,
                         const std::vector<graph::Distance>& expected,
                         int case_index) {
  const gpusim::DeviceSpec device = gpusim::test_device();
  const int interval = 1 + static_cast<int>(c.seed % 3);
  core::GpuRunResult result;
  if (c.engine == Engine::kRdbs) {
    core::GpuSsspOptions options;
    options.basyn = c.basyn;
    options.pro = c.pro;
    options.adwl = c.adwl;
    options.delta0 = c.delta0;
    options.sanitize = fuzz_sanitize();
    options.fault = fuzz_fault_config(c.seed);
    options.retry = fuzz_retry_policy();
    options.checkpoint_interval = interval;
    core::RdbsSolver solver(csr, device, options);
    result = solver.solve(c.source);
  } else {
    ASSERT_EQ(c.engine, Engine::kAdds)
        << "checkpoint case " << case_index << ": engine does not checkpoint";
    core::AddsOptions options;
    options.delta = c.delta0;
    options.sanitize = fuzz_sanitize();
    options.fault = fuzz_fault_config(c.seed);
    options.retry = fuzz_retry_policy();
    options.checkpoint_interval = interval;
    core::AddsLike adds(device, csr, options);
    result = adds.run(c.source);
  }
  ASSERT_TRUE(result.sanitizer_report.empty())
      << "checkpoint case " << case_index << ": " << c.describe() << "\n"
      << result.sanitizer_report;
  ASSERT_EQ(result.sssp.distances.size(), expected.size())
      << "checkpoint case " << case_index << ": " << c.describe();
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(result.sssp.distances[v], expected[v])
        << "checkpoint case " << case_index << " vertex " << v
        << " (interval " << interval << "): " << c.describe();
  }
  g_checkpoint_tally.resumed += result.recovery.resumed;
  ++g_checkpoint_tally.cases;
}

TEST(FuzzDifferential, EveryEngineMatchesDijkstraOnRandomGraphs) {
  const std::uint64_t master = 42;
  const int iters = fuzz_iterations();
  for (int i = 0; i < iters; ++i) {
    FuzzCase c;
    c.seed = derive_seed(master, static_cast<std::uint64_t>(i));
    Xoshiro256 rng(c.seed);
    // Round-robin the engine so a tier-1 run covers every family; all
    // remaining choices are seed-derived.
    c.engine = static_cast<Engine>(i % static_cast<int>(Engine::kCount));
    c.family = static_cast<int>(rng.next_below(3));
    // Ligra's dense (pull) rounds read the CSR as an in-edge list, which
    // is only valid on symmetric graphs — a documented precondition of
    // that engine (see ligra_like.cpp), so the fuzzer honors it.
    c.symmetrize =
        c.engine == Engine::kCpuLigra || rng.next_below(2) == 0;
    c.zero_weights = rng.next_below(4) == 0;
    c.duplicate_edges = rng.next_below(4) == 0;
    // Log-uniform Δ0 across ~4 decades around the 1..1000 weight range.
    c.delta0 = static_cast<Weight>(
        static_cast<std::uint64_t>(1) << rng.next_below(13));
    c.basyn = rng.next_below(2) == 0;
    c.pro = rng.next_below(2) == 0;
    c.adwl = rng.next_below(2) == 0;
    c.streams = 1 + static_cast<int>(rng.next_below(4));

    const Csr csr = build_case_graph(c, rng);
    c.source = static_cast<VertexId>(rng.next_below(csr.num_vertices()));

    const std::vector<graph::Distance> expected =
        sssp::dijkstra(csr, c.source).distances;
    std::string sanitizer_report;
    const std::vector<graph::Distance> actual =
        run_engine(c, csr, &sanitizer_report);

    ASSERT_TRUE(sanitizer_report.empty())
        << "case " << i << ": " << c.describe() << "\n" << sanitizer_report;
    ASSERT_EQ(actual.size(), expected.size())
        << "case " << i << ": " << c.describe();
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      ASSERT_EQ(actual[v], expected[v])
          << "case " << i << " vertex " << v << " ("
          << csr.num_vertices() << " vertices, " << csr.num_edges()
          << " edges): " << c.describe();
    }
    if (c.engine == Engine::kBatch && fuzz_overload()) {
      run_overload_case(c, csr, i);
      run_streaming_chaos_case(c, csr, i);
    }
    if (c.engine == Engine::kBatch &&
        fuzz_sanitize() == gpusim::SanitizeMode::kOn) {
      run_cross_stream_case(c, csr, i);
    }
    if (c.engine == Engine::kBatch && fuzz_cache()) {
      run_cache_case(c, csr, i);
    }
    if ((c.engine == Engine::kRdbs || c.engine == Engine::kAdds) &&
        fuzz_warm()) {
      run_warm_case(c, csr, expected, i);
    }
    if ((c.engine == Engine::kRdbs || c.engine == Engine::kAdds) &&
        fuzz_faults()) {
      run_checkpoint_case(c, csr, expected, i);
    }
  }
  if (fuzz_cache() && g_cache_tally.cases >= 3) {
    // The hot-Zipf schedules must have produced real cache traffic
    // somewhere in the sweep; all-zero counters would mean the leg
    // silently degenerated into a plain re-solve comparison.
    EXPECT_GT(g_cache_tally.exact_hits + g_cache_tally.joins +
                  g_cache_tally.warm_starts,
              0u)
        << "no cache activity across " << g_cache_tally.cases
        << " cache-leg cases";
    EXPECT_GT(g_cache_tally.evictions, 0u)
        << "no evictions across " << g_cache_tally.cases << " cache-leg cases";
    EXPECT_GT(g_cache_tally.rejected, 0u)
        << "no rejected results across " << g_cache_tally.cases
        << " cache-leg cases";
  }
  if (fuzz_warm() && g_warm_tally.cases >= 1) {
    // The bound generator must have produced real (finite) upper bounds;
    // an all-+inf sweep would just re-test the cold path.
    EXPECT_GT(g_warm_tally.finite_bounds, 0u)
        << "no finite warm bounds across " << g_warm_tally.cases
        << " warm-leg cases";
  }
  if (fuzz_faults() && g_checkpoint_tally.cases >= 1) {
    RecordProperty("checkpoint_leg_cases",
                   static_cast<int>(g_checkpoint_tally.cases));
    RecordProperty("checkpoint_leg_resumed",
                   static_cast<int>(g_checkpoint_tally.resumed));
    EXPECT_GT(g_checkpoint_tally.resumed, 0u)
        << "no retry resumed from a checkpoint across "
        << g_checkpoint_tally.cases << " checkpoint-leg cases";
  }
}

// The seed derivation itself must be stable across platforms: a failure
// report quoting a seed is only reproducible if derive_seed is frozen.
TEST(FuzzDifferential, SeedDerivationIsFrozen) {
  EXPECT_EQ(derive_seed(42, 0), 0xbdd732262feb6e95ull);
  EXPECT_EQ(derive_seed(42, 1), 0x28efe333b266f103ull);
}

}  // namespace
}  // namespace rdbs
