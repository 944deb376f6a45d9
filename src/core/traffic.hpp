// Deterministic traffic generation for the streaming serving layer
// (docs/serving.md "Streaming").
//
// The ROADMAP's "millions of users" axis needs workloads, not batches: a
// schedule of queries arriving over simulated time, with realistic shape
// knobs (Poisson steady state, MMPP-style on/off bursts, diurnal rate
// swings), Zipf-skewed sources (real user traffic repeats hot sources) and
// per-class deadlines (interactive > batch > best-effort). Everything here
// is host-side arithmetic seeded from one 64-bit value: the same
// TrafficSpec always produces a byte-identical schedule, independent of
// sim_threads, stream counts, or anything the simulator does — the
// prerequisite for every scheduling experiment on top being reproducible
// (property tests in tests/test_traffic.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace rdbs::core {

using graph::VertexId;

// Priority classes, most urgent first. The scheduler treats a smaller
// enum value as strictly more urgent (subject to starvation aging;
// core/query_server.hpp).
enum class TrafficClass : std::uint8_t {
  kInteractive = 0,  // a user is waiting on the answer
  kBatch = 1,        // pipeline work with a real but loose deadline
  kBestEffort = 2,   // background backfill
};
inline constexpr int kNumTrafficClasses = 3;
const char* traffic_class_name(TrafficClass cls);

enum class ArrivalProcess : std::uint8_t {
  kPoisson,  // homogeneous: i.i.d. exponential inter-arrivals
  kBursty,   // MMPP on/off: exponential bursts of elevated rate separated
             // by idle (or trickle) gaps with exponential durations
  kDiurnal,  // non-homogeneous Poisson, sinusoidal rate (thinning method)
};
const char* arrival_process_name(ArrivalProcess process);

struct TrafficSpec {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  std::uint64_t seed = 42;
  std::size_t num_queries = 1000;
  // Mean arrival rate in queries per simulated millisecond. For kBursty
  // this is the in-burst rate (the long-run mean depends on the duty
  // cycle); for kDiurnal it is the midline of the sinusoid.
  double rate_qpms = 1.0;

  // kBursty: burst (on) phases run at rate_qpms * burst_factor, idle (off)
  // phases at rate_qpms * idle_factor (0 = fully silent gaps). Phase
  // durations are exponential with these means.
  double burst_factor = 4.0;
  double idle_factor = 0.0;
  double burst_on_ms = 4.0;
  double burst_off_ms = 16.0;

  // kDiurnal: rate(t) = rate_qpms * (1 + amplitude * sin(2*pi*t/period)).
  double diurnal_period_ms = 64.0;
  double diurnal_amplitude = 0.8;  // in [0, 1)

  // Sources are Zipf(zipf_s)-distributed over `source_universe` distinct
  // hot vertices (clamped to |V|), drawn without replacement from the
  // graph by a seeded partial shuffle. Rank 0 is the hottest.
  double zipf_s = 1.1;
  std::uint32_t source_universe = 1024;

  // Per-class offered fraction (normalized internally) and deadline
  // relative to each query's ARRIVAL (infinity or <= 0 = no deadline).
  std::array<double, kNumTrafficClasses> class_mix = {0.5, 0.3, 0.2};
  std::array<double, kNumTrafficClasses> class_deadline_ms = {
      1.0, 4.0, std::numeric_limits<double>::infinity()};
};

// One scheduled query. `arrival_ms` is relative to the stream's start and
// nondecreasing across the schedule; `deadline_ms` is relative to the
// arrival (infinity = unbounded).
struct TrafficQuery {
  double arrival_ms = 0;
  VertexId source = 0;
  TrafficClass cls = TrafficClass::kInteractive;
  double deadline_ms = std::numeric_limits<double>::infinity();

  friend bool operator==(const TrafficQuery&, const TrafficQuery&) = default;
};

// Generates the schedule. Throws std::invalid_argument on nonsensical
// specs (zero rate, empty graph, bad amplitude/mix). Deterministic: two
// calls with equal (spec, num_vertices) return equal vectors, always.
std::vector<TrafficQuery> generate_traffic(const TrafficSpec& spec,
                                           VertexId num_vertices);

// Traffic-spec grammar (docs/serving.md):
//
//   <process>[:key=value[,key=value...]]
//
//   process    poisson | bursty | diurnal
//   n          query count                       (num_queries)
//   rate       queries per simulated ms          (rate_qpms)
//   seed       64-bit schedule seed
//   zipf       Zipf exponent                     (zipf_s)
//   universe   distinct hot sources              (source_universe)
//   mix        a/b/c offered class fractions     (class_mix)
//   deadlines  x/y/z relative ms, '-' = none     (class_deadline_ms)
//   burst      on-phase rate multiplier          (burst_factor)
//   idle       off-phase rate multiplier         (idle_factor)
//   on-ms      mean burst duration               (burst_on_ms)
//   off-ms     mean gap duration                 (burst_off_ms)
//   period     diurnal period ms                 (diurnal_period_ms)
//   amplitude  diurnal swing in [0,1)            (diurnal_amplitude)
//
// e.g. "poisson:n=2000,rate=2,zipf=1.2,deadlines=1/4/-,seed=7"
//      "bursty:burst=8,on-ms=2,off-ms=10"
// Throws std::invalid_argument with a pointed message on bad input.
TrafficSpec parse_traffic_spec(const std::string& text);

// --- closed-loop clients (docs/serving.md "Closed-loop clients") ----------
//
// An open-loop schedule keeps offering queries no matter what the server
// does; real clients react: a shed or deadline-missed query comes BACK
// after a backoff, up to a retry budget, and a client library stops
// hammering a server whose queue is visibly full. ClosedLoopSpec is that
// behavior, deterministic: the backoff jitter is a pure function of
// (seed, query index, attempt) hashed through SplitMix64 — the same
// counter-keyed scheme gfi fault plans use — so a closed-loop stream is
// byte-identical across sim_threads and replays.
struct ClosedLoopSpec {
  bool enabled = false;
  // Re-arrivals allowed per original query (0 with enabled = retries off,
  // but backpressure accounting still runs).
  int retry_budget = 2;
  // Backoff before re-arrival attempt k (1-based):
  //   backoff_base_ms * backoff_multiplier^(k-1), jittered by
  //   ±jitter (fraction) via the counter-keyed hash.
  double backoff_base_ms = 0.5;
  double backoff_multiplier = 2.0;
  double jitter = 0.5;  // in [0, 1]: delay *= 1 + jitter * u, u in [-1, 1)
  std::uint64_t seed = 42;
  // Backpressure: when the server's pending queue holds >= depth entries
  // at the moment a re-arrival is scheduled, the client defers it by an
  // extra penalty_ms per queued entry above the threshold — the generator
  // throttles instead of amplifying an overload. 0 = off.
  std::size_t backpressure_depth = 0;
  double backpressure_penalty_ms = 0.5;
};

// Deterministic jittered exponential backoff for re-arrival `attempt`
// (1-based) of original query `query_index`. Pure function of its
// arguments; throws std::invalid_argument on attempt < 1 or a spec with
// negative/non-finite backoff parameters or jitter outside [0, 1].
double closed_loop_backoff_ms(const ClosedLoopSpec& spec,
                              std::uint64_t query_index, int attempt);

// Closed-loop grammar (composes with parse_traffic_spec's output at the
// CLI layer; docs/serving.md):
//
//   key=value[,key=value...]
//
//   budget     re-arrivals per query            (retry_budget)
//   backoff    base backoff ms                  (backoff_base_ms)
//   mult       backoff multiplier               (backoff_multiplier)
//   jitter     jitter fraction in [0,1]         (jitter)
//   seed       64-bit jitter seed
//   depth      backpressure queue threshold     (backpressure_depth)
//   penalty    backpressure ms per excess entry (backpressure_penalty_ms)
//
// e.g. "budget=3,backoff=0.25,jitter=0.5,depth=12"
// Returns a spec with enabled = true. Throws std::invalid_argument on bad
// input.
ClosedLoopSpec parse_closed_loop_spec(const std::string& text);

// Source-repetition shape of a schedule — the statistic that decides
// whether a result cache (core/result_cache.hpp) can pay off: every
// repeat of an already-seen source is a potential exact hit or
// single-flight join. Deterministic (keyed iteration, no hashing).
struct SourceRepetitionStats {
  std::size_t queries = 0;           // schedule length
  std::size_t distinct_sources = 0;  // unique source vertices
  std::size_t hottest_count = 0;     // occurrences of the hottest source
  VertexId hottest_source = 0;       // smallest id among the hottest
  // Fraction of queries whose source appeared earlier in the schedule —
  // the cache-hit-rate ceiling for an infinite-capacity cache.
  double repeat_fraction = 0;
};
SourceRepetitionStats source_repetition_stats(
    std::span<const TrafficQuery> schedule);

// A batch as a schedule: every source arrives at t=0, in the interactive
// class, with the same deadline relative to the start. The server then
// dispatches it earliest deadline first, ties in input order.
std::vector<TrafficQuery> batch_schedule(
    std::span<const VertexId> sources,
    double deadline_ms = std::numeric_limits<double>::infinity());

}  // namespace rdbs::core
