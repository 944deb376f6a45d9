// Tail latency under overload for the serving layer (docs/serving.md).
//
// Offers batches of increasing load (queries per lane) to a QueryServer —
// schedules whose arrivals all land at t=0, served by run_stream() — with a
// fixed per-query deadline, under deterministic launch-fault
// injection, with circuit breakers on and off. Reports per-config p50 /
// p95 / p99 sojourn time over the completed queries plus the shed and
// deadline-miss rates — the overload story in one table: as load grows the
// server keeps the completed tail bounded by the deadline and converts the
// excess into up-front sheds instead of late answers.
//
// A streaming sweep follows the batch sweeps: 1000-query Poisson
// schedules (core/traffic.hpp) at three offered loads (1x / 2x / 4x of
// aggregate lane capacity) are served continuously by run_stream() with
// breakers on and off, under the same fault plan.
//
// Hard checks (exit 1 on violation):
//  * bounded tail: every completed query finished at or before its
//    deadline (the engines withhold late distances, so this is the
//    serving contract, not luck) — hence p99 <= deadline;
//  * correctness under degradation: every completed query's distances are
//    bit-identical to the host Dijkstra reference, including a sweep with
//    a manually tripped lane, run twice at stream counts {2,4} (full
//    results bit-compare across the two runs; across stream counts the
//    completed distances must match the oracle);
//  * streaming determinism: every streaming row is bit-identical when run
//    twice — statuses, dispatch/finish times, promotions, distances and
//    makespans;
//  * lane policy: at the highest offered load, deadline-aware placement
//    (LanePolicy::kPredictedFastest) beats plain earliest-free on p99
//    sojourn over the completed queries;
//  * result cache: cached runs are oracle-exact and bit-identical when
//    run twice, the cache-hit p50 sojourn beats the cold p50,
//    and with a hot set 16x the cache the exact-hit fraction beats an
//    offline LRU of the same capacity.
//
// Results go to stdout and BENCH_server.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"
#include "core/query_server.hpp"
#include "core/traffic.hpp"
#include "sssp/dijkstra.hpp"

using namespace rdbs;

namespace {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Row {
  int load = 0;  // offered queries per lane
  bool breakers = false;
  std::size_t offered = 0;
  std::size_t done = 0;
  std::size_t shed = 0;
  std::size_t missed = 0;
  std::size_t hedged = 0;
  std::size_t rerouted = 0;
  std::size_t breaker_trips = 0;  // kOpen + kReopen transitions
  double p50 = 0, p95 = 0, p99 = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"cache", "dataset", "deadline-ms", "json",
                            "streams"});
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);
  const std::string dataset = args.get_string("dataset", "k-n16-16");
  const std::string json_path = args.get_string("json", "BENCH_server.json");
  const int streams = static_cast<int>(args.get_int("streams", 4));

  // --cache: run ONLY the result-cache rows, a quick check of the cache
  // alone. The full bench runs them too, first.
  const bool cache_only = args.get_bool("cache", false);

  const graph::Csr csr = bench::load_bench_graph(dataset, config);
  const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);

  core::QueryBatchOptions bopts;
  bopts.streams = streams;
  bopts.gpu.delta0 = delta0;

  // Calibrate the deadline off a clean single-lane run: the mean query cost
  // times a small slack. At load 1 everything fits; by load 8 a lane's
  // queue alone overruns it, so admission control has to act.
  const int max_load = 8;
  const std::vector<graph::VertexId> sources =
      bench::pick_sources(csr, max_load * streams, config.seed);
  double mean_ms = 0;
  {
    core::QueryServerOptions calib;
    calib.batch = bopts;
    calib.batch.streams = 1;
    core::QueryServer probe(csr, device, calib);
    const std::vector<graph::VertexId> warm(sources.begin(),
                                            sources.begin() + 4);
    const core::StreamResult r = probe.run_stream(core::batch_schedule(warm));
    for (const core::StreamQueryStats& sq : r.stats) {
      mean_ms += sq.query.device_ms;
    }
    mean_ms /= static_cast<double>(warm.size());
  }
  const double deadline_ms = args.get_double("deadline-ms", 5.0 * mean_ms);
  std::printf("== server tail latency: %s, %d lanes, deadline %.3f ms "
              "(5x mean query cost %.3f ms) ==\n\n",
              dataset.c_str(), streams, deadline_ms, mean_ms);

  // Deterministic launch faults: frequent enough to trip breakers, no
  // device loss (that latches the whole shared simulator by design). The
  // watchdog is tighter than the deadline so a hung kernel costs 1.5x a
  // mean query, not the whole budget. An RDBS solve issues hundreds of
  // kernels, so the fault budget has to be generous — the old cap of 16
  // was exhausted during deadline calibration and every breakers-on row
  // came out identical to its breakers-off twin (a fault-free plan); the
  // reroute assertion below guards against regressing into that again.
  gpusim::FaultConfig fault;
  fault.enabled = true;
  fault.seed = config.seed;
  fault.launch_failure = 0.08;
  fault.timeout = 0.01;
  fault.watchdog_ms = 1.5 * mean_ms;
  fault.max_faults = 256;

  bool deadline_bounded = true;
  bool distances_ok = true;
  std::map<graph::VertexId, std::vector<graph::Weight>> oracle;
  const auto check_stream = [&](const core::StreamResult& result,
                                std::span<const core::TrafficQuery> schedule,
                                const char* label) {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const core::StreamQueryStats& sq = result.stats[i];
      if (!core::query_completed(sq.query.status)) {
        if (!result.queries[i].sssp.distances.empty()) {
          std::fprintf(stderr,
                       "VIOLATION: %s query %zu did not complete but "
                       "reported distances\n",
                       label, i);
          distances_ok = false;
        }
        continue;
      }
      if (std::isfinite(sq.deadline_ms) &&
          sq.finish_ms > sq.deadline_ms + 1e-9) {
        std::fprintf(stderr,
                     "VIOLATION: %s completed query %zu finished at %.4f "
                     "ms, past its %.4f ms deadline\n",
                     label, i, sq.finish_ms, sq.deadline_ms);
        deadline_bounded = false;
      }
      auto it = oracle.find(schedule[i].source);
      if (it == oracle.end()) {
        it = oracle
                 .emplace(schedule[i].source,
                          sssp::dijkstra(csr, schedule[i].source).distances)
                 .first;
      }
      if (result.queries[i].sssp.distances != it->second) {
        std::fprintf(stderr,
                     "VIOLATION: %s completed query %zu (source %u) "
                     "distances differ from the Dijkstra reference\n",
                     label, i, schedule[i].source);
        distances_ok = false;
      }
    }
  };

  // One table/JSON row per served result. `load` is queries per lane for
  // the t=0 batch sweeps and the offered arrival rate as a multiple of
  // aggregate capacity for the streaming sweep.
  const auto row_of = [](int load, bool breakers,
                         const core::StreamResult& result) {
    Row row;
    row.load = load;
    row.breakers = breakers;
    row.offered = result.stats.size();
    row.done = static_cast<std::size_t>(
        result.ok_queries + result.recovered_queries +
        result.fallback_queries);
    row.shed = static_cast<std::size_t>(result.shed_queries);
    row.missed = static_cast<std::size_t>(result.deadline_queries);
    row.hedged = static_cast<std::size_t>(result.hedged_queries);
    row.rerouted = static_cast<std::size_t>(result.rerouted_queries);
    for (const core::BreakerEvent& event : result.breaker_events) {
      if (event.transition == core::BreakerTransition::kOpen ||
          event.transition == core::BreakerTransition::kReopen) {
        ++row.breaker_trips;
      }
    }
    std::vector<double> sojourn;
    for (const core::StreamQueryStats& sq : result.stats) {
      if (core::query_completed(sq.query.status)) {
        sojourn.push_back(sq.sojourn_ms);
      }
    }
    row.p50 = percentile(sojourn, 0.50);
    row.p95 = percentile(sojourn, 0.95);
    row.p99 = percentile(sojourn, 0.99);
    return row;
  };

  // --- result-cache sweep ---------------------------------------------------
  // Fault-free on purpose — these rows isolate what reuse buys. Both hold
  // every completed query, cached or cold, to the Dijkstra oracle and every
  // cached run to bit-identity with a second run of it (exit 1).
  std::map<graph::VertexId, std::vector<graph::Weight>> cache_oracle;
  const auto oracle_exact = [&](std::span<const core::TrafficQuery> schedule,
                                const core::StreamResult& result,
                                const char* label) {
    bool exact = true;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      if (!core::query_completed(result.stats[i].query.status)) continue;
      auto it = cache_oracle.find(schedule[i].source);
      if (it == cache_oracle.end()) {
        it = cache_oracle
                 .emplace(schedule[i].source,
                          sssp::dijkstra(csr, schedule[i].source).distances)
                 .first;
      }
      if (result.queries[i].sssp.distances != it->second) {
        std::fprintf(stderr,
                     "VIOLATION: %s query %zu (source %u) distances "
                     "differ from the Dijkstra reference\n",
                     label, i, schedule[i].source);
        exact = false;
      }
    }
    return exact;
  };
  const auto rerun_invariant = [](const core::StreamResult& first,
                                   const core::StreamResult& rerun,
                                   const char* label) {
    bool same = true;
    for (std::size_t i = 0; i < first.stats.size(); ++i) {
      if (first.stats[i].query.status != rerun.stats[i].query.status ||
          first.stats[i].dispatch_ms != rerun.stats[i].dispatch_ms ||
          first.stats[i].finish_ms != rerun.stats[i].finish_ms ||
          first.queries[i].sssp.distances !=
              rerun.queries[i].sssp.distances) {
        std::fprintf(stderr,
                     "VIOLATION: %s query %zu differs between two runs\n",
                     label, i);
        same = false;
      }
    }
    if (first.cached_queries != rerun.cached_queries ||
        first.joined_queries != rerun.joined_queries ||
        first.warm_started_queries != rerun.warm_started_queries) {
      std::fprintf(stderr,
                   "VIOLATION: %s cache aggregates differ between two "
                   "runs\n",
                   label);
      same = false;
    }
    return same;
  };
  // A server over `schedule` with a kCacheCapacity-entry cache (or none),
  // four landmarks and no host hedging; `cache_stats` receives the
  // cache's counters when given.
  constexpr std::size_t kCacheCapacity = 64;
  const auto serve_cached = [&](std::span<const core::TrafficQuery> schedule,
                                bool cache_on,
                                core::ResultCacheStats* cache_stats =
                                    nullptr) {
    core::QueryServerOptions sopts;
    sopts.batch = bopts;
    sopts.max_pending = schedule.size();
    sopts.hedge_to_cpu = false;
    sopts.cache.enabled = cache_on;
    sopts.cache.capacity = kCacheCapacity;
    sopts.cache.landmarks = 4;
    core::QueryServer server(csr, device, sopts);
    core::StreamResult result = server.run_stream(schedule);
    if (cache_stats != nullptr) *cache_stats = server.result_cache()->stats();
    return result;
  };

  // A Zipf-hot 600-query Poisson stream served twice on fresh servers:
  // cold (cache off) and cached (exact hits + single-flight joins +
  // landmark warm starts; docs/serving.md "Result cache"). Its 64 hot
  // sources fit the cache, so nothing is evicted. Gate (exit 1):
  // cache-hit p50 sojourn < cold completed p50 sojourn (the reuse win).
  struct CacheSweep {
    std::size_t offered = 0, cold_done = 0;
    std::size_t hits = 0, joins = 0, warm = 0;
    double hit_p50 = 0, cold_p50 = 0;
    bool correct = true;
    bool deterministic = true;
    bool beats_cold = false;
  };
  CacheSweep cache_sweep;
  {
    core::TrafficSpec spec;
    spec.process = core::ArrivalProcess::kPoisson;
    spec.seed = config.seed;
    spec.num_queries = 600;
    spec.rate_qpms = 2.0 * static_cast<double>(streams) / mean_ms;
    spec.zipf_s = 1.3;
    spec.source_universe = 64;
    spec.class_deadline_ms = {6.0 * mean_ms, 16.0 * mean_ms, 100.0 * mean_ms};
    const std::vector<core::TrafficQuery> schedule =
        core::generate_traffic(spec, csr.num_vertices());
    cache_sweep.offered = schedule.size();

    const core::StreamResult cold = serve_cached(schedule, false);
    const core::StreamResult cached = serve_cached(schedule, true);
    const core::StreamResult cached_rerun = serve_cached(schedule, true);
    cache_sweep.correct = oracle_exact(schedule, cold, "cache-cold") &&
                          oracle_exact(schedule, cached, "cache-on");
    cache_sweep.deterministic =
        rerun_invariant(cached, cached_rerun, "cached streaming");

    cache_sweep.hits = static_cast<std::size_t>(cached.cached_queries);
    cache_sweep.joins = static_cast<std::size_t>(cached.joined_queries);
    cache_sweep.warm =
        static_cast<std::size_t>(cached.warm_started_queries);
    std::vector<double> hit_sojourn, cold_sojourn;
    for (const core::StreamQueryStats& sq : cached.stats) {
      if (sq.query.status == core::QueryStatus::kCacheHit) {
        hit_sojourn.push_back(sq.sojourn_ms);
      }
    }
    for (const core::StreamQueryStats& sq : cold.stats) {
      if (core::query_completed(sq.query.status)) {
        cold_sojourn.push_back(sq.sojourn_ms);
      }
    }
    cache_sweep.cold_done = cold_sojourn.size();
    cache_sweep.hit_p50 = percentile(hit_sojourn, 0.50);
    cache_sweep.cold_p50 = percentile(cold_sojourn, 0.50);
    cache_sweep.beats_cold = !hit_sojourn.empty() && !cold_sojourn.empty() &&
                             cache_sweep.hit_p50 < cache_sweep.cold_p50;
    if (!cache_sweep.beats_cold) {
      std::fprintf(stderr,
                   "VIOLATION: cache-hit p50 (%.4f ms over %zu hits) does "
                   "not beat cold p50 (%.4f ms over %zu completed)\n",
                   cache_sweep.hit_p50, hit_sojourn.size(),
                   cache_sweep.cold_p50, cold_sojourn.size());
    }
  }

  // Eviction pressure: Zipf 1.1 over 1,024 hot sources, 16x the cache, so
  // the cache must choose what to keep. The yardstick is an offline LRU of
  // the same capacity replaying the schedule's sources in arrival order,
  // every miss admitted at once (no solve time, hence no in-flight
  // window). Gate (exit 1): the served exact-hit fraction beats it.
  struct PressureRow {
    std::size_t offered = 0, hits = 0, joins = 0, warm = 0;
    std::uint64_t evictions = 0, rejected = 0;
    double hit_frac = 0, lru_hit_frac = 0, ceiling = 0;
    double sojourn_mean = 0, sojourn_p90 = 0;
    bool correct = true;
    bool deterministic = true;
    bool beats_lru = false;
  };
  PressureRow pressure;
  {
    core::TrafficSpec spec;
    spec.process = core::ArrivalProcess::kPoisson;
    spec.seed = config.seed;
    spec.num_queries = 1500;
    spec.rate_qpms = 2.0 * static_cast<double>(streams) / mean_ms;
    spec.zipf_s = 1.1;
    spec.source_universe = 16 * kCacheCapacity;
    spec.class_deadline_ms = {6.0 * mean_ms, 16.0 * mean_ms, 100.0 * mean_ms};
    const std::vector<core::TrafficQuery> schedule =
        core::generate_traffic(spec, csr.num_vertices());
    pressure.offered = schedule.size();

    core::ResultCacheStats stats;
    const core::StreamResult cached = serve_cached(schedule, true, &stats);
    const core::StreamResult cached_rerun = serve_cached(schedule, true);
    pressure.correct = oracle_exact(schedule, cached, "cache-pressure");
    pressure.deterministic =
        rerun_invariant(cached, cached_rerun, "cache-pressure");

    pressure.hits = static_cast<std::size_t>(cached.cached_queries);
    pressure.joins = static_cast<std::size_t>(cached.joined_queries);
    pressure.warm = static_cast<std::size_t>(cached.warm_started_queries);
    pressure.evictions = stats.evictions;
    pressure.rejected = stats.rejected;
    pressure.ceiling = core::source_repetition_stats(schedule).repeat_fraction;
    const double offered_d = static_cast<double>(pressure.offered);
    pressure.hit_frac = static_cast<double>(pressure.hits) / offered_d;

    std::vector<graph::VertexId> lru;  // least recently used first
    std::size_t lru_hits = 0;
    for (const core::TrafficQuery& query : schedule) {
      const auto it = std::find(lru.begin(), lru.end(), query.source);
      if (it != lru.end()) {
        ++lru_hits;
        lru.erase(it);
      } else if (lru.size() == kCacheCapacity) {
        lru.erase(lru.begin());
      }
      lru.push_back(query.source);
    }
    pressure.lru_hit_frac = static_cast<double>(lru_hits) / offered_d;

    std::vector<double> sojourn;
    for (const core::StreamQueryStats& sq : cached.stats) {
      if (core::query_completed(sq.query.status)) {
        sojourn.push_back(sq.sojourn_ms);
        pressure.sojourn_mean += sq.sojourn_ms;
      }
    }
    if (!sojourn.empty()) {
      pressure.sojourn_mean /= static_cast<double>(sojourn.size());
    }
    pressure.sojourn_p90 = percentile(sojourn, 0.90);
    pressure.beats_lru = pressure.hit_frac > pressure.lru_hit_frac;
    if (!pressure.beats_lru) {
      std::fprintf(stderr,
                   "VIOLATION: cache-pressure hit fraction %.4f does not "
                   "beat the offline LRU's %.4f\n",
                   pressure.hit_frac, pressure.lru_hit_frac);
    }
  }
  const bool cache_ok =
      cache_sweep.correct && cache_sweep.deterministic &&
      cache_sweep.beats_cold && pressure.correct && pressure.deterministic &&
      pressure.beats_lru;
  std::printf("cache sweep (Zipf s=1.3, 64 hot sources, %zu queries): "
              "%zu exact hit(s), %zu join(s), %zu warm start(s); "
              "hit p50 %.4f ms vs cold p50 %.4f ms -> %s; "
              "oracle-exact %s, rerun-deterministic %s\n",
              cache_sweep.offered, cache_sweep.hits, cache_sweep.joins,
              cache_sweep.warm, cache_sweep.hit_p50, cache_sweep.cold_p50,
              cache_sweep.beats_cold ? "cache wins" : "NO WIN",
              cache_sweep.correct ? "yes" : "NO",
              cache_sweep.deterministic ? "yes" : "NO");
  std::printf("cache pressure (Zipf s=1.1, %zu hot sources, capacity %zu, "
              "%zu queries): hit fraction %.4f vs offline LRU %.4f -> %s "
              "(repeat ceiling %.4f); %zu join(s), %zu warm start(s), "
              "%llu eviction(s), %llu rejection(s); sojourn mean %.4f ms, "
              "p90 %.4f ms; oracle-exact %s, rerun-deterministic %s\n",
              16 * kCacheCapacity, kCacheCapacity, pressure.offered,
              pressure.hit_frac, pressure.lru_hit_frac,
              pressure.beats_lru ? "beats LRU" : "NO WIN", pressure.ceiling,
              pressure.joins, pressure.warm,
              static_cast<unsigned long long>(pressure.evictions),
              static_cast<unsigned long long>(pressure.rejected),
              pressure.sojourn_mean, pressure.sojourn_p90,
              pressure.correct ? "yes" : "NO",
              pressure.deterministic ? "yes" : "NO");
  const auto write_cache_json = [&](std::FILE* json) {
    std::fprintf(
        json,
        "  \"cache\": {\"offered\": %zu, \"cold_completed\": %zu, "
        "\"exact_hits\": %zu, \"single_flight_joins\": %zu, "
        "\"warm_starts\": %zu, \"hit_p50_ms\": %.4f, \"cold_p50_ms\": %.4f, "
        "\"cache_hit_p50_beats_cold_p50\": %s, \"oracle_exact\": %s, "
        "\"deterministic\": %s},\n",
        cache_sweep.offered, cache_sweep.cold_done, cache_sweep.hits,
        cache_sweep.joins, cache_sweep.warm, cache_sweep.hit_p50,
        cache_sweep.cold_p50, cache_sweep.beats_cold ? "true" : "false",
        cache_sweep.correct ? "true" : "false",
        cache_sweep.deterministic ? "true" : "false");
    std::fprintf(
        json,
        "  \"cache_pressure\": {\"offered\": %zu, \"capacity\": %zu, "
        "\"hot_sources\": %zu, \"exact_hits\": %zu, "
        "\"single_flight_joins\": %zu, \"warm_starts\": %zu, "
        "\"evictions\": %llu, \"rejected\": %llu, \"hit_frac\": %.4f, "
        "\"offline_lru_hit_frac\": %.4f, \"repeat_ceiling\": %.4f, "
        "\"sojourn_mean_ms\": %.4f, \"sojourn_p90_ms\": %.4f, "
        "\"hit_frac_beats_offline_lru\": %s, \"oracle_exact\": %s, "
        "\"deterministic\": %s}",
        pressure.offered, kCacheCapacity, 16 * kCacheCapacity, pressure.hits,
        pressure.joins, pressure.warm,
        static_cast<unsigned long long>(pressure.evictions),
        static_cast<unsigned long long>(pressure.rejected), pressure.hit_frac,
        pressure.lru_hit_frac, pressure.ceiling, pressure.sojourn_mean,
        pressure.sojourn_p90, pressure.beats_lru ? "true" : "false",
        pressure.correct ? "true" : "false",
        pressure.deterministic ? "true" : "false");
  };
  if (cache_only) {
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fprintf(json, "{\n  \"device\": \"%s\",\n  \"dataset\": \"%s\",\n",
                 device.name.c_str(), dataset.c_str());
    write_cache_json(json);
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("wrote %s (cache sweep only)\n", json_path.c_str());
    return cache_ok ? 0 : 1;
  }

  // The batch sweeps are t=0 schedules (core::batch_schedule): every query
  // arrives at once with the same relative deadline, and run_stream()
  // dispatches them earliest deadline first, ties in offer order.
  const auto first_sources = [&](int count) {
    return std::span<const graph::VertexId>(sources).first(
        static_cast<std::size_t>(count));
  };
  std::vector<Row> rows;
  for (const bool breakers : {true, false}) {
    for (const int load : {1, 2, 4, 8}) {
      core::QueryServerOptions sopts;
      sopts.batch = bopts;
      sopts.batch.gpu.fault = fault;
      sopts.max_pending = sources.size();
      sopts.breaker.enabled = breakers;
      sopts.breaker.failure_threshold = 2;
      // Long enough that healthy lanes' clocks overtake the idling open
      // lane while it cools down: that is exactly when least-loaded
      // placement would return to the bad lane and the breaker visibly
      // reroutes instead.
      sopts.breaker.cooldown_ms = 4.0 * deadline_ms;
      core::QueryServer server(csr, device, sopts);
      const std::vector<core::TrafficQuery> offered =
          core::batch_schedule(first_sources(load * streams), deadline_ms);
      const core::StreamResult result = server.run_stream(offered);
      check_stream(result, offered, "overload");
      rows.push_back(row_of(load, breakers, result));
    }
  }

  // --- breaker observability under sustained faults -----------------------
  // The overload sweep above sheds nearly everything once the deadline
  // window closes, so lane exclusion cannot move completions there. This
  // pair of runs isolates the breakers: relaxed per-query deadlines (no
  // shedding), full load, same fault plan. With breakers on, a tripped
  // lane idles through its cool-down and least-loaded placement visibly
  // reroutes around it; with them off, traffic keeps returning to the
  // faulting lane.
  Row fault_rows[2];
  for (const bool breakers : {true, false}) {
    core::QueryServerOptions sopts;
    sopts.batch = bopts;
    sopts.batch.gpu.fault = fault;
    sopts.max_pending = sources.size();
    sopts.breaker.enabled = breakers;
    sopts.breaker.failure_threshold = 2;
    sopts.breaker.cooldown_ms = 4.0 * deadline_ms;
    core::QueryServer server(csr, device, sopts);
    const std::vector<core::TrafficQuery> offered = core::batch_schedule(
        first_sources(max_load * streams), 100.0 * deadline_ms);
    const core::StreamResult result = server.run_stream(offered);
    check_stream(result, offered, "faults");
    fault_rows[breakers ? 0 : 1] = row_of(max_load, breakers, result);
  }

  // Degraded-routing determinism sweep: trip lane 0 up front, then verify
  // full bit-identity across two runs and oracle-identity across stream
  // counts (lane packing legitimately shifts statuses between layouts).
  for (const int sweep_streams : {2, 4}) {
    std::vector<core::StreamResult> runs;
    const std::vector<core::TrafficQuery> offered = core::batch_schedule(
        first_sources(2 * sweep_streams), 10.0 * deadline_ms);
    for (int run = 0; run < 2; ++run) {
      core::QueryServerOptions sopts;
      sopts.batch = bopts;
      sopts.batch.streams = sweep_streams;
      sopts.breaker.cooldown_ms = deadline_ms;
      core::QueryServer server(csr, device, sopts);
      server.trip_lane(0);
      runs.push_back(server.run_stream(offered));
      check_stream(runs.back(), offered, "degraded");
    }
    for (std::size_t i = 0; i < offered.size(); ++i) {
      if (runs[0].queries[i].sssp.distances !=
              runs[1].queries[i].sssp.distances ||
          runs[0].stats[i].query.status != runs[1].stats[i].query.status) {
        std::fprintf(stderr,
                     "VIOLATION: two runs disagree on query %zu "
                     "(%d streams, lane 0 tripped)\n",
                     i, sweep_streams);
        distances_ok = false;
      }
    }
  }

  // --- streaming sweep -----------------------------------------------------
  // 1000-query Poisson schedules at 1x / 2x / 4x of aggregate lane capacity
  // (streams / mean query cost), served continuously by run_stream() with
  // per-class deadlines. Every row is produced twice and must bit-compare;
  // the row reported comes from the first run. Deadlines are per traffic class, in units of the measured mean
  // query cost, finite for all three classes so the lane policy applies to
  // the whole stream.
  gpusim::FaultConfig stream_fault = fault;
  // 1000 queries issue far more launches than the batch sweeps; keep fault
  // pressure alive through the whole stream instead of going quiet after
  // the first 256 faults, but at a gentler per-launch rate — at the batch
  // sweeps' 8% the stream sheds nearly everything and every completed tail
  // just hugs its deadline, which makes the policy comparison degenerate.
  stream_fault.launch_failure = 0.02;
  stream_fault.max_faults = 2048;
  // One flaky lane: stream 0 takes 8x the launch-level fault pressure. With
  // uniform i.i.d. faults a lane's cost history predicts nothing (earliest-
  // free placement is provably as good as it gets); a persistently bad lane
  // is what gives the per-lane EWMAs — and the deadline-aware picker built
  // on them — something real to learn.
  stream_fault.hot_stream = 0;
  stream_fault.hot_stream_factor = 8.0;
  const std::vector<int> stream_loads = {1, 2, 4};
  const auto make_stream_spec = [&](int load, std::size_t num_queries) {
    core::TrafficSpec spec;
    spec.process = core::ArrivalProcess::kPoisson;
    spec.seed = config.seed;
    spec.num_queries = num_queries;
    spec.rate_qpms = static_cast<double>(load * streams) / mean_ms;
    spec.zipf_s = 1.1;
    spec.source_universe = 256;
    // Finite for all classes (the lane policy only applies to deadline-
    // bound queries) but loose enough that the completed tail is shaped by
    // placement and service time, not clamped at the deadline itself.
    spec.class_deadline_ms = {6.0 * mean_ms, 16.0 * mean_ms,
                              100.0 * mean_ms};
    return spec;
  };
  std::map<int, std::vector<core::TrafficQuery>> stream_schedules;
  for (const int load : stream_loads) {
    stream_schedules[load] = core::generate_traffic(
        make_stream_spec(load, 1000), csr.num_vertices());
  }

  const auto run_stream_config =
      [&](bool breakers, core::LanePolicy policy,
          std::span<const core::TrafficQuery> schedule) {
        core::QueryServerOptions sopts;
        sopts.batch = bopts;
        sopts.batch.gpu.fault = stream_fault;
        // A short pending queue keeps the completed sojourns service-
        // dominated: with a deep queue every tail percentile measures how
        // long the backlog was, which buries what the bench is after —
        // the cost of WHERE a query ran.
        sopts.max_pending = 16;
        sopts.breaker.enabled = breakers;
        sopts.breaker.failure_threshold = 2;
        sopts.breaker.cooldown_ms = 4.0 * deadline_ms;
        sopts.lane_policy = policy;
        sopts.aging_ms = 4.0 * mean_ms;
        // Keep the host hedge lane out of the streaming sweep: hedged
        // completions are serialized on one slow host worker, so their
        // sojourns would dominate the completed tail and the lane-policy
        // comparison would measure hedge counts, not device placement.
        // (The fault-routing sweep above covers hedging.)
        sopts.hedge_to_cpu = false;
        core::QueryServer server(csr, device, sopts);
        return server.run_stream(schedule);
      };

  bool stream_deterministic = true;
  const auto same_stream = [](const core::StreamResult& a,
                              const core::StreamResult& b) {
    if (a.makespan_ms != b.makespan_ms ||
        a.device_makespan_ms != b.device_makespan_ms ||
        a.shed_queries != b.shed_queries ||
        a.deadline_queries != b.deadline_queries ||
        a.rerouted_queries != b.rerouted_queries ||
        a.breaker_events.size() != b.breaker_events.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.stats.size(); ++i) {
      if (a.stats[i].query.status != b.stats[i].query.status ||
          a.stats[i].dispatch_ms != b.stats[i].dispatch_ms ||
          a.stats[i].finish_ms != b.stats[i].finish_ms ||
          a.stats[i].promotions != b.stats[i].promotions ||
          a.queries[i].sssp.distances != b.queries[i].sssp.distances) {
        return false;
      }
    }
    return true;
  };

  std::vector<Row> stream_rows;
  double policy_p99[2] = {0, 0};  // [kEarliestFree, kPredictedFastest]
  std::size_t policy_done[2] = {0, 0};
  for (const bool breakers : {true, false}) {
    for (const int load : stream_loads) {
      const std::vector<core::TrafficQuery>& schedule =
          stream_schedules[load];
      const core::StreamResult first = run_stream_config(
          breakers, core::LanePolicy::kPredictedFastest, schedule);
      const core::StreamResult rerun = run_stream_config(
          breakers, core::LanePolicy::kPredictedFastest, schedule);
      check_stream(first, schedule, "streaming");
      if (!same_stream(first, rerun)) {
        std::fprintf(stderr,
                     "VIOLATION: streaming row (breakers %s, load %dx) "
                     "differs between two runs\n",
                     breakers ? "on" : "off", load);
        stream_deterministic = false;
      }
      stream_rows.push_back(row_of(load, breakers, first));
    }
  }

  // Lane-policy comparison at the highest offered load: the same traffic
  // shape served with predicted-fastest vs plain earliest-free placement.
  // Predicted-fastest must win on p99 sojourn — the flaky lane's retry-
  // inflated cost history keeps its EWMA high, and the deadline-aware
  // picker routes urgent queries around it while earliest-free keeps
  // feeding it whenever its clock happens to be lowest. Breakers are OFF
  // for this pair on purpose (with them on, lane exclusion does the
  // routing for both policies and the placement difference is mostly
  // masked), and the schedule is 3x longer than a sweep row so the p99
  // order statistic sits on a few hundred completions instead of ~100.
  {
    const std::vector<core::TrafficQuery> schedule = core::generate_traffic(
        make_stream_spec(stream_loads.back(), 3000), csr.num_vertices());
    for (const bool fastest : {false, true}) {
      const core::StreamResult result = run_stream_config(
          false,
          fastest ? core::LanePolicy::kPredictedFastest
                  : core::LanePolicy::kEarliestFree,
          schedule);
      check_stream(result, schedule,
                   fastest ? "predicted-fastest" : "earliest-free");
      const Row row = row_of(stream_loads.back(), false, result);
      policy_p99[fastest ? 1 : 0] = row.p99;
      policy_done[fastest ? 1 : 0] = row.done;
    }
  }
  const bool policy_wins =
      policy_done[0] > 0 && policy_done[1] > 0 && policy_p99[1] < policy_p99[0];
  if (!policy_wins) {
    std::fprintf(stderr,
                 "VIOLATION: predicted-fastest placement did not beat "
                 "earliest-free on p99 at %dx load (%.4f ms vs %.4f ms, "
                 "%zu vs %zu completed)\n",
                 stream_loads.back(), policy_p99[1], policy_p99[0],
                 policy_done[1], policy_done[0]);
  }

  // --- fault-storm recovery sweep ------------------------------------------
  // The same 1000-query 2x-load stream served through a storm that layers
  // device loss on top of the launch faults and the 8x hot lane. Failures
  // must surface (retry budget 3, no CPU fallback) so the serving layer's
  // recovery machinery — checkpoint-resume inside retries, mid-query lane
  // migration after a loss — is what keeps goodput up. A/B:
  //  * restart: no checkpoints, no migration. A device loss latches the
  //    shared simulator and no retry can run on a dead device, so the
  //    stream's tail after the first loss is all failures — the cost of
  //    full-restart-only recovery.
  //  * resume: checkpoint every second boundary + migration. The failed
  //    query moves to a surviving lane, the device is revived, and the
  //    stream keeps serving.
  // Gates (exit 1): resume goodput (deadline-met fraction) beats restart;
  // the resume run is bit-identical when run twice; the
  // closed-loop variant keeps retry amplification within its budget.
  struct StormRow {
    std::size_t offered = 0, done = 0, shed = 0, missed = 0, failed = 0;
    std::size_t resumed = 0, migrated = 0;
    std::size_t landed = 0, voided = 0;  // checkpoint copies
    std::size_t retried = 0, exhausted = 0;
    double goodput = 0;  // completed (therefore deadline-met) / offered
  };
  gpusim::FaultConfig storm_fault = stream_fault;
  // Gentler launch pressure than the streaming sweep: with no CPU fallback
  // 2% per-launch faults exhaust every retry budget and the whole stream
  // collapses in BOTH configs, which leaves the A/B nothing to measure.
  // At 0.2% retries absorb the launch noise and the device loss is what
  // separates the configs. The fault seed is pinned (not config.seed) so
  // the plan's loss fires mid-stream with in-flight queries to strand — a
  // plan whose loss never lands, or lands after the last dispatch, tests
  // nothing (the storm_recovery_used gate below enforces this).
  storm_fault.launch_failure = 0.002;
  storm_fault.device_loss = 3e-4;
  storm_fault.seed = 7;
  const std::vector<core::TrafficQuery>& storm_schedule = stream_schedules[2];
  core::ClosedLoopSpec storm_loop;
  storm_loop.enabled = true;
  storm_loop.retry_budget = 2;
  storm_loop.backoff_base_ms = 0.5 * mean_ms;
  storm_loop.jitter = 0.5;
  storm_loop.seed = config.seed;
  storm_loop.backpressure_depth = 8;
  storm_loop.backpressure_penalty_ms = 0.25 * mean_ms;
  const auto run_storm = [&](bool resume, bool closed) {
    core::QueryServerOptions sopts;
    sopts.batch = bopts;
    sopts.batch.gpu.fault = storm_fault;
    sopts.batch.gpu.retry.max_attempts = 3;
    sopts.batch.gpu.retry.cpu_fallback = false;
    sopts.batch.gpu.checkpoint_interval = resume ? 2 : 0;
    sopts.migrate = resume;
    sopts.max_pending = 16;
    sopts.breaker.enabled = true;
    sopts.breaker.failure_threshold = 2;
    sopts.breaker.cooldown_ms = 4.0 * deadline_ms;
    sopts.lane_policy = core::LanePolicy::kPredictedFastest;
    sopts.aging_ms = 4.0 * mean_ms;
    sopts.hedge_to_cpu = false;
    if (closed) sopts.closed_loop = storm_loop;
    core::QueryServer server(csr, device, sopts);
    return server.run_stream(storm_schedule);
  };
  const auto storm_row = [&](const core::StreamResult& result) {
    StormRow row;
    row.offered = result.stats.size();
    row.done = static_cast<std::size_t>(
        result.ok_queries + result.recovered_queries +
        result.fallback_queries);
    row.shed = static_cast<std::size_t>(result.shed_queries);
    row.missed = static_cast<std::size_t>(result.deadline_queries);
    row.failed = static_cast<std::size_t>(result.failed_queries);
    row.resumed = static_cast<std::size_t>(result.resumed_queries);
    row.migrated = static_cast<std::size_t>(result.migrated_queries);
    row.landed =
        static_cast<std::size_t>(result.recovery.checkpoints_landed);
    row.voided =
        static_cast<std::size_t>(result.recovery.checkpoints_voided);
    row.retried = static_cast<std::size_t>(result.retried_arrivals);
    row.exhausted = static_cast<std::size_t>(result.retry_exhausted);
    row.goodput =
        static_cast<double>(row.done) / static_cast<double>(row.offered);
    return row;
  };
  const core::StreamResult storm_restart = run_storm(false, false);
  const core::StreamResult storm_resume = run_storm(true, false);
  const core::StreamResult storm_resume_rerun = run_storm(true, false);
  const core::StreamResult storm_closed = run_storm(true, true);
  check_stream(storm_restart, storm_schedule, "storm-restart");
  check_stream(storm_resume, storm_schedule, "storm-resume");
  check_stream(storm_closed, storm_schedule, "storm-closed-loop");
  bool storm_deterministic = same_stream(storm_resume, storm_resume_rerun);
  if (storm_resume.resumed_queries != storm_resume_rerun.resumed_queries ||
      storm_resume.migrated_queries != storm_resume_rerun.migrated_queries) {
    storm_deterministic = false;
  }
  if (!storm_deterministic) {
    std::fprintf(stderr,
                 "VIOLATION: storm resume run differs between two runs\n");
  }
  const StormRow storm_a = storm_row(storm_restart);
  const StormRow storm_b = storm_row(storm_resume);
  const StormRow storm_c = storm_row(storm_closed);
  const bool storm_recovery_used = storm_b.migrated + storm_b.resumed > 0;
  const bool storm_wins = storm_b.goodput > storm_a.goodput;
  if (!storm_recovery_used) {
    std::fprintf(stderr,
                 "VIOLATION: the storm never exercised checkpoint-resume "
                 "or migration (0 resumed, 0 migrated) — the fault plan "
                 "is too gentle to test recovery\n");
  }
  if (!storm_wins) {
    std::fprintf(stderr,
                 "VIOLATION: checkpoint-resume + migration goodput %.4f "
                 "does not beat full-restart goodput %.4f under the "
                 "fault storm\n",
                 storm_b.goodput, storm_a.goodput);
  }
  // Bounded amplification: every re-arrival is accounted to a query and no
  // query exceeds the retry budget — so total re-arrivals can never exceed
  // budget x (queries that retried at all).
  bool storm_bounded_retries = storm_c.retried > 0;
  std::size_t storm_retried_queries = 0;
  std::size_t storm_rearrivals = 0;
  for (const core::StreamQueryStats& sq : storm_closed.stats) {
    if (sq.arrivals > 1) ++storm_retried_queries;
    storm_rearrivals += static_cast<std::size_t>(sq.arrivals - 1);
    if (sq.arrivals - 1 > storm_loop.retry_budget) {
      storm_bounded_retries = false;
    }
  }
  if (storm_rearrivals != storm_c.retried ||
      storm_c.retried >
          static_cast<std::size_t>(storm_loop.retry_budget) *
              storm_retried_queries) {
    storm_bounded_retries = false;
  }
  if (!storm_bounded_retries) {
    std::fprintf(stderr,
                 "VIOLATION: closed-loop retry amplification out of bounds "
                 "(%zu re-arrivals over %zu retried queries, budget %d)\n",
                 storm_rearrivals, storm_retried_queries,
                 storm_loop.retry_budget);
  }
  const bool storm_ok =
      storm_wins && storm_recovery_used && storm_deterministic &&
      storm_bounded_retries;

  // Breakers must have observable consequences: under the sustained fault
  // plan the breakers-on run has to trip lanes and move queries (reroutes
  // or host hedges) relative to the breakers-off run. Identical totals
  // mean the plan was effectively fault-free and every on/off comparison
  // in this bench meaningless.
  const std::size_t on_moved = fault_rows[0].rerouted + fault_rows[0].hedged;
  const std::size_t off_moved = fault_rows[1].rerouted + fault_rows[1].hedged;
  const bool breakers_observable =
      fault_rows[0].breaker_trips > 0 && on_moved != off_moved;
  if (!breakers_observable) {
    std::fprintf(stderr,
                 "VIOLATION: breakers-on run is indistinguishable from "
                 "breakers-off (trips %zu, moved %zu vs %zu) — the fault "
                 "plan never exercised the breakers\n",
                 fault_rows[0].breaker_trips, on_moved, off_moved);
  }

  TextTable table({"sweep", "breakers", "load/lane", "offered", "done",
                   "shed", "missed", "hedged", "rerouted", "trips", "p50 ms",
                   "p95 ms", "p99 ms"});
  const auto add_table_row = [&](const char* sweep, const Row& row) {
    table.add_row({sweep, row.breakers ? "on" : "off",
                   format_count(static_cast<std::uint64_t>(row.load)),
                   format_count(row.offered), format_count(row.done),
                   format_count(row.shed), format_count(row.missed),
                   format_count(row.hedged), format_count(row.rerouted),
                   format_count(row.breaker_trips), format_fixed(row.p50, 3),
                   format_fixed(row.p95, 3), format_fixed(row.p99, 3)});
  };
  for (const Row& row : rows) add_table_row("overload", row);
  for (const Row& row : fault_rows) add_table_row("faults", row);
  for (const Row& row : stream_rows) add_table_row("stream", row);
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);
  std::printf("\n(stream rows: the load column is the offered arrival rate "
              "as a multiple of aggregate capacity, 1000 queries each)\n");
  std::printf("\ncompleted tail bounded by deadline: %s; "
              "completed distances match Dijkstra: %s; "
              "breakers observable under faults: %s\n",
              deadline_bounded ? "yes" : "NO", distances_ok ? "yes" : "NO",
              breakers_observable ? "yes" : "NO");
  std::printf("stream rows bit-identical across two runs: %s; "
              "predicted-fastest beats earliest-free at %dx load: %s "
              "(p99 %.3f ms vs %.3f ms)\n",
              stream_deterministic ? "yes" : "NO", stream_loads.back(),
              policy_wins ? "yes" : "NO", policy_p99[1], policy_p99[0]);
  std::printf(
      "fault storm (loss %.0e + hot lane): restart goodput %.4f "
      "(%zu done, %zu failed) vs resume goodput %.4f (%zu done, %zu "
      "failed, %zu resumed, %zu migrated; checkpoint copies %zu landed, "
      "%zu voided) -> %s; deterministic %s\n",
      storm_fault.device_loss, storm_a.goodput, storm_a.done, storm_a.failed,
      storm_b.goodput, storm_b.done, storm_b.failed, storm_b.resumed,
      storm_b.migrated, storm_b.landed, storm_b.voided,
      storm_wins ? "resume wins" : "NO WIN",
      storm_deterministic ? "yes" : "NO");
  std::printf(
      "closed loop under the storm: goodput %.4f, %zu re-arrival(s) over "
      "%zu retried query(ies), %zu past budget %d -> amplification %s\n",
      storm_c.goodput, storm_rearrivals, storm_retried_queries,
      storm_c.exhausted, storm_loop.retry_budget,
      storm_bounded_retries ? "bounded" : "OUT OF BOUNDS");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"device\": \"%s\",\n  \"dataset\": \"%s\",\n",
               device.name.c_str(), dataset.c_str());
  std::fprintf(json, "  \"streams\": %d,\n  \"deadline_ms\": %.4f,\n",
               streams, deadline_ms);
  std::fprintf(json, "  \"deadline_bounded\": %s,\n",
               deadline_bounded ? "true" : "false");
  std::fprintf(json, "  \"distances_identical\": %s,\n",
               distances_ok ? "true" : "false");
  std::fprintf(json, "  \"breakers_observable\": %s,\n",
               breakers_observable ? "true" : "false");
  std::fprintf(json, "  \"stream_deterministic\": %s,\n",
               stream_deterministic ? "true" : "false");
  std::fprintf(json,
               "  \"lane_policy\": {\"load_x\": %d, "
               "\"p99_predicted_ms\": %.4f, \"p99_earliest_ms\": %.4f, "
               "\"completed_predicted\": %zu, \"completed_earliest\": %zu, "
               "\"predicted_beats_earliest\": %s},\n",
               stream_loads.back(), policy_p99[1], policy_p99[0],
               policy_done[1], policy_done[0],
               policy_wins ? "true" : "false");
  const auto write_storm_row = [&](const char* key, const StormRow& row,
                                   const char* tail) {
    std::fprintf(
        json,
        "    \"%s\": {\"offered\": %zu, \"completed\": %zu, \"shed\": %zu, "
        "\"deadline_missed\": %zu, \"failed\": %zu, \"resumed\": %zu, "
        "\"migrated\": %zu, \"checkpoints_landed\": %zu, "
        "\"checkpoints_voided\": %zu, \"retried_arrivals\": %zu, "
        "\"retry_exhausted\": %zu, \"goodput\": %.4f}%s\n",
        key, row.offered, row.done, row.shed, row.missed, row.failed,
        row.resumed, row.migrated, row.landed, row.voided, row.retried,
        row.exhausted, row.goodput, tail);
  };
  std::fprintf(json,
               "  \"fault_storm\": {\n    \"device_loss\": %.1e, "
               "\"retry_budget\": %d,\n",
               storm_fault.device_loss, storm_loop.retry_budget);
  write_storm_row("restart", storm_a, ",");
  write_storm_row("resume", storm_b, ",");
  write_storm_row("closed_loop", storm_c, ",");
  std::fprintf(json,
               "    \"resume_beats_restart\": %s, \"deterministic\": %s, "
               "\"retry_amplification_bounded\": %s},\n",
               storm_wins ? "true" : "false",
               storm_deterministic ? "true" : "false",
               storm_bounded_retries ? "true" : "false");
  write_cache_json(json);
  std::fprintf(json, ",\n");
  // `load_key` names what Row::load means: queries per lane for the t=0
  // batch sweeps, the offered-rate multiple for the streaming sweep.
  const auto write_rows = [&](const char* load_key, std::span<const Row> out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const Row& row = out[i];
      const double offered_d = static_cast<double>(row.offered);
      std::fprintf(
          json,
          "    {\"breakers\": %s, \"%s\": %d, \"offered\": %zu, "
          "\"completed\": %zu, \"shed\": %zu, \"deadline_missed\": %zu, "
          "\"hedged\": %zu, \"rerouted\": %zu, \"breaker_trips\": %zu, "
          "\"shed_rate\": %.4f, \"miss_rate\": %.4f, "
          "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
          row.breakers ? "true" : "false", load_key, row.load, row.offered,
          row.done, row.shed, row.missed, row.hedged, row.rerouted,
          row.breaker_trips, static_cast<double>(row.shed) / offered_d,
          static_cast<double>(row.missed) / offered_d, row.p50, row.p95,
          row.p99, i + 1 == out.size() ? "" : ",");
    }
  };
  std::fprintf(json, "  \"rows\": [\n");
  write_rows("load_per_lane", rows);
  std::fprintf(json, "  ],\n  \"fault_routing\": [\n");
  write_rows("load_per_lane", fault_rows);
  std::fprintf(json, "  ],\n  \"streaming\": [\n");
  write_rows("offered_load_x", stream_rows);
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return deadline_bounded && distances_ok && breakers_observable &&
                 stream_deterministic && policy_wins && cache_ok && storm_ok
             ? 0
             : 1;
}
