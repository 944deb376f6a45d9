// sssp_tool — command-line front end for the whole library.
//
// Load a graph (file or generator), run any of the implemented algorithms,
// and print distances, routes or an nvprof-style profile. Exit codes: 1 an
// invalid served answer, 2 an unknown flag, a malformed or out-of-range
// flag value or spec, an unknown dataset or device, or an input file that
// cannot be read, 3 gsan hazards; --help lists the flags. Examples:
//
//   # shortest path on a DIMACS road file, with the route printed
//   ./sssp_tool --input=ny.gr --format=dimacs --source=0 --target=1234
//
//   # RDBS on a generated Kronecker graph, with an nvprof-style profile
//   ./sssp_tool --dataset=k-n16-16 --algorithm=rdbs --profile
//
//   # compare algorithms on a surrogate dataset
//   ./sssp_tool --dataset=soc-PK --algorithm=all --sources=4
//
//   # batched multi-source run: 8 queries served as a t=0 schedule over 4
//   # concurrent gpusim streams; exits 1 if any served answer fails
//   # validation
//   ./sssp_tool --dataset=k-n16-16 --batch --sources=8 --batch-streams=4
//
//   # overload-safe serving (docs/serving.md): the same batch with a
//   # per-query deadline and circuit breakers, under injected faults
//   ./sssp_tool --dataset=k-n16-16 --batch --sources=16 --deadline-ms=5
//       --breaker=on --inject-faults=seed=7,launch=0.2
//
//   # streaming serve (docs/serving.md "Streaming"): a timed 2k-query
//   # Poisson schedule with priority-class deadlines, dispatched
//   # continuously on the simulated clock
//   ./sssp_tool --dataset=k-n16-16 --batch
//       --serve-stream=poisson:n=2000,rate=2,deadlines=1/4/-,seed=7
//
//   # result cache (docs/serving.md "Result cache"): exact-hit reuse,
//   # single-flight sharing and landmark warm starts on a Zipf workload
//   ./sssp_tool --dataset=k-n16-16 --batch --cache --landmarks=4
//       --serve-stream=poisson:n=2000,rate=2,zipf=1.3,universe=64
//
//   # checkpoint-resume under a fault storm (docs/serving.md
//   # "Checkpoint-resume & lane migration"): engines snapshot every 4
//   # boundaries, failed queries migrate to a surviving lane and resume,
//   # and shed/deadline-missed queries re-arrive closed-loop with backoff
//   ./sssp_tool --dataset=k-n16-16 --batch --checkpoint-interval=4
//       --serve-stream=poisson:n=500,rate=2,deadlines=2/8/-
//       --closed-loop=budget=2,backoff=0.5
//       --inject-faults=seed=7,launch=0.3
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "core/query_batch.hpp"
#include "core/query_server.hpp"
#include "core/traffic.hpp"
#include "gpusim/profiler.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/paths.hpp"
#include "sssp/pq_delta_star.hpp"
#include "sssp/validate.hpp"

using namespace rdbs;

namespace {

graph::Csr load_input(const CliArgs& args, const bench::HarnessConfig& config) {
  const std::string input = args.get_string("input", "");
  if (!input.empty()) {
    const std::string format = args.get_string("format", "edgelist");
    graph::EdgeList edges;
    if (format == "dimacs") {
      edges = graph::read_dimacs(input);
    } else if (format == "mtx") {
      edges = graph::read_matrix_market(input);
    } else {
      edges = graph::read_edge_list(input);
    }
    if (args.get_bool("assign-weights", false)) {
      graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000,
                            config.seed);
    }
    graph::BuildOptions build;
    build.symmetrize = !args.get_bool("directed", false);
    return graph::build_csr(edges, build);
  }
  return bench::load_bench_graph(args.get_string("dataset", "soc-PK"),
                                 config);
}

// Flag checks CliArgs cannot make. Like a malformed number they throw
// std::invalid_argument, which main() reports with exit code 2.
void require(bool ok, const std::string& message) {
  if (!ok) throw std::invalid_argument(message);
}

graph::VertexId get_vertex(const CliArgs& args, const std::string& name,
                           std::int64_t fallback, const graph::Csr& csr) {
  const std::int64_t v = args.get_int(name, fallback);
  require(v >= 0 && v < static_cast<std::int64_t>(csr.num_vertices()),
          "--" + name + "=" + std::to_string(v) + " is not a vertex of the " +
              std::to_string(csr.num_vertices()) + "-vertex graph");
  return static_cast<graph::VertexId>(v);
}

// A size flag: a negative value is rejected instead of wrapping to SIZE_MAX.
std::size_t get_size(const CliArgs& args, const std::string& name,
                     std::size_t fallback) {
  const std::int64_t v =
      args.get_int(name, static_cast<std::int64_t>(fallback));
  require(v >= 0, "--" + name + " must be >= 0, not " + std::to_string(v));
  return static_cast<std::size_t>(v);
}

struct RunOutcome {
  double ms = 0;
  sssp::SsspResult sssp;
  gpusim::Counters counters;
  bool simulated = true;
  std::string sanitizer_report;  // gsan hazards (empty = clean or off)
  core::RecoveryStats recovery;  // gfi fault/recovery tallies
  bool ok = true;                // false only with cpu_fallback disabled
};

// The --algorithm=all list: the host CPU references, then every registered
// GPU engine with rdbs last, since --target and --profile describe the last
// run. Any single name from it is a valid --algorithm too.
std::vector<std::string> all_algorithms() {
  std::vector<std::string> names = {"dijkstra", "bellman-ford", "pq-delta"};
  for (const core::GpuEngineEntry& engine : core::gpu_engines()) {
    if (std::string_view(engine.name) != "rdbs") {
      names.emplace_back(engine.name);
    }
  }
  names.emplace_back("rdbs");
  return names;
}

RunOutcome run_algorithm(const std::string& algorithm, const graph::Csr& csr,
                         const gpusim::DeviceSpec& device,
                         graph::Weight delta0, graph::VertexId source,
                         const core::EngineOptions& engine_options) {
  RunOutcome outcome;
  if (const core::GpuEngineEntry* engine = core::gpu_engine(algorithm)) {
    core::GpuRunResult result =
        engine->make(device, csr, engine_options, delta0)->run(source);
    outcome.ms = result.device_ms;
    outcome.sssp = std::move(result.sssp);
    outcome.counters = result.counters;
    outcome.sanitizer_report = std::move(result.sanitizer_report);
    outcome.recovery = result.recovery;
    outcome.ok = result.ok;
    return outcome;
  }
  outcome.simulated = false;
  Timer timer;
  if (algorithm == "dijkstra") {
    outcome.sssp = sssp::dijkstra(csr, source);
  } else if (algorithm == "bellman-ford") {
    outcome.sssp = sssp::bellman_ford(csr, source);
  } else {  // pq-delta; run_tool rejects any other name up front
    sssp::PqDeltaStarOptions options;
    options.delta_star = delta0;
    outcome.sssp = sssp::pq_delta_star(csr, source, options);
  }
  outcome.ms = timer.milliseconds();
  return outcome;
}

// Shared --sanitize epilogue for the batch and serving modes: dump the gsan
// report plus a per-lane hazard tally (gsan v2 records carry the stream pair
// involved, so an operator can see WHICH lane misbehaved) and return the
// process exit code — 3 on hazards, 0 when clean or with the sanitizer off.
int report_sanitizer(core::QueryBatch& batch) {
  const gpusim::Sanitizer* san = batch.sim().sanitizer();
  if (san == nullptr) return 0;
  if (san->hazards().empty()) {
    std::printf("sanitize: clean (0 hazards) across %d lane(s)\n",
                batch.num_lanes());
    return 0;
  }
  std::fputs(san->report().c_str(), stderr);
  std::map<int, std::uint64_t> per_lane;
  for (const gpusim::HazardRecord& hazard : san->hazards()) {
    // Attribute the record to the lane that tripped it (the second stream
    // of a cross-stream pair); per-launch kinds predate lane tracking.
    const int lane =
        hazard.second_stream != gpusim::HazardRecord::kNoStream
            ? hazard.second_stream
            : hazard.first_stream;
    per_lane[lane] += hazard.count;
  }
  for (const auto& [lane, hits] : per_lane) {
    if (lane == gpusim::HazardRecord::kNoStream) {
      std::fprintf(stderr, "sanitize[lane ?]: %llu hazard(s)\n",
                   static_cast<unsigned long long>(hits));
    } else {
      std::fprintf(stderr, "sanitize[lane %d]: %llu hazard(s)\n", lane,
                   static_cast<unsigned long long>(hits));
    }
  }
  std::fprintf(stderr, "sanitize: %zu hazard record(s) detected\n",
               san->hazards().size());
  return 3;
}

int run_tool(const CliArgs& args) {
  bench::check_flags(
      args, {"aging-ms", "algorithm", "assign-weights", "batch",
             "batch-streams", "breaker", "cache", "cache-capacity",
             "checkpoint-interval", "closed-loop", "cpu-fallback", "dataset",
             "deadline-ms", "delta", "directed", "format", "inject-faults",
             "input", "landmarks", "lane-policy", "max-pending", "migrate",
             "profile", "retry-attempts", "sanitize", "serve-stream",
             "source", "target"});
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);
  const std::string algorithm = args.get_string("algorithm", "rdbs");
  const std::vector<std::string> known = all_algorithms();
  if (algorithm != "all" &&
      std::find(known.begin(), known.end(), algorithm) == known.end()) {
    std::string valid;
    for (const std::string& name : known) valid += name + ", ";
    throw std::invalid_argument("unknown --algorithm=" + algorithm +
                                " (valid: " + valid + "all)");
  }

  const graph::Csr csr = load_input(args, config);
  const graph::DegreeStats stats = graph::compute_degree_stats(csr);
  std::printf("graph: %u vertices, %llu directed edges, avg degree %.2f, "
              "max degree %llu\n",
              csr.num_vertices(),
              static_cast<unsigned long long>(csr.num_edges()),
              stats.average_degree,
              static_cast<unsigned long long>(stats.max_degree));

  const graph::Weight delta0 =
      args.has("delta") ? args.get_double("delta", 100.0)
                        : bench::empirical_delta0(csr, config.seed);
  require(std::isfinite(delta0) && delta0 > 0,
          "--delta must be a finite number > 0");
  const graph::VertexId source = get_vertex(
      args, "source", bench::pick_sources(csr, 1, config.seed)[0], csr);
  const bool has_target = args.has("target");
  const graph::VertexId target =
      has_target ? get_vertex(args, "target", 0, csr) : 0;
  // Concurrent gpusim streams for --batch (QueryBatch lanes); 1 =
  // sequential. Distances are identical for every value.
  const int batch_streams = static_cast<int>(args.get_int("batch-streams", 4));
  require(batch_streams >= 1, "--batch-streams must be >= 1");
  // --sanitize: run every simulated engine under gsan (docs/sanitizer.md);
  // hazard reports go to stderr and the exit code becomes 3.
  const gpusim::SanitizeMode sanitize = args.get_bool("sanitize", false)
                                            ? gpusim::SanitizeMode::kOn
                                            : gpusim::SanitizeMode::kOff;
  // --inject-faults=<spec>: deterministic fault injection + recovery (gfi;
  // docs/fault_injection.md), e.g. --inject-faults=seed=7,launch=0.05,flip=1e-4
  gpusim::FaultConfig fault;
  if (args.has("inject-faults")) {
    try {
      fault = gpusim::parse_fault_spec(args.get_string("inject-faults", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --inject-faults spec: %s\n", e.what());
      return 2;
    }
  }

  if (args.get_bool("batch", false)) {
    // Batched multi-source mode: --sources queries over --batch-streams
    // concurrent streams on one resident graph (rdbs or adds engines).
    require(config.num_sources >= 1, "--sources must be >= 1");
    const std::vector<graph::VertexId> sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    core::QueryBatchOptions bopts;
    bopts.streams = batch_streams;
    bopts.gpu.sanitize = sanitize;
    bopts.gpu.fault = fault;
    // --checkpoint-interval=N: engines snapshot their distance vector every
    // N bucket/round boundaries and copy it back to the host off the
    // query's critical path, enabling resume-from-checkpoint retries and
    // mid-query lane migration (docs/serving.md "Checkpoint-resume & lane
    // migration"). 0 = off.
    bopts.gpu.checkpoint_interval =
        static_cast<int>(args.get_int("checkpoint-interval", 0));
    // --retry-attempts / --cpu-fallback tune the per-query RetryPolicy.
    // With --cpu-fallback=off an exhausted query surfaces as kFailed — the
    // state a serving-layer migration picks up.
    if (args.has("retry-attempts")) {
      bopts.gpu.retry.max_attempts =
          static_cast<int>(args.get_int("retry-attempts", 3));
    }
    const std::string fallback = args.get_string("cpu-fallback", "on");
    if (fallback == "off") {
      bopts.gpu.retry.cpu_fallback = false;
    } else if (fallback != "on") {
      std::fprintf(stderr, "--cpu-fallback must be on or off, not %s\n",
                   fallback.c_str());
      return 2;
    }
    bopts.gpu.delta0 = delta0;
    if (algorithm == "adds") {
      bopts.engine = core::BatchEngine::kAdds;
    } else if (algorithm != "rdbs") {
      std::fprintf(stderr,
                   "--batch supports --algorithm=rdbs or adds, not %s\n",
                   algorithm.c_str());
      return 2;
    }
    // The batch is served by core::QueryServer (docs/serving.md) as a t=0
    // schedule — every source arrives at once with the --deadline-ms
    // budget. --serve-stream=SPEC serves a generated traffic schedule
    // (core/traffic.hpp grammar) instead. Both share one dispatcher
    // (run_stream) and one report.
    const bool stream_mode = args.has("serve-stream");
    core::QueryServerOptions sopts;
    sopts.batch = bopts;
    const std::string breaker = args.get_string("breaker", "on");
    if (breaker == "off") {
      sopts.breaker.enabled = false;
    } else if (breaker != "on") {
      std::fprintf(stderr, "--breaker must be on or off, not %s\n",
                   breaker.c_str());
      return 2;
    }
    const std::string migrate = args.get_string("migrate", "on");
    if (migrate == "off") {
      sopts.migrate = false;
    } else if (migrate != "on") {
      std::fprintf(stderr, "--migrate must be on or off, not %s\n",
                   migrate.c_str());
      return 2;
    }
    // --cache turns on the result cache (docs/serving.md "Result
    // cache"); --cache-capacity and --landmarks tune it and imply it.
    if (args.get_bool("cache", false) || args.has("cache-capacity") ||
        args.has("landmarks")) {
      sopts.cache.enabled = true;
      sopts.cache.capacity = get_size(args, "cache-capacity", 64);
      sopts.cache.landmarks = get_size(args, "landmarks", 4);
    }
    std::vector<core::TrafficQuery> schedule;
    std::string arrivals = "t=0";
    if (stream_mode) {
      try {
        const core::TrafficSpec tspec = core::parse_traffic_spec(
            args.get_string("serve-stream", ""));
        schedule = core::generate_traffic(tspec, csr.num_vertices());
        arrivals = core::arrival_process_name(tspec.process);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad --serve-stream spec: %s\n", e.what());
        return 2;
      }
    } else {
      schedule = core::batch_schedule(
          sources, args.get_double("deadline-ms",
                                   std::numeric_limits<double>::infinity()));
    }
    // A t=0 batch admits every source unless --max-pending bounds it.
    sopts.max_pending = get_size(
        args, "max-pending", stream_mode ? sopts.max_pending : sources.size());
    if (args.has("aging-ms")) {
      sopts.aging_ms = args.get_double("aging-ms", 0.0);
    }
    const std::string policy = args.get_string("lane-policy", "fastest");
    if (policy == "earliest") {
      sopts.lane_policy = core::LanePolicy::kEarliestFree;
    } else if (policy != "fastest") {
      std::fprintf(stderr,
                   "--lane-policy must be fastest or earliest, not %s\n",
                   policy.c_str());
      return 2;
    }
    // --closed-loop=SPEC: shed/deadline-missed queries re-arrive with
    // deterministic jittered backoff (core/traffic.hpp grammar), e.g.
    // --closed-loop=budget=3,backoff=0.25,jitter=0.5,depth=12
    if (args.has("closed-loop")) {
      try {
        sopts.closed_loop = core::parse_closed_loop_spec(
            args.get_string("closed-loop", ""));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad --closed-loop spec: %s\n", e.what());
        return 2;
      }
    }
    core::QueryServer server(csr, device, sopts);
    const core::StreamResult result = server.run_stream(schedule);

    // Every answer is certified against the graph, whatever path served
    // it (device, host hedge, cache hit or single-flight join).
    std::size_t invalid = 0;
    std::array<std::vector<double>, core::kNumTrafficClasses> sojourns;
    std::uint64_t promotions = 0;
    double back_to_back_ms = 0;  // the device queries run one by one
    double queue_wait_ms = 0;
    std::uint64_t instructions = 0;
    for (std::size_t i = 0; i < result.stats.size(); ++i) {
      const core::StreamQueryStats& sq = result.stats[i];
      promotions += static_cast<std::uint64_t>(sq.promotions);
      back_to_back_ms += sq.query.device_ms;
      queue_wait_ms += sq.query.queue_wait_ms;
      instructions += result.queries[i].counters.warp_instructions();
      const std::vector<graph::Distance>& got =
          result.queries[i].sssp.distances;
      if (!got.empty()) {
        if (const auto verdict =
                sssp::validate_distances(csr, sq.query.source, got)) {
          std::fprintf(stderr, "invalid answer: query %zu (source %u): %s\n",
                       i, sq.query.source, verdict->c_str());
          ++invalid;
        }
      }
      if (core::query_completed(sq.query.status)) {
        sojourns[static_cast<std::size_t>(sq.cls)].push_back(sq.sojourn_ms);
      }
    }
    const auto percentile = [](std::vector<double>& values, double q) {
      if (values.empty()) return std::string("-");
      std::sort(values.begin(), values.end());
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(values.size() - 1));
      return format_fixed(values[rank], 3);
    };
    TextTable table({"class", "offered", "completed", "shed", "missed",
                     "failed", "p50 ms", "p99 ms"});
    for (int c = 0; c < core::kNumTrafficClasses; ++c) {
      const core::ClassTally& tally =
          result.classes[static_cast<std::size_t>(c)];
      std::vector<double>& soj = sojourns[static_cast<std::size_t>(c)];
      table.add_row(
          {core::traffic_class_name(static_cast<core::TrafficClass>(c)),
           format_count(tally.offered), format_count(tally.completed),
           format_count(tally.shed), format_count(tally.missed),
           format_count(tally.failed), percentile(soj, 0.5),
           percentile(soj, 0.99)});
    }
    std::fputs(table.render().c_str(), stdout);
    const std::uint64_t done = result.ok_queries + result.recovered_queries +
                               result.fallback_queries +
                               result.cached_queries;
    std::printf(
        "\nserved %zu quer%s (%s arrivals) over %d lane(s) "
        "(%s-lane placement, breakers %s): "
        "%llu completed / %llu shed / %llu deadline / %llu failed; "
        "%llu hedged, %llu rerouted, %llu promotion(s), "
        "%llu overrun kernel(s); makespan %.3f ms (device %.3f ms); "
        "%zu invalid answer(s)\n",
        schedule.size(), schedule.size() == 1 ? "y" : "ies",
        arrivals.c_str(), server.batch().num_lanes(), policy.c_str(),
        sopts.breaker.enabled ? "on" : "off",
        static_cast<unsigned long long>(done),
        static_cast<unsigned long long>(result.shed_queries),
        static_cast<unsigned long long>(result.deadline_queries),
        static_cast<unsigned long long>(result.failed_queries),
        static_cast<unsigned long long>(result.hedged_queries),
        static_cast<unsigned long long>(result.rerouted_queries),
        static_cast<unsigned long long>(promotions),
        static_cast<unsigned long long>(result.overrun_kernels),
        result.makespan_ms, result.device_makespan_ms, invalid);
    const double makespan_ms = result.device_makespan_ms;
    std::printf(
        "device: back-to-back %.3f ms (overlap speedup %.2fx), "
        "queue-wait %.3f ms, aggregate %.1f MWIPS\n",
        back_to_back_ms,
        makespan_ms <= 0 ? 0.0 : back_to_back_ms / makespan_ms, queue_wait_ms,
        makespan_ms <= 0 ? 0.0
                         : static_cast<double>(instructions) /
                               (makespan_ms * 1e3));
    if (sopts.cache.enabled) {
      const core::SourceRepetitionStats reps =
          core::source_repetition_stats(schedule);
      const core::ResultCacheStats& cs = server.result_cache()->stats();
      std::printf(
          "cache: %llu exact hit(s), %llu single-flight join(s), "
          "%llu warm start(s); %llu publish(es), %llu eviction(s), "
          "%llu rejection(s); schedule repeats %.1f%% over %zu distinct "
          "source(s)\n",
          static_cast<unsigned long long>(result.cached_queries),
          static_cast<unsigned long long>(result.joined_queries),
          static_cast<unsigned long long>(result.warm_started_queries),
          static_cast<unsigned long long>(cs.publishes),
          static_cast<unsigned long long>(cs.evictions),
          static_cast<unsigned long long>(cs.rejected),
          100.0 * reps.repeat_fraction, reps.distinct_sources);
    }
    if (fault.enabled) {
      std::printf(
          "recovery: %llu attempt(s), %llu fault(s) injected "
          "(%llu ECC-corrected), %llu retried, %.3f ms backoff; "
          "%llu recovered, %llu CPU-fallback%s\n",
          static_cast<unsigned long long>(result.recovery.attempts),
          static_cast<unsigned long long>(result.recovery.faults_injected),
          static_cast<unsigned long long>(result.recovery.ecc_corrected),
          static_cast<unsigned long long>(result.recovery.retries),
          result.recovery.backoff_ms,
          static_cast<unsigned long long>(result.recovered_queries),
          static_cast<unsigned long long>(result.fallback_queries),
          result.recovery.device_lost ? ", DEVICE LOST" : "");
    }
    if (result.resumed_queries > 0 || result.migrated_queries > 0 ||
        bopts.gpu.checkpoint_interval > 0 || sopts.closed_loop.enabled) {
      // Checkpoint copies overlap the run: "landed" ones became the
      // checkpoint in time; "voided" ones were dropped uncommitted (still
      // in flight when needed, or caught by a device loss).
      std::printf(
          "resume: %llu checkpoint-resumed, %llu migrated, %llu "
          "checkpoint(s) landed, %llu voided; "
          "closed loop: %llu retried arrival(s), %llu past budget\n",
          static_cast<unsigned long long>(result.resumed_queries),
          static_cast<unsigned long long>(result.migrated_queries),
          static_cast<unsigned long long>(result.recovery.checkpoints_landed),
          static_cast<unsigned long long>(result.recovery.checkpoints_voided),
          static_cast<unsigned long long>(result.retried_arrivals),
          static_cast<unsigned long long>(result.retry_exhausted));
    }
    for (const core::BreakerEvent& event : result.breaker_events) {
      std::printf("breaker: lane %d -> %s at %.3f ms\n", event.lane,
                  core::breaker_transition_name(event.transition),
                  event.time_ms);
    }
    const int sanitizer_code = report_sanitizer(server.batch());
    return invalid > 0 ? 1 : sanitizer_code;
  }

  const std::vector<std::string> algorithms =
      algorithm == "all" ? known : std::vector<std::string>{algorithm};
  core::EngineOptions engine_options;
  engine_options.sanitize = sanitize;
  engine_options.fault = fault;

  TextTable table({"algorithm", "time ms", "kind", "reached", "updates",
                   "redundancy", "valid"});
  RunOutcome last;
  std::string hazards;
  for (const std::string& name : algorithms) {
    RunOutcome outcome =
        run_algorithm(name, csr, device, delta0, source, engine_options);
    if (!outcome.sanitizer_report.empty()) {
      hazards += "--- " + name + " ---\n" + outcome.sanitizer_report;
    }
    if (fault.enabled && outcome.simulated) {
      std::printf(
          "faults[%s]: %llu injected (%llu ECC-corrected), %llu "
          "retr%s, %llu CPU fallback(s)%s%s\n",
          name.c_str(),
          static_cast<unsigned long long>(outcome.recovery.faults_injected),
          static_cast<unsigned long long>(outcome.recovery.ecc_corrected),
          static_cast<unsigned long long>(outcome.recovery.retries),
          outcome.recovery.retries == 1 ? "y" : "ies",
          static_cast<unsigned long long>(outcome.recovery.cpu_fallbacks),
          outcome.recovery.device_lost ? ", DEVICE LOST" : "",
          outcome.ok ? "" : ", FAILED (no distances)");
    }
    const auto verdict =
        sssp::validate_distances(csr, source, outcome.sssp.distances);
    table.add_row({name, format_fixed(outcome.ms, 3),
                   outcome.simulated ? "simulated GPU" : "host CPU",
                   format_count(outcome.sssp.reached_count()),
                   format_count(outcome.sssp.work.total_updates),
                   format_fixed(outcome.sssp.work.redundancy_ratio(), 2),
                   verdict ? "NO: " + *verdict : std::string("yes")});
    last = std::move(outcome);
  }
  std::fputs(table.render().c_str(), stdout);

  if (has_target) {
    const auto parents =
        sssp::build_parent_tree(csr, source, last.sssp.distances);
    const auto path = sssp::extract_path(parents, source, target);
    if (!path) {
      std::printf("\nno path from %u to %u\n", source, target);
    } else {
      std::printf("\nshortest path %u -> %u (cost %g, %zu hops):\n  ",
                  source, target, last.sssp.distances[target],
                  path->size() - 1);
      for (std::size_t i = 0; i < path->size(); ++i) {
        std::printf("%s%u", i ? " -> " : "", (*path)[i]);
        if (i % 10 == 9) std::printf("\n  ");
      }
      std::printf("\n");
    }
  }

  if (args.get_bool("profile", false) && last.simulated) {
    std::printf("\n%s", gpusim::profiler_report(last.counters, device).c_str());
  }
  if (sanitize == gpusim::SanitizeMode::kOn) {
    if (!hazards.empty()) {
      std::fputs(hazards.c_str(), stderr);
      std::fputs("sanitize: hazards detected\n", stderr);
      return 3;
    }
    std::printf("sanitize: clean (0 hazards)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(CliArgs(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sssp_tool: %s\n", e.what());
    return 2;
  } catch (const std::runtime_error& e) {
    // An --input file that cannot be read.
    std::fprintf(stderr, "sssp_tool: %s\n", e.what());
    return 2;
  }
}
