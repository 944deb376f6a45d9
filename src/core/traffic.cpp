#include "core/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "common/cli.hpp"
#include "common/rng.hpp"

namespace rdbs::core {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Exponential draw with the given mean; uniform_real() is in [0, 1), so
// the log argument stays strictly positive.
double exponential_ms(Xoshiro256& rng, double mean) {
  return -std::log(1.0 - rng.uniform_real()) * mean;
}

}  // namespace

const char* traffic_class_name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kInteractive: return "interactive";
    case TrafficClass::kBatch: return "batch";
    case TrafficClass::kBestEffort: return "best-effort";
  }
  return "?";
}

const char* arrival_process_name(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBursty: return "bursty";
    case ArrivalProcess::kDiurnal: return "diurnal";
  }
  return "?";
}

std::vector<TrafficQuery> generate_traffic(const TrafficSpec& spec,
                                           VertexId num_vertices) {
  if (num_vertices == 0) {
    throw std::invalid_argument("traffic: graph has no vertices");
  }
  if (!(spec.rate_qpms > 0)) {
    throw std::invalid_argument("traffic: rate must be positive");
  }
  if (spec.process == ArrivalProcess::kBursty &&
      (!(spec.burst_factor > 0) || spec.idle_factor < 0 ||
       !(spec.burst_on_ms > 0) || !(spec.burst_off_ms > 0))) {
    throw std::invalid_argument("traffic: bursty phases need positive "
                                "durations and a positive burst factor");
  }
  if (spec.process == ArrivalProcess::kDiurnal &&
      (spec.diurnal_amplitude < 0 || spec.diurnal_amplitude >= 1 ||
       !(spec.diurnal_period_ms > 0))) {
    throw std::invalid_argument(
        "traffic: diurnal amplitude must be in [0,1) with a positive period");
  }
  double mix_total = 0;
  for (const double m : spec.class_mix) {
    if (m < 0) throw std::invalid_argument("traffic: negative class mix");
    mix_total += m;
  }
  if (!(mix_total > 0)) {
    throw std::invalid_argument("traffic: class mix sums to zero");
  }

  // Independent deterministic sub-streams: perturbing one axis (say, the
  // class mix) never shifts another axis's draws, so schedules stay
  // comparable across spec tweaks.
  SplitMix64 seeder(spec.seed);
  Xoshiro256 arrival_rng(seeder.next());
  Xoshiro256 source_rng(seeder.next());
  Xoshiro256 class_rng(seeder.next());

  // --- Zipf source table: U distinct hot vertices, rank 0 hottest ---------
  const auto universe = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::max<std::uint32_t>(1, spec.source_universe), num_vertices));
  std::vector<VertexId> hot;
  {
    // Seeded partial Fisher-Yates: the first `universe` slots of a virtual
    // shuffle of [0, V).
    std::vector<VertexId> ids(num_vertices);
    std::iota(ids.begin(), ids.end(), VertexId{0});
    hot.reserve(universe);
    for (std::size_t i = 0; i < universe; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(source_rng.next_below(
                  static_cast<std::uint64_t>(num_vertices - i)));
      std::swap(ids[i], ids[j]);
      hot.push_back(ids[i]);
    }
  }
  std::vector<double> zipf_cdf(universe);
  {
    double total = 0;
    for (std::size_t r = 0; r < universe; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
      zipf_cdf[r] = total;
    }
    for (double& c : zipf_cdf) c /= total;
  }

  std::array<double, kNumTrafficClasses> class_cdf{};
  {
    double acc = 0;
    for (int c = 0; c < kNumTrafficClasses; ++c) {
      acc += spec.class_mix[static_cast<std::size_t>(c)] / mix_total;
      class_cdf[static_cast<std::size_t>(c)] = acc;
    }
    class_cdf[kNumTrafficClasses - 1] = 1.0;
  }

  // --- arrival process -----------------------------------------------------
  std::vector<TrafficQuery> schedule;
  schedule.reserve(spec.num_queries);
  double t = 0;

  const auto emit = [&](double arrival_ms) {
    TrafficQuery q;
    q.arrival_ms = arrival_ms;
    const double cu = class_rng.uniform_real();
    int cls = 0;
    while (cls + 1 < kNumTrafficClasses &&
           cu >= class_cdf[static_cast<std::size_t>(cls)]) {
      ++cls;
    }
    q.cls = static_cast<TrafficClass>(cls);
    const double deadline =
        spec.class_deadline_ms[static_cast<std::size_t>(cls)];
    q.deadline_ms = (std::isfinite(deadline) && deadline > 0)
                        ? deadline
                        : std::numeric_limits<double>::infinity();
    const double su = source_rng.uniform_real();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end() - 1, su) -
        zipf_cdf.begin());
    q.source = hot[rank];
    schedule.push_back(q);
  };

  switch (spec.process) {
    case ArrivalProcess::kPoisson: {
      const double mean = 1.0 / spec.rate_qpms;
      while (schedule.size() < spec.num_queries) {
        t += exponential_ms(arrival_rng, mean);
        emit(t);
      }
      break;
    }
    case ArrivalProcess::kBursty: {
      // Two-state modulated Poisson. Phase switches are memoryless, so an
      // inter-arrival draw that overshoots the phase boundary is discarded
      // and redrawn at the new phase's rate — exact, not approximate.
      bool on = true;  // start in a burst so tiny schedules are non-empty
      double phase_left = exponential_ms(arrival_rng, spec.burst_on_ms);
      while (schedule.size() < spec.num_queries) {
        const double rate = spec.rate_qpms *
                            (on ? spec.burst_factor : spec.idle_factor);
        if (rate <= 0) {  // silent phase: jump to its end
          t += phase_left;
          on = !on;
          phase_left = exponential_ms(
              arrival_rng, on ? spec.burst_on_ms : spec.burst_off_ms);
          continue;
        }
        const double dt = exponential_ms(arrival_rng, 1.0 / rate);
        if (dt >= phase_left) {
          t += phase_left;
          on = !on;
          phase_left = exponential_ms(
              arrival_rng, on ? spec.burst_on_ms : spec.burst_off_ms);
          continue;
        }
        t += dt;
        phase_left -= dt;
        emit(t);
      }
      break;
    }
    case ArrivalProcess::kDiurnal: {
      // Lewis–Shedler thinning against the peak rate.
      const double rate_max = spec.rate_qpms * (1.0 + spec.diurnal_amplitude);
      const double mean_max = 1.0 / rate_max;
      while (schedule.size() < spec.num_queries) {
        t += exponential_ms(arrival_rng, mean_max);
        const double rate_t =
            spec.rate_qpms *
            (1.0 + spec.diurnal_amplitude *
                       std::sin(2.0 * kPi * t / spec.diurnal_period_ms));
        if (arrival_rng.uniform_real() * rate_max < rate_t) emit(t);
      }
      break;
    }
  }
  return schedule;
}

// --- spec grammar ----------------------------------------------------------

namespace {

constexpr std::string_view kTrafficWhat = "traffic spec";

// "a/b/c" -> 3 per-class values; '-' means "none" (mapped via `none`).
std::array<double, kNumTrafficClasses> parse_triple(std::string_view key,
                                                    std::string_view value,
                                                    double none) {
  std::array<double, kNumTrafficClasses> out{};
  for (std::size_t c = 0; c < out.size(); ++c) {
    const std::size_t slash = value.find('/');
    if ((c + 1 == out.size()) != (slash == std::string_view::npos)) {
      throw std::invalid_argument("traffic spec: '" + std::string(key) +
                                  "' needs exactly 3 '/'-separated values");
    }
    const std::string_view part = value.substr(0, slash);
    out[c] = part == "-" ? none : spec_double(kTrafficWhat, key, part);
    if (slash != std::string_view::npos) value.remove_prefix(slash + 1);
  }
  return out;
}

}  // namespace

TrafficSpec parse_traffic_spec(const std::string& text) {
  TrafficSpec spec;
  const std::size_t colon = text.find(':');
  const std::string process = text.substr(0, colon);
  if (process == "poisson") {
    spec.process = ArrivalProcess::kPoisson;
  } else if (process == "bursty") {
    spec.process = ArrivalProcess::kBursty;
  } else if (process == "diurnal") {
    spec.process = ArrivalProcess::kDiurnal;
  } else {
    throw std::invalid_argument(
        "traffic spec: process must be poisson, bursty or diurnal, not '" +
        process + "'");
  }
  if (colon == std::string::npos) return spec;

  for (const auto& [key, value] :
       split_spec(std::string_view(text).substr(colon + 1), kTrafficWhat)) {
    const auto real = [&] { return spec_double(kTrafficWhat, key, value); };
    if (key == "n") {
      spec.num_queries = spec_unsigned(kTrafficWhat, key, value,
                                       std::numeric_limits<std::size_t>::max());
    } else if (key == "rate") {
      spec.rate_qpms = real();
    } else if (key == "seed") {
      spec.seed = spec_unsigned(kTrafficWhat, key, value,
                                std::numeric_limits<std::uint64_t>::max());
    } else if (key == "zipf") {
      spec.zipf_s = real();
    } else if (key == "universe") {
      spec.source_universe = static_cast<std::uint32_t>(
          spec_unsigned(kTrafficWhat, key, value,
                        std::numeric_limits<std::uint32_t>::max()));
    } else if (key == "mix") {
      spec.class_mix = parse_triple(key, value, 0.0);
    } else if (key == "deadlines") {
      spec.class_deadline_ms = parse_triple(
          key, value, std::numeric_limits<double>::infinity());
    } else if (key == "burst") {
      spec.burst_factor = real();
    } else if (key == "idle") {
      spec.idle_factor = real();
    } else if (key == "on-ms") {
      spec.burst_on_ms = real();
    } else if (key == "off-ms") {
      spec.burst_off_ms = real();
    } else if (key == "period") {
      spec.diurnal_period_ms = real();
    } else if (key == "amplitude") {
      spec.diurnal_amplitude = real();
    } else {
      throw std::invalid_argument("traffic spec: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  return spec;
}

double closed_loop_backoff_ms(const ClosedLoopSpec& spec,
                              std::uint64_t query_index, int attempt) {
  if (attempt < 1) {
    throw std::invalid_argument("closed loop: attempt is 1-based");
  }
  if (!(spec.backoff_base_ms >= 0) || !(spec.backoff_multiplier >= 0) ||
      !std::isfinite(spec.backoff_base_ms) ||
      !std::isfinite(spec.backoff_multiplier)) {
    throw std::invalid_argument(
        "closed loop: backoff parameters must be finite and non-negative");
  }
  if (!(spec.jitter >= 0) || !(spec.jitter <= 1)) {
    throw std::invalid_argument("closed loop: jitter must be in [0, 1]");
  }
  const double base =
      spec.backoff_base_ms *
      std::pow(spec.backoff_multiplier, static_cast<double>(attempt - 1));
  // Counter-keyed jitter, the gfi fault-plan scheme (gpusim/fault.hpp): a
  // pure hash of (seed, query, attempt) through SplitMix64, so the draw
  // depends on nothing but its keys — no ambient entropy, no draw-order
  // coupling between queries.
  SplitMix64 mix(spec.seed ^ mix64(query_index * 0x9e3779b97f4a7c15ULL) ^
                 mix64(static_cast<std::uint64_t>(attempt)));
  const double u =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // [0, 1)
  return base * (1.0 + spec.jitter * (2.0 * u - 1.0));
}

ClosedLoopSpec parse_closed_loop_spec(const std::string& text) {
  constexpr std::string_view kWhat = "closed-loop spec";
  ClosedLoopSpec spec;
  spec.enabled = true;
  for (const auto& [key, value] : split_spec(text, kWhat)) {
    const auto real = [&] { return spec_double(kWhat, key, value); };
    if (key == "budget") {
      spec.retry_budget = static_cast<int>(
          spec_unsigned(kWhat, key, value, std::numeric_limits<int>::max()));
    } else if (key == "backoff") {
      spec.backoff_base_ms = real();
    } else if (key == "mult") {
      spec.backoff_multiplier = real();
    } else if (key == "jitter") {
      spec.jitter = real();
    } else if (key == "seed") {
      spec.seed = spec_unsigned(kWhat, key, value,
                                std::numeric_limits<std::uint64_t>::max());
    } else if (key == "depth") {
      spec.backpressure_depth = spec_unsigned(
          kWhat, key, value, std::numeric_limits<std::size_t>::max());
    } else if (key == "penalty") {
      spec.backpressure_penalty_ms = real();
    } else {
      throw std::invalid_argument("closed-loop spec: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  if (spec.retry_budget < 0 || !(spec.backoff_base_ms >= 0) ||
      !(spec.backoff_multiplier >= 0) || !(spec.jitter >= 0) ||
      !(spec.jitter <= 1) || !(spec.backpressure_penalty_ms >= 0)) {
    throw std::invalid_argument("closed-loop spec: values out of range");
  }
  return spec;
}

SourceRepetitionStats source_repetition_stats(
    std::span<const TrafficQuery> schedule) {
  SourceRepetitionStats stats;
  stats.queries = schedule.size();
  // std::map, not unordered: the hottest-source tie-break below walks the
  // counts in ascending vertex order, so the result is deterministic.
  std::map<VertexId, std::size_t> counts;
  std::size_t repeats = 0;
  for (const TrafficQuery& query : schedule) {
    const std::size_t seen = counts[query.source]++;
    if (seen > 0) ++repeats;
  }
  stats.distinct_sources = counts.size();
  for (const auto& [source, count] : counts) {
    if (count > stats.hottest_count) {
      stats.hottest_count = count;
      stats.hottest_source = source;
    }
  }
  stats.repeat_fraction =
      schedule.empty() ? 0.0
                       : static_cast<double>(repeats) /
                             static_cast<double>(schedule.size());
  return stats;
}

std::vector<TrafficQuery> batch_schedule(std::span<const VertexId> sources,
                                         double deadline_ms) {
  std::vector<TrafficQuery> schedule(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    schedule[i].source = sources[i];
    schedule[i].deadline_ms = deadline_ms;
  }
  return schedule;
}

}  // namespace rdbs::core
