// Traffic generation (core/traffic.hpp) — property tests.
//
// Everything here is statistical-but-deterministic: the generator is seeded
// arithmetic, so once a tolerance holds for a seed it holds forever. The
// load-bearing properties: (1) schedules are byte-identical across
// regeneration and across simulator configurations (nothing in the
// simulator touches the generator); (2) the arrival processes have the advertised
// first-order shape (Poisson mean rate, bursty clumping, diurnal swing);
// (3) sources are Zipf-skewed with rank-0 hottest; (4) class mix and
// per-class deadlines land as specified; (5) the spec grammar round-trips
// and rejects garbage pointedly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/traffic.hpp"

namespace rdbs {
namespace {

using core::ArrivalProcess;
using core::TrafficClass;
using core::TrafficQuery;
using core::TrafficSpec;
using graph::VertexId;

constexpr VertexId kVertices = 4096;

std::vector<double> inter_arrivals(const std::vector<TrafficQuery>& schedule) {
  std::vector<double> gaps;
  gaps.reserve(schedule.size());
  double prev = 0;
  for (const TrafficQuery& q : schedule) {
    gaps.push_back(q.arrival_ms - prev);
    prev = q.arrival_ms;
  }
  return gaps;
}

double mean(const std::vector<double>& xs) {
  double total = 0;
  for (const double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double coefficient_of_variation(const std::vector<double>& xs) {
  const double m = mean(xs);
  double var = 0;
  for (const double x : xs) var += (x - m) * (x - m);
  var /= static_cast<double>(xs.size());
  return std::sqrt(var) / m;
}

// Basic well-formedness every schedule must satisfy.
void check_schedule_shape(const TrafficSpec& spec,
                          const std::vector<TrafficQuery>& schedule) {
  ASSERT_EQ(schedule.size(), spec.num_queries);
  double prev = 0;
  for (const TrafficQuery& q : schedule) {
    EXPECT_GE(q.arrival_ms, prev);
    prev = q.arrival_ms;
    EXPECT_LT(q.source, kVertices);
    const auto cls = static_cast<int>(q.cls);
    ASSERT_GE(cls, 0);
    ASSERT_LT(cls, core::kNumTrafficClasses);
    const double want =
        spec.class_deadline_ms[static_cast<std::size_t>(cls)];
    if (std::isfinite(want) && want > 0) {
      EXPECT_EQ(q.deadline_ms, want);
    } else {
      EXPECT_TRUE(std::isinf(q.deadline_ms));
    }
  }
}

// --- determinism -----------------------------------------------------------

TEST(Traffic, RegenerationIsByteIdentical) {
  for (const ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kDiurnal}) {
    TrafficSpec spec;
    spec.process = process;
    spec.seed = 204;
    spec.num_queries = 2000;
    const std::vector<TrafficQuery> a = core::generate_traffic(spec, kVertices);
    const std::vector<TrafficQuery> b = core::generate_traffic(spec, kVertices);
    EXPECT_EQ(a, b) << core::arrival_process_name(process);
    check_schedule_shape(spec, a);
  }
}

TEST(Traffic, SeedChangesTheSchedule) {
  TrafficSpec spec;
  spec.num_queries = 500;
  TrafficSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(core::generate_traffic(spec, kVertices),
            core::generate_traffic(other, kVertices));
}

// The generator is pure host arithmetic: nothing about the simulator can
// reach it. The streaming layer's bit-identity across reruns is tested end
// to end in test_query_server.cpp; here we pin the prerequisite — the same
// spec yields the same bytes no matter how often or where it runs.
TEST(Traffic, ScheduleIsIndependentOfAnySimulatorConfiguration) {
  TrafficSpec spec;
  spec.num_queries = 1000;
  spec.seed = 7;
  const std::vector<TrafficQuery> golden =
      core::generate_traffic(spec, kVertices);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(core::generate_traffic(spec, kVertices), golden);
  }
}

// --- arrival processes -----------------------------------------------------

TEST(Traffic, PoissonInterArrivalMeanMatchesRate) {
  TrafficSpec spec;
  spec.process = ArrivalProcess::kPoisson;
  spec.num_queries = 20000;
  spec.rate_qpms = 2.5;
  spec.seed = 11;
  const std::vector<double> gaps =
      inter_arrivals(core::generate_traffic(spec, kVertices));
  // Sample mean of 20k exponentials: within 3% of 1/rate for this seed
  // (and any reasonable one — the standard error is 1/(rate*sqrt(n))).
  EXPECT_NEAR(mean(gaps), 1.0 / spec.rate_qpms, 0.03 / spec.rate_qpms);
  // Exponential gaps have unit coefficient of variation.
  EXPECT_NEAR(coefficient_of_variation(gaps), 1.0, 0.05);
}

TEST(Traffic, BurstyArrivalsClumpHarderThanPoisson) {
  TrafficSpec spec;
  spec.process = ArrivalProcess::kBursty;
  spec.num_queries = 20000;
  spec.rate_qpms = 2.5;
  spec.burst_factor = 8.0;
  spec.idle_factor = 0.0;
  spec.burst_on_ms = 2.0;
  spec.burst_off_ms = 16.0;
  spec.seed = 11;
  const std::vector<double> gaps =
      inter_arrivals(core::generate_traffic(spec, kVertices));
  // On/off modulation overdisperses the gaps well past the exponential's
  // CV of 1: most gaps are short in-burst gaps, a few are long silences.
  EXPECT_GT(coefficient_of_variation(gaps), 1.5);
  // The in-burst rate is rate*burst, so the long-run mean gap sits between
  // the in-burst gap and the silent-gap ceiling.
  EXPECT_GT(mean(gaps), 1.0 / (spec.rate_qpms * spec.burst_factor));
}

TEST(Traffic, DiurnalRateSwingsWithTheSinusoid) {
  TrafficSpec spec;
  spec.process = ArrivalProcess::kDiurnal;
  spec.num_queries = 20000;
  spec.rate_qpms = 2.0;
  spec.diurnal_period_ms = 64.0;
  spec.diurnal_amplitude = 0.8;
  spec.seed = 11;
  const std::vector<TrafficQuery> schedule =
      core::generate_traffic(spec, kVertices);
  // Fold arrivals onto one period: the rising half (sin > 0) must carry
  // clearly more arrivals than the falling half, in the 1+a : 1-a ballpark.
  std::uint64_t rising = 0, falling = 0;
  for (const TrafficQuery& q : schedule) {
    const double phase = std::fmod(q.arrival_ms, spec.diurnal_period_ms) /
                         spec.diurnal_period_ms;
    (phase < 0.5 ? rising : falling) += 1;
  }
  const double ratio =
      static_cast<double>(rising) / static_cast<double>(falling);
  EXPECT_GT(ratio, 1.8);  // exact sinusoid integral gives ~(1.51/0.49)=3.1
  EXPECT_LT(ratio, 4.5);
}

// --- sources ---------------------------------------------------------------

TEST(Traffic, SourcesAreZipfSkewedWithMonotoneRankFrequency) {
  TrafficSpec spec;
  spec.num_queries = 40000;
  spec.zipf_s = 1.1;
  spec.source_universe = 64;
  spec.seed = 5;
  const std::vector<TrafficQuery> schedule =
      core::generate_traffic(spec, kVertices);

  std::map<VertexId, std::uint64_t> counts;
  for (const TrafficQuery& q : schedule) ++counts[q.source];
  EXPECT_LE(counts.size(), static_cast<std::size_t>(spec.source_universe));

  std::vector<std::uint64_t> by_rank;
  for (const auto& [source, count] : counts) by_rank.push_back(count);
  std::sort(by_rank.rbegin(), by_rank.rend());

  // Rank-frequency monotonicity, checked over geometric rank buckets
  // (1, 1, 2, 4, 8, ...): per-bucket MEAN frequency must strictly fall.
  // (Strict adjacent-rank ordering is statistically marginal in the tail;
  // bucket means are not.)
  std::vector<double> bucket_means;
  std::size_t begin = 0, width = 1;
  while (begin < by_rank.size()) {
    const std::size_t end = std::min(by_rank.size(), begin + width);
    double total = 0;
    for (std::size_t i = begin; i < end; ++i) {
      total += static_cast<double>(by_rank[i]);
    }
    bucket_means.push_back(total / static_cast<double>(end - begin));
    begin = end;
    if (width < 32) width *= 2;
  }
  ASSERT_GE(bucket_means.size(), 4u);
  for (std::size_t i = 1; i < bucket_means.size(); ++i) {
    EXPECT_LT(bucket_means[i], bucket_means[i - 1]) << "bucket " << i;
  }
  // The head really is hot: the top source alone beats the uniform share
  // by a wide margin.
  const double uniform_share =
      static_cast<double>(spec.num_queries) / spec.source_universe;
  EXPECT_GT(static_cast<double>(by_rank[0]), 5.0 * uniform_share);
}

TEST(Traffic, SourceUniverseClampsToGraphSize) {
  TrafficSpec spec;
  spec.num_queries = 2000;
  spec.source_universe = 1 << 20;  // far beyond |V|
  const std::vector<TrafficQuery> schedule =
      core::generate_traffic(spec, /*num_vertices=*/16);
  for (const TrafficQuery& q : schedule) EXPECT_LT(q.source, 16u);
}

// --- classes and deadlines -------------------------------------------------

TEST(Traffic, ClassMixLandsWithinTolerance) {
  TrafficSpec spec;
  spec.num_queries = 30000;
  spec.class_mix = {0.6, 0.3, 0.1};
  spec.seed = 19;
  const std::vector<TrafficQuery> schedule =
      core::generate_traffic(spec, kVertices);
  std::array<std::uint64_t, core::kNumTrafficClasses> counts{};
  for (const TrafficQuery& q : schedule) {
    counts[static_cast<std::size_t>(q.cls)] += 1;
  }
  for (int c = 0; c < core::kNumTrafficClasses; ++c) {
    const double got = static_cast<double>(counts[static_cast<std::size_t>(c)]) /
                       static_cast<double>(spec.num_queries);
    EXPECT_NEAR(got, spec.class_mix[static_cast<std::size_t>(c)], 0.02)
        << core::traffic_class_name(static_cast<TrafficClass>(c));
  }
}

TEST(Traffic, InvalidSpecsThrowPointedly) {
  TrafficSpec spec;
  EXPECT_THROW(core::generate_traffic(spec, 0), std::invalid_argument);
  spec.rate_qpms = 0;
  EXPECT_THROW(core::generate_traffic(spec, kVertices), std::invalid_argument);
  spec.rate_qpms = 1.0;
  spec.process = ArrivalProcess::kDiurnal;
  spec.diurnal_amplitude = 1.0;
  EXPECT_THROW(core::generate_traffic(spec, kVertices), std::invalid_argument);
  spec.diurnal_amplitude = 0.5;
  spec.class_mix = {0, 0, 0};
  EXPECT_THROW(core::generate_traffic(spec, kVertices), std::invalid_argument);
  spec.class_mix = {1, 0, -1};
  EXPECT_THROW(core::generate_traffic(spec, kVertices), std::invalid_argument);
}

// --- spec grammar ----------------------------------------------------------

TEST(Traffic, SpecGrammarRoundTripsEveryKey) {
  const core::TrafficSpec spec = core::parse_traffic_spec(
      "bursty:n=123,rate=2.5,seed=9,zipf=1.3,universe=77,mix=4/2/1,"
      "deadlines=0.5/2/-,burst=6,idle=0.25,on-ms=3,off-ms=9");
  EXPECT_EQ(spec.process, ArrivalProcess::kBursty);
  EXPECT_EQ(spec.num_queries, 123u);
  EXPECT_EQ(spec.rate_qpms, 2.5);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.zipf_s, 1.3);
  EXPECT_EQ(spec.source_universe, 77u);
  EXPECT_EQ(spec.class_mix, (std::array<double, 3>{4, 2, 1}));
  EXPECT_EQ(spec.class_deadline_ms[0], 0.5);
  EXPECT_EQ(spec.class_deadline_ms[1], 2.0);
  EXPECT_TRUE(std::isinf(spec.class_deadline_ms[2]));
  EXPECT_EQ(spec.burst_factor, 6.0);
  EXPECT_EQ(spec.idle_factor, 0.25);
  EXPECT_EQ(spec.burst_on_ms, 3.0);
  EXPECT_EQ(spec.burst_off_ms, 9.0);

  const core::TrafficSpec diurnal =
      core::parse_traffic_spec("diurnal:period=128,amplitude=0.5");
  EXPECT_EQ(diurnal.process, ArrivalProcess::kDiurnal);
  EXPECT_EQ(diurnal.diurnal_period_ms, 128.0);
  EXPECT_EQ(diurnal.diurnal_amplitude, 0.5);

  // Bare process name: all defaults.
  EXPECT_EQ(core::parse_traffic_spec("poisson").process,
            ArrivalProcess::kPoisson);
}

TEST(Traffic, SpecGrammarRejectsGarbage) {
  EXPECT_THROW(core::parse_traffic_spec("weibull"), std::invalid_argument);
  EXPECT_THROW(core::parse_traffic_spec("poisson:frequency=3"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_traffic_spec("poisson:rate"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_traffic_spec("poisson:rate=fast"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_traffic_spec("poisson:mix=1/2"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_traffic_spec("poisson:n=2,n=x"),
               std::invalid_argument);
}

// Expects `parse(spec)` to throw std::invalid_argument mentioning `key`.
template <typename Parse>
void expect_rejects_naming(Parse parse, const std::string& spec,
                           const std::string& key) {
  try {
    parse(spec);
    ADD_FAILURE() << spec << " parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
        << e.what();
  }
}

TEST(Traffic, SpecGrammarRejectsOutOfRangeIntegers) {
  const auto parse = [](const std::string& spec) {
    return core::parse_traffic_spec(spec);
  };
  // A sign used to wrap n to 2^64 - 1 queries, and an oversized universe
  // was silently truncated to 32 bits.
  expect_rejects_naming(parse, "poisson:n=-1", "n");
  expect_rejects_naming(parse, "poisson:universe=4294967297", "universe");
  expect_rejects_naming(parse, "poisson:n=1e3", "n");
  expect_rejects_naming(parse, "poisson:rate=inf", "rate");
  expect_rejects_naming(parse, "poisson:deadlines=1/nan/-", "deadlines");
  EXPECT_EQ(core::parse_traffic_spec("poisson:universe=4294967295")
                .source_universe,
            4294967295u);
  // The CI smoke's stream.
  const TrafficSpec smoke =
      core::parse_traffic_spec("poisson:n=200,rate=2,deadlines=2/8/-,seed=7");
  EXPECT_EQ(smoke.num_queries, 200u);
  EXPECT_EQ(smoke.rate_qpms, 2.0);
  EXPECT_EQ(smoke.seed, 7u);
  EXPECT_EQ(smoke.class_deadline_ms[1], 8.0);
  EXPECT_TRUE(std::isinf(smoke.class_deadline_ms[2]));
}

// --- closed-loop clients ---------------------------------------------------

TEST(Traffic, ClosedLoopBackoffIsAPureFunctionOfItsKeys) {
  core::ClosedLoopSpec spec;
  spec.backoff_base_ms = 0.4;
  spec.backoff_multiplier = 2.0;
  spec.jitter = 0.5;
  spec.seed = 9;
  for (std::uint64_t index : {0ull, 1ull, 17ull, 123456789ull}) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const double a = core::closed_loop_backoff_ms(spec, index, attempt);
      const double b = core::closed_loop_backoff_ms(spec, index, attempt);
      EXPECT_EQ(a, b);  // bitwise: no ambient entropy anywhere
      const double base = 0.4 * std::pow(2.0, attempt - 1);
      EXPECT_GE(a, base * (1.0 - spec.jitter));
      EXPECT_LE(a, base * (1.0 + spec.jitter));
    }
  }
  // Different keys decorrelate: not every draw lands on the same jitter.
  const double x = core::closed_loop_backoff_ms(spec, 1, 1);
  const double y = core::closed_loop_backoff_ms(spec, 2, 1);
  EXPECT_NE(x, y);
}

TEST(Traffic, ClosedLoopBackoffWithoutJitterIsExactExponential) {
  core::ClosedLoopSpec spec;
  spec.backoff_base_ms = 0.25;
  spec.backoff_multiplier = 3.0;
  spec.jitter = 0.0;
  EXPECT_EQ(core::closed_loop_backoff_ms(spec, 7, 1), 0.25);
  EXPECT_EQ(core::closed_loop_backoff_ms(spec, 7, 2), 0.75);
  EXPECT_EQ(core::closed_loop_backoff_ms(spec, 7, 3), 2.25);
}

TEST(Traffic, ClosedLoopBackoffValidatesArguments) {
  core::ClosedLoopSpec spec;
  EXPECT_THROW(core::closed_loop_backoff_ms(spec, 0, 0),
               std::invalid_argument);
  spec.jitter = 1.5;
  EXPECT_THROW(core::closed_loop_backoff_ms(spec, 0, 1),
               std::invalid_argument);
  spec.jitter = 0.5;
  spec.backoff_base_ms = -1.0;
  EXPECT_THROW(core::closed_loop_backoff_ms(spec, 0, 1),
               std::invalid_argument);
}

TEST(Traffic, ClosedLoopSpecGrammarRoundTripsAndRejectsGarbage) {
  const core::ClosedLoopSpec spec = core::parse_closed_loop_spec(
      "budget=3,backoff=0.25,mult=3,jitter=0.25,seed=9,depth=12,"
      "penalty=0.75");
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.retry_budget, 3);
  EXPECT_EQ(spec.backoff_base_ms, 0.25);
  EXPECT_EQ(spec.backoff_multiplier, 3.0);
  EXPECT_EQ(spec.jitter, 0.25);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.backpressure_depth, 12u);
  EXPECT_EQ(spec.backpressure_penalty_ms, 0.75);

  EXPECT_THROW(core::parse_closed_loop_spec("budget"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_closed_loop_spec("bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_closed_loop_spec("jitter=1.5"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_closed_loop_spec("backoff=fast"),
               std::invalid_argument);
}

TEST(Traffic, ClosedLoopSpecGrammarRejectsOutOfRangeIntegers) {
  const auto parse = [](const std::string& spec) {
    return core::parse_closed_loop_spec(spec);
  };
  // 2^32 used to wrap the int budget to 0.
  expect_rejects_naming(parse, "budget=4294967296", "budget");
  expect_rejects_naming(parse, "budget=-1", "budget");
  expect_rejects_naming(parse, "depth=8.5", "depth");
  // The benchmark's storm clients and the CI smoke's.
  const core::ClosedLoopSpec storm =
      core::parse_closed_loop_spec("budget=2,backoff=0.5,depth=16");
  EXPECT_EQ(storm.retry_budget, 2);
  EXPECT_EQ(storm.backoff_base_ms, 0.5);
  EXPECT_EQ(storm.backpressure_depth, 16u);
  EXPECT_EQ(core::parse_closed_loop_spec("budget=2,backoff=0.5,depth=8")
                .backpressure_depth,
            8u);
}

}  // namespace
}  // namespace rdbs
