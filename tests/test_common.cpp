// Unit tests for src/common: RNG determinism and distribution sanity,
// accumulator statistics, prefix sums, table formatting, CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/prefix_sum.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace rdbs {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  Xoshiro256 a(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next());
  a.reseed(77);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Xoshiro256 rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Xoshiro256 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Xoshiro256 rng(12);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.uniform_real();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  // Mean of U[0,1) should be near 0.5.
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

TEST(Rng, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // Bit-avalanche sanity: flipping one input bit flips many output bits.
  const std::uint64_t d = mix64(100) ^ mix64(101);
  EXPECT_GT(__builtin_popcountll(d), 16);
}

TEST(Accumulator, BasicStatistics) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(Accumulator, Percentiles) {
  Accumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(i);
  EXPECT_DOUBLE_EQ(acc.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(acc.percentile(100), 100.0);
  EXPECT_NEAR(acc.percentile(50), 50.5, 1e-9);
}

TEST(Accumulator, SingleValuePercentile) {
  Accumulator acc;
  acc.add(7.0);
  EXPECT_DOUBLE_EQ(acc.percentile(37), 7.0);
}

TEST(PrefixSum, ExclusiveScanBasic) {
  std::vector<std::uint32_t> in{3, 1, 4, 1, 5};
  std::vector<std::uint64_t> out;
  EXPECT_EQ(exclusive_scan(in, out), 14u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 3, 4, 8, 9, 14}));
}

TEST(PrefixSum, ExclusiveScanEmpty) {
  std::vector<std::uint32_t> in;
  std::vector<std::uint64_t> out;
  EXPECT_EQ(exclusive_scan(in, out), 0u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
}

TEST(PrefixSum, InplaceScan) {
  std::vector<std::uint64_t> counts{2, 0, 7};
  EXPECT_EQ(exclusive_scan_inplace(counts), 9u);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{0, 2, 2}));
}

TEST(PrefixSum, InclusiveScan) {
  std::vector<std::uint64_t> in{1, 2, 3};
  std::vector<std::uint64_t> out;
  inclusive_scan(in, out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 3, 6}));
}

TEST(Table, RenderAlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string text = table.render();
  EXPECT_NE(text.find("| name   | value |"), std::string::npos);
  EXPECT_NE(text.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, CsvEscapesNothingButJoins) {
  TextTable table({"a", "b"});
  table.add_row({"1", "2"});
  EXPECT_EQ(table.render_csv(), "a,b\n1,2\n");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_speedup(5.091), "5.09x");
  EXPECT_EQ(format_count(30741651), "30,741,651");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_percent(0.0359, 2), "3.59%");
}

TEST(Cli, ParsesAllFlagForms) {
  // Note: a bare "--flag" followed by a non-flag token consumes the token
  // as its value, so boolean flags must precede another flag or end argv.
  const char* argv[] = {"prog",        "positional", "--alpha=3", "--beta",
                        "7",           "--flag",     "--benchmark_filter=x"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 7);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  // benchmark flags pass through untouched.
  const auto pass = args.passthrough();
  ASSERT_EQ(pass.size(), 2u);
  EXPECT_EQ(pass[1], "--benchmark_filter=x");
}

TEST(Cli, UnknownFlagsAreTheOnesNotAccepted) {
  const char* argv[] = {"prog", "--alpha=3", "--zeta", "--beta", "7",
                        "--benchmark_filter=x"};
  CliArgs args(6, const_cast<char**>(argv));
  const std::string_view accepted[] = {"alpha", "gamma"};
  EXPECT_EQ(args.unknown_flags(accepted),
            (std::vector<std::string>{"beta", "zeta"}));
  const std::string_view all[] = {"alpha", "beta", "zeta"};
  EXPECT_TRUE(args.unknown_flags(all).empty());
}

TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--delta=0.1"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("delta", 1.0), 0.1);
}

// A CliArgs holding the one flag --v=<value>.
CliArgs one_flag(const std::string& value) {
  std::string flag = "--v=" + value;
  char* argv[] = {const_cast<char*>("prog"), flag.data()};
  return CliArgs(2, argv);
}

TEST(Cli, RejectsMalformedNumbers) {
  // The whole value must parse: a trailing character, a fraction or
  // exponent for an integer, or a value out of range is an error.
  for (const char* bad : {"", "abc", "12x", "1.5", "0x10", "1e3", "true",
                          "+-1", "99999999999999999999"}) {
    EXPECT_THROW(one_flag(bad).get_int("v", 0), std::invalid_argument)
        << "'" << bad << "'";
  }
  for (const char* bad : {"", "abc", "0.5x", "1.5e", "1e400", "0x", "--1"}) {
    EXPECT_THROW(one_flag(bad).get_double("v", 0), std::invalid_argument)
        << "'" << bad << "'";
  }
  try {
    one_flag("abc").get_int("v", 0);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--v"), std::string::npos)
        << e.what();
  }
  // Every value strtoll/strtod read in full reads the same.
  for (const char* good : {"0", "-42", "+7", " 3", "9223372036854775807",
                           "-9223372036854775808"}) {
    EXPECT_EQ(one_flag(good).get_int("v", 1), std::strtoll(good, nullptr, 10))
        << "'" << good << "'";
  }
  for (const char* good : {"0.1", "-2.5e-3", "+1e300", " 4", "7", ".5",
                           "0x1.8p1", "-0X1P-2", "inf", "-infinity"}) {
    EXPECT_EQ(one_flag(good).get_double("v", 1), std::strtod(good, nullptr))
        << "'" << good << "'";
  }
  EXPECT_TRUE(std::isnan(one_flag("nan").get_double("v", 1)));
  EXPECT_EQ(one_flag("5").get_int("missing", -3), -3);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), t.seconds());  // ms numerically >= s
}

}  // namespace
}  // namespace rdbs
