// Unit tests for src/util: binomial coefficients, RNG, streaming stats,
// table rendering, strict number parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "util/binomial.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace cmesolve {
namespace {

// --- binomial --------------------------------------------------------------

TEST(Binomial, BaseCases) {
  EXPECT_EQ(binomial(0, 0), 1.0);
  EXPECT_EQ(binomial(1, 0), 1.0);
  EXPECT_EQ(binomial(1, 1), 1.0);
  EXPECT_EQ(binomial(5, 0), 1.0);
}

TEST(Binomial, SmallValues) {
  EXPECT_EQ(binomial(4, 2), 6.0);
  EXPECT_EQ(binomial(5, 2), 10.0);
  EXPECT_EQ(binomial(6, 3), 20.0);
  EXPECT_EQ(binomial(10, 4), 210.0);
}

TEST(Binomial, OutOfRangeIsZero) {
  EXPECT_EQ(binomial(3, 4), 0.0);
  EXPECT_EQ(binomial(-1, 1), 0.0);
  EXPECT_EQ(binomial(3, -1), 0.0);
}

TEST(Binomial, Symmetry) {
  for (int n = 0; n <= 30; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n, n - k)) << n << " " << k;
    }
  }
}

TEST(Binomial, PascalRecurrence) {
  for (int n = 1; n <= 40; ++n) {
    for (int k = 1; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
    }
  }
}

TEST(Binomial, PropensityRegimeExact) {
  // CME propensities use small k and potentially large copy numbers.
  EXPECT_EQ(binomial(1000, 1), 1000.0);
  EXPECT_EQ(binomial(1000, 2), 1000.0 * 999.0 / 2.0);
  EXPECT_EQ(binomial(100000, 3), 100000.0 * 99999.0 * 99998.0 / 6.0);
}

TEST(FallingFactorial, MatchesDefinition) {
  EXPECT_EQ(falling_factorial(5, 0), 1.0);
  EXPECT_EQ(falling_factorial(5, 1), 5.0);
  EXPECT_EQ(falling_factorial(5, 3), 60.0);
  EXPECT_EQ(falling_factorial(2, 3), 0.0);
}

// --- RNG --------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const real_t u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Xoshiro256 rng(11);
  real_t sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedStaysInBounds) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
  Xoshiro256 rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

// --- RunningStats ------------------------------------------------------------

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (real_t v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic population-sigma example
}

TEST(RunningStats, VariabilityAndSkew) {
  RunningStats s;
  for (real_t v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.variability(), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.skew(), (9.0 - 5.0) / 5.0);
}

TEST(RunningStats, ConstantSequenceHasZeroSigma) {
  RunningStats s;
  for (int i = 0; i < 50; ++i) s.add(3.25);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.variability(), 0.0);
  EXPECT_DOUBLE_EQ(s.skew(), 0.0);
}

TEST(RunningStats, EmptyIsNaN) {
  RunningStats s;
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStats, EmptyDerivedRatiosAreNaN) {
  RunningStats s;
  EXPECT_TRUE(std::isnan(s.variability()));
  EXPECT_TRUE(std::isnan(s.skew()));
}

TEST(RunningStats, ZeroMeanRatiosAreNaNNotInf) {
  // sigma/mu and (max-mu)/mu are undefined at mu == 0; the explicit NaN
  // (instead of IEEE +/-inf from the literal division) keeps the JSON
  // serialization path uniform for both undefined cases.
  RunningStats s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.variability()));
  EXPECT_FALSE(std::isinf(s.variability()));
  EXPECT_TRUE(std::isnan(s.skew()));
  EXPECT_FALSE(std::isinf(s.skew()));
}

// --- TextTable ----------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(-1.0, 0), "-1");
}

TEST(TextTable, CountFormatting) {
  EXPECT_EQ(TextTable::count(0), "0");
  EXPECT_EQ(TextTable::count(999), "999");
  EXPECT_EQ(TextTable::count(1000), "1,000");
  EXPECT_EQ(TextTable::count(1234567), "1,234,567");
  EXPECT_EQ(TextTable::count(-1234), "-1,234");
}

// --- strict number parsing -------------------------------------------------

TEST(ParseNumber, WholeIntegersParse) {
  EXPECT_EQ(util::parse_number<int>("42"), 42);
  EXPECT_EQ(util::parse_number<int>("0"), 0);
  EXPECT_EQ(util::parse_number<int>("-3"), -3);
  EXPECT_EQ(util::parse_number<std::size_t>("18446744073709551615"),
            std::size_t{18446744073709551615u});
  EXPECT_EQ(util::parse_number<std::uint64_t>("7"), std::uint64_t{7});
}

TEST(ParseNumber, IntegersRejectAnythingButOneWholeNumber) {
  for (const char* bad : {"", "abc", "4x", "12abc", " 7", "7 ", "+7", "1e3",
                          "1.5", "0x10", "--1", "99999999999999999999999"}) {
    EXPECT_FALSE(util::parse_number<int>(bad)) << '"' << bad << '"';
    EXPECT_FALSE(util::parse_number<std::size_t>(bad)) << '"' << bad << '"';
  }
  // A negative count does not wrap around to a huge unsigned value.
  EXPECT_FALSE(util::parse_number<std::size_t>("-1"));
  EXPECT_FALSE(util::parse_number<std::uint64_t>("-1"));
  EXPECT_FALSE(util::parse_number<int>("2147483648"));
}

TEST(ParseNumber, WholeDoublesParse) {
  EXPECT_EQ(util::parse_number<double>("0.5"), 0.5);
  EXPECT_EQ(util::parse_number<double>("1.1"), 1.1);
  EXPECT_EQ(util::parse_number<double>("3"), 3.0);
  EXPECT_EQ(util::parse_number<double>("-0.25"), -0.25);
  EXPECT_EQ(util::parse_number<double>("1e-3"), 1e-3);
  EXPECT_EQ(util::parse_number<double>(".5"), 0.5);
}

TEST(ParseNumber, DoublesRejectAnythingButOneFiniteNumber) {
  for (const char* bad : {"", "abc", "0.5x", "1.5.2", " 1", "1 ", "+1", "1e",
                          "0x1p3", "nan", "inf", "-inf", "1e999"}) {
    EXPECT_FALSE(util::parse_number<double>(bad)) << '"' << bad << '"';
  }
}

TEST(ParseNumber, EnvironmentValueParsesWholeOrNotAtAll) {
  const char* name = "CMESOLVE_TEST_PARSE_NUMBER";
  ::unsetenv(name);
  EXPECT_FALSE(util::env_number<int>(name));
  ::setenv(name, "4", 1);
  EXPECT_EQ(util::env_number<int>(name), 4);
  ::setenv(name, "4x", 1);
  EXPECT_FALSE(util::env_number<int>(name));
  ::setenv(name, "0.75", 1);
  EXPECT_EQ(util::env_number<double>(name), 0.75);
  ::unsetenv(name);
}

// --- parallel_for_aligned chunking -------------------------------------------

/// The (begin, end) chunks of one parallel_for_aligned call, in row order.
std::vector<std::pair<std::size_t, std::size_t>> chunks_of(std::size_t n,
                                                           std::size_t align) {
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  util::parallel_for_aligned(n, align, [&](std::size_t b, std::size_t e) {
    const std::lock_guard<std::mutex> lock(m);
    out.emplace_back(b, e);
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Chunks tile [0, n) in order, every interior boundary a multiple of
/// `align`, every chunk but the last at least the 4,096-row grain.
void expect_tiling(const std::vector<std::pair<std::size_t, std::size_t>>& c,
                   std::size_t n, std::size_t align) {
  std::size_t next = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i].first, next) << "chunk " << i;
    EXPECT_EQ(c[i].first % align, 0u) << "chunk " << i;
    if (i + 1 < c.size()) {
      EXPECT_GE(c[i].second - c[i].first, 4096u) << "chunk " << i;
    }
    next = c[i].second;
  }
  EXPECT_EQ(next, n);
}

TEST(ParallelFor, ChunksSpreadEvenlyOverThreads) {
  util::set_max_threads(4);
  // Five grains on four threads run as four even chunks, not five grains
  // with one thread doing two.
  auto c = chunks_of(20'160, 1);
  expect_tiling(c, 20'160, 1);
  ASSERT_EQ(c.size(), 4u);
  for (const auto& [b, e] : c) EXPECT_EQ(e - b, 5'040u);
  // 33 chunks of the 8,449-row minimum become 32 of 8,712.
  c = chunks_of(278'784, 1);
  expect_tiling(c, 278'784, 1);
  EXPECT_EQ(c.size(), 32u);
  // A reduction-aligned loop keeps its boundaries on multiples of 8,192.
  c = chunks_of(278'784, 8'192);
  expect_tiling(c, 278'784, 8'192);
  EXPECT_EQ(c.size() % 4, 0u);
  // Fewer chunks than threads stay as they are.
  c = chunks_of(12'000, 1);
  expect_tiling(c, 12'000, 1);
  EXPECT_EQ(c.size(), 3u);
  util::set_max_threads(0);
}

}  // namespace
}  // namespace cmesolve
