#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cfloat>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/fifo_cache.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace shadoop {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, CopyAndMoveSemantics) {
  Status s = Status::IoError("disk");
  Status copy = s;
  EXPECT_TRUE(copy.IsIoError());
  EXPECT_TRUE(s.IsIoError());
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsIoError());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    SHADOOP_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsInternal());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok_result = 42;
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 42);

  Result<int> err_result = Status::ParseError("nope");
  EXPECT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsParseError());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto parse = [](bool good) -> Result<int> {
    if (!good) return Status::ParseError("bad");
    return 7;
  };
  auto wrapper = [&](bool good) -> Result<int> {
    SHADOOP_ASSIGN_OR_RETURN(int v, parse(good));
    return v * 2;
  };
  EXPECT_EQ(wrapper(true).value(), 14);
  EXPECT_TRUE(wrapper(false).status().IsParseError());
}

TEST(StringUtilTest, SplitStringKeepsEmptyFields) {
  auto fields = SplitString("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto fields = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x  "), "x");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t\n "), "");
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").ValueOrDie(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e3 ").ValueOrDie(), -1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("12x").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("123").ValueOrDie(), 123);
  EXPECT_EQ(ParseInt64("-5").ValueOrDie(), -5);
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringUtilTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0 / 3.0, -123456.789012345, 1e-300, 3.14159265358979,
                   1e6, 0.1, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN,
                   std::numeric_limits<double>::denorm_min()}) {
    EXPECT_DOUBLE_EQ(ParseDouble(FormatDouble(v)).ValueOrDie(), v);
  }
}

/// The printf-based precision loop FormatDouble used to run: the oracle
/// for the bytes every stored coordinate and `#lidx` header is made of.
std::string SnprintfFormatDouble(double value) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    std::from_chars(buf, buf + std::strlen(buf), parsed);
    if (parsed == value) break;
  }
  return buf;
}

/// `v`, its negation and both neighbours of each.
std::vector<double> WithNeighbours(double v) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> out;
  for (double s : {v, -v}) {
    out.push_back(s);
    out.push_back(std::nextafter(s, inf));
    out.push_back(std::nextafter(s, -inf));
  }
  return out;
}

TEST(StringUtilTest, FormatDoubleMatchesSnprintfOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {0.0, -0.0, inf, -inf, nan, -nan, DBL_MAX, -DBL_MAX,
                   DBL_MIN, -DBL_MIN,
                   std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(FormatDouble(v), SnprintfFormatDouble(v)) << "value " << v;
  }
  // Every power of two, subnormal to largest: at a normal one the
  // rounding interval is narrower below than above.
  for (int e = -1074; e <= 1023; ++e) {
    for (double v : WithNeighbours(std::ldexp(1.0, e))) {
      ASSERT_EQ(FormatDouble(v), SnprintfFormatDouble(v))
          << "2^" << e << " neighbourhood, value " << v;
    }
  }
  // Every power of ten, as the correctly rounded double.
  for (int e = -323; e <= 308; ++e) {
    const std::string text = "1e" + std::to_string(e);
    double ten = 0;
    std::from_chars(text.data(), text.data() + text.size(), ten);
    for (double v : WithNeighbours(ten)) {
      ASSERT_EQ(FormatDouble(v), SnprintfFormatDouble(v))
          << text << " neighbourhood, value " << v;
    }
  }
  Random rng(20261017);
  for (int i = 0; i < 20000; ++i) {
    const double uniform = rng.NextDouble(0, 1e6);
    const double integral = std::floor(rng.NextDouble(-1e9, 1e9));
    const double four_decimals =
        std::round(rng.NextDouble(-1e6, 1e6) * 1e4) / 1e4;
    for (double v : {uniform, integral, four_decimals}) {
      ASSERT_EQ(FormatDouble(v), SnprintfFormatDouble(v)) << "value " << v;
    }
  }
  // Random bit patterns reach denormals, extremes, infinities and NaNs.
  for (int i = 0; i < 1000000; ++i) {
    const double v = std::bit_cast<double>(rng.NextUint64());
    ASSERT_EQ(FormatDouble(v), SnprintfFormatDouble(v)) << "value " << v;
  }
  // Coordinates as the benchmark writes them (a unit draw times 1e6, in
  // shortest text), the values that text parses back to, three-decimal
  // roundings, and their negations.
  for (int i = 0; i < 100000; ++i) {
    const double coord = rng.NextDouble() * 1e6;
    char text[32];
    double parsed = 0;
    std::from_chars(text, std::to_chars(text, text + sizeof(text), coord).ptr,
                    parsed);
    const double three_decimals = std::round(coord * 1e3) / 1e3;
    for (double v : {coord, parsed, three_decimals, -coord, -three_decimals}) {
      ASSERT_EQ(FormatDouble(v), SnprintfFormatDouble(v)) << "value " << v;
    }
  }
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_TRUE(StartsWithIgnoreCase("Polygon ((", "POLYGON"));
  EXPECT_FALSE(StartsWithIgnoreCase("POLY", "POLYGON"));
  EXPECT_EQ(AsciiToUpper("MixedCase_9"), "MIXEDCASE_9");
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, BoundedValuesInRange) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double r = rng.NextDouble(-2, 5);
    EXPECT_GE(r, -2.0);
    EXPECT_LT(r, 5.0);
  }
}

TEST(RandomTest, GaussianHasRoughlyUnitVariance) {
  Random rng(4);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double variance = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(variance, 1.0, 0.1);
}

TEST(FifoCacheTest, FirstInsertWins) {
  FifoCache<int> cache(4);
  const FifoCache<int>::Ptr first = std::make_shared<const int>(1);
  EXPECT_EQ(cache.Insert("k", first), first);
  EXPECT_EQ(cache.Insert("k", std::make_shared<const int>(2)), first);
  EXPECT_EQ(cache.Lookup("k"), first);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FifoCacheTest, EvictsTheOldestInsertPastCapacity) {
  FifoCache<int> cache(2);
  cache.Insert("a", std::make_shared<const int>(1));
  cache.Insert("b", std::make_shared<const int>(2));
  cache.Insert("c", std::make_shared<const int>(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  ASSERT_NE(cache.Lookup("b"), nullptr);
  EXPECT_EQ(*cache.Lookup("b"), 2);
  ASSERT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(*cache.Lookup("c"), 3);
}

TEST(FifoCacheTest, LookupCountsOneHitOrMiss) {
  FifoCache<int> cache(2);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert("k", std::make_shared<const int>(7));
  EXPECT_EQ(cache.hits(), 0u);  // Insert counts nothing.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NE(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FifoCacheTest, ConcurrentInsertersShareOneResidentInstance) {
  constexpr int kThreads = 8;
  FifoCache<int> cache(16);
  std::vector<FifoCache<int>::Ptr> resident(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FifoCache<int>::Ptr mine = std::make_shared<const int>(t);
      while (!go.load()) std::this_thread::yield();
      resident[static_cast<size_t>(t)] = cache.Insert("block", std::move(mine));
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  const FifoCache<int>::Ptr winner = cache.Lookup("block");
  ASSERT_NE(winner, nullptr);
  for (const FifoCache<int>::Ptr& value : resident) EXPECT_EQ(value, winner);
  EXPECT_EQ(cache.size(), 1u);
}

/// Runs `threads` concurrent GetOrBuild("block") calls whose build blocks
/// until every other caller is waiting on it (a waiter counts its hit
/// before it waits), then returns `value`. Fills `builds` and `results`.
/// A cache that does not make callers wait fails the caller's checks
/// after a deadline instead of hanging.
void RaceOneBuild(FifoCache<int>* cache, int threads,
                  const FifoCache<int>::Ptr& value, std::atomic<int>* builds,
                  std::vector<FifoCache<int>::Ptr>* results) {
  results->assign(static_cast<size_t>(threads), nullptr);
  const uint64_t hits_before = cache->hits();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<std::thread> callers;
  for (int t = 0; t < threads; ++t) {
    callers.emplace_back([=] {
      (*results)[static_cast<size_t>(t)] =
          cache->GetOrBuild("block", [&] {
            builds->fetch_add(1);
            while (cache->hits() - hits_before <
                       static_cast<uint64_t>(threads - 1) &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::yield();
            }
            return value;
          });
    });
  }
  for (std::thread& caller : callers) caller.join();
}

TEST(FifoCacheTest, GetOrBuildBuildsOncePerKey) {
  constexpr int kThreads = 8;
  FifoCache<int> cache(16);
  std::atomic<int> builds{0};
  std::vector<FifoCache<int>::Ptr> results;
  const FifoCache<int>::Ptr built = std::make_shared<const int>(42);
  RaceOneBuild(&cache, kThreads, built, &builds, &results);
  EXPECT_EQ(builds.load(), 1);
  for (const FifoCache<int>::Ptr& value : results) EXPECT_EQ(value, built);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.Lookup("block"), built);
}

TEST(FifoCacheTest, GetOrBuildFailedBuildWakesWaiters) {
  constexpr int kThreads = 8;
  FifoCache<int> cache(16);
  std::atomic<int> builds{0};
  std::vector<FifoCache<int>::Ptr> results;
  RaceOneBuild(&cache, kThreads, nullptr, &builds, &results);
  EXPECT_EQ(builds.load(), 1);
  for (const FifoCache<int>::Ptr& value : results) EXPECT_EQ(value, nullptr);
  EXPECT_EQ(cache.size(), 0u);
  // Nothing was cached, so the next call builds again.
  const FifoCache<int>::Ptr retry = cache.GetOrBuild(
      "block", [] { return std::make_shared<const int>(7); });
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(*retry, 7);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FifoCacheTest, GetOrBuildEvictsLikeInsert) {
  FifoCache<int> cache(2);
  const auto build = [](int v) {
    return [v] { return std::make_shared<const int>(v); };
  };
  cache.GetOrBuild("a", build(1));
  cache.Insert("b", std::make_shared<const int>(2));
  cache.GetOrBuild("c", build(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  ASSERT_NE(cache.Lookup("b"), nullptr);
  EXPECT_EQ(*cache.GetOrBuild("c", build(30)), 3) << "a hit builds nothing";
  cache.GetOrBuild("d", build(4));
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace shadoop
