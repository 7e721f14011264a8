// Unit tests for the util module: RNG, hashing, time model, CSV, checks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ethshard::util {
namespace {

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformZeroBoundThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(0), CheckFailure);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.uniform_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.03);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(31);
  double sum = 0;
  for (int i = 0; i < 20000; ++i)
    sum += static_cast<double>(rng.poisson(3.0));
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(37);
  double sum = 0;
  for (int i = 0; i < 5000; ++i)
    sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / 5000.0, 200.0, 2.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(41);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-5.0), 0u);
}

TEST(Rng, GeometricMean) {
  Rng rng(43);
  double sum = 0;
  for (int i = 0; i < 20000; ++i)
    sum += static_cast<double>(rng.geometric(0.5));
  EXPECT_NEAR(sum / 20000.0, 1.0, 0.05);  // mean (1-p)/p = 1
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(47);
  const std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(53);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), CheckFailure);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(59);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ForkDivergesFromParent) {
  Rng a(61);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(67);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[99]);
}

TEST(Zipf, ZeroExponentIsUniform) {
  Rng rng(71);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c / 50000.0, 0.1, 0.02);
}

TEST(Zipf, SingleElement) {
  Rng rng(73);
  ZipfSampler zipf(1, 2.0);
  EXPECT_EQ(zipf.sample(rng), 0u);
}

// ------------------------------------------------------------------ hash

TEST(Hash, Fnv1aKnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ULL);
}

TEST(Hash, Mix64IsBijectiveish) {
  // Distinct inputs must give distinct outputs on a sample (fmix64 is a
  // permutation, so collisions are impossible).
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 10000u);
}

TEST(Hash, Mix64SpreadsLowBits) {
  // Consecutive ids must not land in consecutive buckets.
  int same_bucket_runs = 0;
  for (std::uint64_t i = 0; i + 1 < 1000; ++i)
    if (mix64(i) % 8 == mix64(i + 1) % 8) ++same_bucket_runs;
  EXPECT_LT(same_bucket_runs, 250);  // ~125 expected for uniform
}

TEST(Hash, HashCombineOrderMatters) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

// ------------------------------------------------------------------ time

TEST(SimTime, EpochRoundTrip) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
  EXPECT_EQ(civil_from_days(0), (CivilDate{1970, 1, 1}));
}

TEST(SimTime, KnownDates) {
  // 2015-07-30 (Ethereum genesis) is 16646 days after the epoch.
  EXPECT_EQ(days_from_civil(2015, 7, 30), 16646);
  EXPECT_EQ(make_timestamp(2015, 7, 30), 16646 * kDay);
}

TEST(SimTime, RoundTripAllDaysInRange) {
  for (std::int64_t d = days_from_civil(2015, 1, 1);
       d <= days_from_civil(2018, 12, 31); ++d) {
    const CivilDate c = civil_from_days(d);
    EXPECT_EQ(days_from_civil(c.year, c.month, c.day), d);
  }
}

TEST(SimTime, LeapYearHandling) {
  EXPECT_EQ(days_from_civil(2016, 3, 1) - days_from_civil(2016, 2, 28), 2);
  EXPECT_EQ(days_from_civil(2017, 3, 1) - days_from_civil(2017, 2, 28), 1);
}

TEST(SimTime, MonthFloor) {
  const Timestamp mid = make_timestamp(2016, 9, 18) + 5 * kHour;
  EXPECT_EQ(month_floor(mid), make_timestamp(2016, 9, 1));
}

TEST(SimTime, AddMonthsAcrossYearBoundary) {
  const Timestamp nov = make_timestamp(2015, 11, 10);
  EXPECT_EQ(add_months(nov, 2), make_timestamp(2016, 1, 1));
  EXPECT_EQ(add_months(nov, -11), make_timestamp(2014, 12, 1));
}

TEST(SimTime, MonthLabelMatchesPaperAxis) {
  EXPECT_EQ(month_label(make_timestamp(2015, 7, 30)), "07.15");
  EXPECT_EQ(month_label(make_timestamp(2017, 12, 31)), "12.17");
}

TEST(SimTime, DateLabel) {
  EXPECT_EQ(date_label(make_timestamp(2016, 10, 2)), "2016-10-02");
}

TEST(SimTime, AnchorsOrdered) {
  EXPECT_LT(genesis_time(), attack_start_time());
  EXPECT_LT(attack_start_time(), attack_end_time());
  EXPECT_LT(attack_end_time(), study_end_time());
}

// ------------------------------------------------------------------- csv

TEST(Csv, WriteSimpleRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a,b", "say \"hi\"", "plain"});
  EXPECT_EQ(os.str(), "\"a,b\",\"say \"\"hi\"\"\",plain\n");
}

TEST(Csv, FieldByFieldTypes) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field(std::uint64_t{42})
      .field(std::int64_t{-7})
      .field(1.5)
      .field(std::string_view{"x"});
  w.end_row();
  EXPECT_EQ(os.str(), "42,-7,1.5,x\n");
}

TEST(Csv, ParseRoundTrip) {
  const auto fields = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\",plain");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "say \"hi\"");
  EXPECT_EQ(fields[2], "plain");
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = parse_csv_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(Csv, ReaderSkipsBlankLines) {
  std::istringstream in("a,b\n\n\nc,d\n");
  CsvReader r(in);
  std::vector<std::string> fields;
  ASSERT_TRUE(r.read_row(fields));
  EXPECT_EQ(fields[0], "a");
  ASSERT_TRUE(r.read_row(fields));
  EXPECT_EQ(fields[0], "c");
  EXPECT_FALSE(r.read_row(fields));
}

TEST(Csv, ToleratesCrlf) {
  std::istringstream in("a,b\r\nc,d\r\n");
  CsvReader r(in);
  std::vector<std::string> fields;
  ASSERT_TRUE(r.read_row(fields));
  EXPECT_EQ(fields[1], "b");
}

// ------------------------------------------------------------------ args

ArgParser make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(Args, SpaceSeparatedFlags) {
  const ArgParser a = make_args({"--scale", "0.5", "--seed", "42"});
  EXPECT_DOUBLE_EQ(a.get_double("scale", 0), 0.5);
  EXPECT_EQ(a.get_uint("seed", 0), 42u);
}

TEST(Args, EqualsSyntax) {
  const ArgParser a = make_args({"--method=METIS", "--shards=8"});
  EXPECT_EQ(a.get("method", ""), "METIS");
  EXPECT_EQ(a.get_int("shards", 0), 8);
}

TEST(Args, Positional) {
  const ArgParser a = make_args({"simulate", "--shards", "4", "extra"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "simulate");
  EXPECT_EQ(a.positional()[1], "extra");
}

TEST(Args, BooleanSwitch) {
  const ArgParser a = make_args({"--verbose", "--csv", "out.csv"});
  EXPECT_TRUE(a.get_bool("verbose", false));
  EXPECT_FALSE(a.get_bool("quiet", false));
  EXPECT_EQ(a.get("csv", ""), "out.csv");
}

TEST(Args, BooleanExplicitValues) {
  const ArgParser a = make_args({"--x=true", "--y=0"});
  EXPECT_TRUE(a.get_bool("x", false));
  EXPECT_FALSE(a.get_bool("y", true));
}

TEST(Args, Fallbacks) {
  const ArgParser a = make_args({});
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
  EXPECT_EQ(a.get_int("missing", -3), -3);
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
}

TEST(Args, MalformedValuesThrow) {
  const ArgParser a = make_args({"--n", "abc", "--f", "1.2.3", "--b", "maybe"});
  EXPECT_THROW(a.get_int("n", 0), InputError);
  EXPECT_THROW(a.get_double("f", 0), InputError);
  EXPECT_THROW(a.get_bool("b", false), InputError);
}

TEST(Args, UnusedFlagDetection) {
  const ArgParser a = make_args({"--used", "1", "--typo", "2"});
  a.get_int("used", 0);
  const auto unused = a.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Args, NegativeNumberValue) {
  const ArgParser a = make_args({"--offset", "-7"});
  EXPECT_EQ(a.get_int("offset", 0), -7);
}

// -------------------------------------------------------------- parallel

TEST(Parallel, ForCoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(500, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, MapPreservesOrder) {
  std::vector<int> inputs(100);
  std::iota(inputs.begin(), inputs.end(), 0);
  const auto out =
      parallel_map(inputs, [](int v) { return v * v; }, 8);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(Parallel, ZeroCountIsNoop) {
  bool touched = false;
  parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(Parallel, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ExceptionsPropagate) {
  EXPECT_THROW(
      parallel_for(64,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   },
                   4),
      std::runtime_error);
}

TEST(Parallel, DefaultThreadCountPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(Parallel, MapHandlesNonDefaultConstructibleResults) {
  struct Boxed {
    explicit Boxed(int v) : value(v) {}
    Boxed(Boxed&&) = default;
    Boxed& operator=(Boxed&&) = default;
    int value;
  };
  static_assert(!std::is_default_constructible_v<Boxed>);
  std::vector<int> inputs{1, 2, 3, 4};
  const auto out =
      parallel_map(inputs, [](int v) { return Boxed(v * 10); }, 2);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].value, static_cast<int>(i + 1) * 10);
}

TEST(Parallel, WorkerExceptionRethrownExactlyOnce) {
  // Several workers may throw; the caller must see exactly one exception
  // (the first), and a subsequent call must start clean.
  std::atomic<int> caught{0};
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      parallel_for(
          64,
          [](std::size_t i) {
            if (i % 7 == 0) throw std::runtime_error("boom " + std::to_string(i));
          },
          4);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_EQ(std::string(e.what()).rfind("boom", 0), 0u);
    }
  }
  EXPECT_EQ(caught.load(), 2);  // one per call, never zero or doubled
}

// ----------------------------------------------------------------- check

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(ETHSHARD_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsWithLocation) {
  try {
    ETHSHARD_CHECK(false);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"),
              std::string::npos);
  }
}

TEST(Check, MessageIsIncluded) {
  try {
    ETHSHARD_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"),
              std::string::npos);
  }
}

TEST(Check, InputCheckCarriesOnlyTheMessage) {
  EXPECT_NO_THROW(ETHSHARD_INPUT_CHECK(1 + 1 == 2, "unused"));
  try {
    ETHSHARD_INPUT_CHECK(1 + 1 == 3, "bad value " << 42);
    FAIL() << "expected throw";
  } catch (const InputError& e) {
    EXPECT_STREQ(e.what(), "bad value 42");  // no expression, no location
  }
}

}  // namespace
}  // namespace ethshard::util
