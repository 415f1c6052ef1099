#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include "util/clock.hpp"
#include "util/format.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace eyeball::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 3.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng{13};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{17};
  bool saw_lo = false;
  bool saw_hi = false;
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

TEST(Rng, NormalMomentsMatch) {
  Rng rng{19};
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{23};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng{29};
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng{31};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, PoissonSmallLambdaMean) {
  Rng rng{37};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(static_cast<double>(rng.poisson(3.0)));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
}

TEST(Rng, PoissonLargeLambdaMean) {
  Rng rng{41};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(static_cast<double>(rng.poisson(200.0)));
  }
  EXPECT_NEAR(stats.mean(), 200.0, 1.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng{43};
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng root{47};
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BernoulliProbability) {
  Rng rng{53};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Mix64, DistinctInputsDistinctOutputs) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 50; ++a) {
    for (std::uint64_t b = 0; b < 50; ++b) seen.insert(mix64(a, b));
  }
  EXPECT_EQ(seen.size(), 2500u);
}

TEST(HashString, StableAndDiscriminating) {
  EXPECT_EQ(hash_string("Milan"), hash_string("Milan"));
  EXPECT_NE(hash_string("Milan"), hash_string("Rome"));
  EXPECT_NE(hash_string(""), hash_string(" "));
}

TEST(ZipfSampler, RankZeroMostLikely) {
  ZipfSampler zipf{100, 1.0};
  EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
  EXPECT_GT(zipf.pmf(1), zipf.pmf(10));
}

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler zipf{50, 1.2};
  double total = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  ZipfSampler zipf{10, 1.0};
  Rng rng{59};
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k), 0.01);
  }
}

TEST(ZipfSampler, RejectsZeroSize) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

TEST(DiscreteSampler, MatchesWeights) {
  const std::vector<double> weights{1.0, 3.0, 6.0};
  DiscreteSampler sampler{weights};
  EXPECT_NEAR(sampler.probability(0), 0.1, 1e-12);
  EXPECT_NEAR(sampler.probability(1), 0.3, 1e-12);
  EXPECT_NEAR(sampler.probability(2), 0.6, 1e-12);
}

TEST(DiscreteSampler, RejectsBadWeights) {
  const std::vector<double> empty;
  EXPECT_THROW(DiscreteSampler{std::span<const double>{empty}}, std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(DiscreteSampler{std::span<const double>{negative}}, std::invalid_argument);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(DiscreteSampler{std::span<const double>{zeros}}, std::invalid_argument);
}

TEST(DiscreteSampler, ZeroWeightNeverSampled) {
  const std::vector<double> weights{0.0, 1.0};
  DiscreteSampler sampler{weights};
  Rng rng{61};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.sample(rng), 1u);
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 15.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i * 0.7) * 10;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(5.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Percentile, KnownValues) {
  const std::vector<double> values{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(values, 25), 20);
}

TEST(Percentile, InterpolatesBetweenValues) {
  const std::vector<double> values{0, 10};
  EXPECT_DOUBLE_EQ(percentile(values, 50), 5);
  EXPECT_DOUBLE_EQ(percentile(values, 90), 9);
}

TEST(Percentile, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)percentile(one, -1), std::invalid_argument);
  EXPECT_THROW((void)percentile(one, 101), std::invalid_argument);
}

TEST(Percentile, RejectsNanQuantile) {
  // Regression: NaN compares false on both sides of the old range check, so
  // it reached the float->int rank cast — undefined behaviour under UBSan.
  const std::vector<double> one{1.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)percentile(one, nan), std::invalid_argument);
  std::vector<double> scratch{2.0, 1.0};
  EXPECT_THROW((void)percentile_in_place(scratch, nan), std::invalid_argument);
}

TEST(EmpiricalCdf, QuantileRejectsNan) {
  const EmpiricalCdf cdf{{1.0, 2.0, 3.0}};
  EXPECT_THROW((void)cdf.quantile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

/// The bit patterns of `values`, sorted: equal iff the two samples are
/// permutations of each other, telling -0.0 from +0.0.
std::vector<std::uint64_t> sorted_bits(std::span<const double> values) {
  std::vector<std::uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  std::ranges::sort(bits);
  return bits;
}

TEST(Percentile, InPlaceMatchesCopyingVariantBitForBit) {
  const std::vector<double> values{7, 3, 9, 1, 5, 5, 2};
  for (const double q : {0.0, 10.0, 50.0, 90.0, 100.0}) {
    std::vector<double> scratch = values;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile_in_place(scratch, q)),
              std::bit_cast<std::uint64_t>(percentile(values, q)))
        << q;
    // Reordered, not sorted: only the multiset is promised.
    EXPECT_EQ(sorted_bits(scratch), sorted_bits(values)) << q;
  }
  std::vector<double> empty;
  EXPECT_THROW((void)percentile_in_place(empty, 50), std::invalid_argument);
  std::vector<double> one{1.0};
  EXPECT_THROW((void)percentile_in_place(one, 101), std::invalid_argument);
}

/// The definition selection replaced: sort a copy, then interpolate
/// between the order statistics at floor(rank) and the one after it.
double sort_oracle_percentile(std::vector<double> values, double q) {
  std::ranges::sort(values);
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

TEST(Percentile, SelectionMatchesSortOracleBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Both zeros and both infinities, repeated values, a denormal.
  const std::vector<double> pool{-0.0, 0.0, kInf, -kInf, 1.5, -2.25, 80.0,
                                 std::nextafter(80.0, 100.0), 4.9e-324, 1e9};
  Rng rng{2026};
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(2000);
    // Even trials draw only from the pool (heavy ties); odd ones mostly
    // from a continuum, with pool values mixed in.
    std::vector<double> values(n);
    for (double& v : values) {
      v = trial % 2 == 0 || rng.bernoulli(0.2) ? pool[rng.uniform_index(pool.size())]
                                               : rng.uniform(-1000.0, 1000.0);
    }
    const EmpiricalCdf cdf{values};
    std::vector<double> quantiles{0.0, 100.0, 50.0, 90.0};
    for (int k = 0; k < 4; ++k) {
      // Exactly rank r: frac is 0 there, so vhi meets a zero factor.
      const auto r = static_cast<double>(rng.uniform_index(n));
      quantiles.push_back(n == 1 ? 0.0 : r * 100.0 / static_cast<double>(n - 1));
      quantiles.push_back(rng.uniform(0.0, 100.0));
    }
    for (const double q : quantiles) {
      const std::uint64_t expected =
          std::bit_cast<std::uint64_t>(sort_oracle_percentile(values, q));
      std::vector<double> scratch = values;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile_in_place(scratch, q)), expected)
          << "trial " << trial << " n=" << n << " q=" << q;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(values, q)), expected)
          << "trial " << trial << " n=" << n << " q=" << q;
      EXPECT_EQ(sorted_bits(scratch), sorted_bits(values))
          << "trial " << trial << ": scratch is not a permutation of the input";
      // quantile() reads its already-sorted sample at percentile q' * 100.
      const double fraction = q / 100.0;
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(cdf.quantile(fraction)),
          std::bit_cast<std::uint64_t>(sort_oracle_percentile(values, fraction * 100.0)))
          << "trial " << trial << " q=" << q;
    }
  }
}

TEST(MeanMedian, Basic) {
  const std::vector<double> values{1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(mean(values), 22.0);
  EXPECT_DOUBLE_EQ(median(values), 3.0);
}

TEST(EmpiricalCdf, MonotoneAndBounded) {
  EmpiricalCdf cdf{{3.0, 1.0, 2.0, 2.0}};
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInvertsCdf) {
  std::vector<double> values;
  for (int i = 0; i <= 100; ++i) values.push_back(i);
  EmpiricalCdf cdf{std::move(values)};
  EXPECT_NEAR(cdf.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(cdf.quantile(0.9), 90.0, 1.0);
}

TEST(EmpiricalCdf, TraceIsNondecreasing) {
  EmpiricalCdf cdf{{1.0, 5.0, 9.0, 9.5}};
  const auto trace = cdf.trace(0.0, 10.0, 21);
  ASSERT_EQ(trace.size(), 21u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].cumulative_fraction, trace[i - 1].cumulative_fraction);
  }
  EXPECT_DOUBLE_EQ(trace.front().x, 0.0);
  EXPECT_DOUBLE_EQ(trace.back().x, 10.0);
}

TEST(EmpiricalCdf, RejectsEmpty) {
  EXPECT_THROW(EmpiricalCdf{std::vector<double>{}}, std::invalid_argument);
}

TEST(Histogram, BinningBasics) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(9.5);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_low(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_high(3), 4.0);
}

// Regression: out-of-range samples used to be clamped into the edge bins,
// silently inflating the tail counts of the validation CDFs.  They must be
// tallied separately instead.
TEST(Histogram, OutOfRangeCountedSeparatelyNotClamped) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);      // below lo: underflow, not bin 0
  h.add(100.0, 2.0);  // above hi: overflow, not bin 9
  h.add(10.0);        // hi itself is outside [lo, hi)
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 3.0);
  EXPECT_DOUBLE_EQ(h.in_range(), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 6.0);
}

TEST(Histogram, NanGoesToUnderflowNotABin) {
  Histogram h{0.0, 10.0, 4};
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.in_range(), 0.0);
  for (std::size_t b = 0; b < h.bin_count(); ++b) EXPECT_DOUBLE_EQ(h.count(b), 0.0);
}

TEST(Histogram, RejectsDegenerate) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
}

TEST(TextTable, RendersAlignedCells) {
  TextTable table{{"Region", "Count"}};
  table.add_row({"EU", "12"});
  table.add_row({"NA", "345"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Region"), std::string::npos);
  EXPECT_NE(out.find("345"), std::string::npos);
  EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable table{{"a", "b"}};
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiChart, RendersSeries) {
  AsciiChart chart{40, 10};
  chart.add_series("line", {0, 1, 2, 3}, {0, 10, 20, 30});
  const std::string out = chart.render();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("line"), std::string::npos);
}

TEST(AsciiChart, RejectsEmptySeries) {
  AsciiChart chart{40, 10};
  EXPECT_THROW(chart.add_series("x", {}, {}), std::invalid_argument);
  EXPECT_THROW(chart.add_series("x", {1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Format, Fixed) {
  EXPECT_EQ(fixed(0.12999, 3), "0.130");
  EXPECT_EQ(fixed(-1.5, 1), "-1.5");
}

TEST(Format, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(18004123), "18,004,123");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(Format, InThousands) {
  EXPECT_EQ(in_thousands(18004000), "18004");
  EXPECT_EQ(in_thousands(1499), "1");
  EXPECT_EQ(in_thousands(1500), "2");
}

TEST(Format, Percent) {
  EXPECT_EQ(percent(0.415), "41.5%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

// ---- Clock: the time seam the retry policy is deterministic through. ----

TEST(FakeClock, StartsAtZeroAndAdvancesOnlyByExplicitSteps) {
  FakeClock clock;
  EXPECT_EQ(clock.now(), std::chrono::nanoseconds::zero());
  clock.sleep_for(std::chrono::milliseconds{10});
  EXPECT_EQ(clock.now(), std::chrono::milliseconds{10});
  clock.advance(std::chrono::milliseconds{5});  // external delay, not a sleep
  EXPECT_EQ(clock.now(), std::chrono::milliseconds{15});
  // Non-positive sleeps are ignored entirely: no time, no schedule entry.
  clock.sleep_for(std::chrono::nanoseconds{-1});
  clock.sleep_for(std::chrono::nanoseconds::zero());
  EXPECT_EQ(clock.now(), std::chrono::milliseconds{15});
  ASSERT_EQ(clock.sleeps().size(), 1u);
  EXPECT_EQ(clock.sleeps()[0], std::chrono::milliseconds{10});
  clock.clear_sleeps();
  EXPECT_TRUE(clock.sleeps().empty());
  EXPECT_EQ(clock.now(), std::chrono::milliseconds{15});  // time survives
}

TEST(MonotonicClock, NeverDecreases) {
  Clock& clock = monotonic_clock();
  const std::chrono::nanoseconds a = clock.now();
  const std::chrono::nanoseconds b = clock.now();
  EXPECT_LE(a.count(), b.count());
}

// ---- RetryPolicy: deterministic supervised retries. ----

TEST(RetryPolicy, BackoffScheduleIsExponentialAndSaturates) {
  RetryOptions options;
  options.initial_backoff = std::chrono::milliseconds{10};
  options.multiplier = 2.0;
  options.max_backoff = std::chrono::milliseconds{35};
  // Attempt 0 runs immediately; each later attempt doubles, clamped.
  EXPECT_EQ(RetryPolicy::backoff_for(options, 0), std::chrono::nanoseconds::zero());
  EXPECT_EQ(RetryPolicy::backoff_for(options, 1), std::chrono::milliseconds{10});
  EXPECT_EQ(RetryPolicy::backoff_for(options, 2), std::chrono::milliseconds{20});
  EXPECT_EQ(RetryPolicy::backoff_for(options, 3), std::chrono::milliseconds{35});
  EXPECT_EQ(RetryPolicy::backoff_for(options, 50), std::chrono::milliseconds{35});
  // A sub-1.0 multiplier cannot shrink the schedule (clamped to constant).
  options.multiplier = 0.5;
  EXPECT_EQ(RetryPolicy::backoff_for(options, 3), std::chrono::milliseconds{10});
}

TEST(RetryPolicy, RetriesTransientIoErrorsAndRecordsEveryAttempt) {
  FakeClock clock;
  RetryOptions options;
  options.max_attempts = 4;
  options.initial_backoff = std::chrono::milliseconds{10};
  const RetryPolicy policy{options, clock};
  int calls = 0;
  const RetryResult result = policy.run([&calls] {
    ++calls;
    return calls < 3 ? Status::io_error("transient") : Status{};
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(result.attempts_made(), 3u);
  EXPECT_EQ(result.attempts[0].status.code(), StatusCode::kIoError);
  EXPECT_EQ(result.attempts[0].backoff_before, std::chrono::nanoseconds::zero());
  EXPECT_EQ(result.attempts[1].backoff_before, std::chrono::milliseconds{10});
  EXPECT_EQ(result.attempts[2].backoff_before, std::chrono::milliseconds{20});
  EXPECT_TRUE(result.attempts[2].status.ok());
  // The clock recorded exactly the non-zero backoffs, in order.
  ASSERT_EQ(clock.sleeps().size(), 2u);
  EXPECT_EQ(clock.sleeps()[0], std::chrono::milliseconds{10});
  EXPECT_EQ(clock.sleeps()[1], std::chrono::milliseconds{20});
}

TEST(RetryPolicy, NonRetriableVerdictsFailImmediately) {
  FakeClock clock;
  const RetryPolicy policy{RetryOptions{}, clock};
  int calls = 0;
  const RetryResult result = policy.run([&calls] {
    ++calls;
    return Status::corruption("bytes are lying");
  });
  EXPECT_EQ(result.status.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1);  // corruption does not heal with retries
  EXPECT_EQ(result.attempts_made(), 1u);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(RetryPolicy, ExhaustionReportsTheLastErrorWithFullHistory) {
  FakeClock clock;
  RetryOptions options;
  options.max_attempts = 3;
  options.initial_backoff = std::chrono::milliseconds{1};
  const RetryPolicy policy{options, clock};
  const RetryResult result =
      policy.run([] { return Status::io_error("disk still full"); });
  EXPECT_EQ(result.status.code(), StatusCode::kIoError);
  EXPECT_EQ(result.attempts_made(), 3u);
  for (const RetryAttempt& attempt : result.attempts) {
    EXPECT_EQ(attempt.status.code(), StatusCode::kIoError);
  }
  // max_attempts == 0 is treated as "at least one attempt".
  const RetryPolicy zero{RetryOptions{.max_attempts = 0}, clock};
  EXPECT_EQ(zero.run([] { return Status{}; }).attempts_made(), 1u);
}

TEST(RetryPolicy, ScheduleIsByteReproducibleAcrossRuns) {
  RetryOptions options;
  options.max_attempts = 5;
  options.initial_backoff = std::chrono::milliseconds{7};
  options.multiplier = 3.0;
  options.max_backoff = std::chrono::milliseconds{100};
  const auto run_once = [&options] {
    FakeClock clock;
    const RetryPolicy policy{options, clock};
    static_cast<void>(
        policy.run([] { return Status::io_error("always failing"); }));
    return clock.sleeps();
  };
  const std::vector<std::chrono::nanoseconds> first = run_once();
  const std::vector<std::chrono::nanoseconds> second = run_once();
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0], std::chrono::milliseconds{7});
  EXPECT_EQ(first[1], std::chrono::milliseconds{21});
  EXPECT_EQ(first[2], std::chrono::milliseconds{63});
  EXPECT_EQ(first[3], std::chrono::milliseconds{100});
}

}  // namespace
}  // namespace eyeball::util
