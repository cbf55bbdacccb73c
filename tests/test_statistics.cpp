#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "util/rng.hpp"

namespace vdc::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  std::mt19937 gen(7);
  std::normal_distribution<double> dist(3.0, 2.0);
  RunningStats a;
  RunningStats b;
  RunningStats whole;
  for (int i = 0; i < 500; ++i) {
    const double x = dist(gen);
    (i % 3 == 0 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(s.mean(), 1e9, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25 * 1000.0 / 999.0, 1e-6);
}

TEST(Quantile, ThrowsOnEmptyOrBadQ) {
  EXPECT_THROW(static_cast<void>(quantile({}, 0.5)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(quantile({1.0}, -0.1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(quantile({1.0}, 1.1)), std::invalid_argument);
}

TEST(Quantile, EndpointsAndMedian) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 9.0);
}

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, MatchesSortedIndexOnUniformGrid) {
  const double q = GetParam();
  std::vector<double> v(101);
  for (int i = 0; i <= 100; ++i) v[static_cast<std::size_t>(i)] = static_cast<double>(i);
  // With 101 equally spaced points, the type-7 quantile is exactly 100*q.
  EXPECT_NEAR(quantile(v, q), 100.0 * q, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0));

class P2Sweep : public ::testing::TestWithParam<double> {};

TEST_P(P2Sweep, ConvergesToExactQuantileOnUniform) {
  const double q = GetParam();
  P2Quantile p2(q);
  std::mt19937 gen(42);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    const double x = dist(gen);
    p2.add(x);
    all.push_back(x);
  }
  const double exact = quantile(all, q);
  EXPECT_NEAR(p2.value(), exact, 0.02) << "q=" << q;
}

TEST_P(P2Sweep, ConvergesOnExponential) {
  const double q = GetParam();
  if (q == 0.0 || q == 1.0) GTEST_SKIP() << "degenerate for heavy tails";
  P2Quantile p2(q);
  std::mt19937 gen(43);
  std::exponential_distribution<double> dist(1.0);
  std::vector<double> all;
  for (int i = 0; i < 30000; ++i) {
    const double x = dist(gen);
    p2.add(x);
    all.push_back(x);
  }
  const double exact = quantile(all, q);
  EXPECT_NEAR(p2.value(), exact, 0.05 * std::max(1.0, exact)) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2Sweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 0.95));

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile p2(0.5);
  p2.add(3.0);
  EXPECT_DOUBLE_EQ(p2.value(), 3.0);
  p2.add(1.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.0);
  p2.add(2.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // clamped into first bin
  h.add(0.5);
  h.add(9.99);
  h.add(100.0);  // clamped into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

// Regression: Histogram::add computed the bin index with a float->size_t
// cast BEFORE clamping, which is undefined behaviour for NaN, ±infinity and
// anything beyond ±2^63. Finite out-of-range values must clamp; NaN belongs
// to no bin and is counted separately.
TEST(Histogram, ExtremeAndNanSamplesAreSafe) {
  Histogram h(0.0, 10.0, 5);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(1e300);
  h.add(-1e300);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.invalid(), 0u);

  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.invalid(), 2u);
  EXPECT_EQ(h.total(), 4u);  // NaN never binned, never part of total
}

TEST(P2Quantile, EmptyEstimatorReportsZero) {
  const P2Quantile p2(0.9);
  EXPECT_DOUBLE_EQ(p2.value(), 0.0);
}

TEST(P2Quantile, SingleSampleIsExact) {
  P2Quantile p2(0.9);
  p2.add(2.25);
  EXPECT_DOUBLE_EQ(p2.value(), 2.25);
}

TEST(WindowStats, MatchesRunningStatsAndExactQuantileBitForBit) {
  // WindowStats is the shared order-statistic glue behind both the
  // monitor's percentile path and the tsdb's tier rollups; its outputs
  // must be the exact doubles of the brute-force recompute.
  WindowStats w;
  RunningStats rs;
  std::vector<double> samples;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    w.add(x);
    rs.add(x);
    samples.push_back(x);
    EXPECT_EQ(w.mean(), rs.mean());
    EXPECT_EQ(w.min(), rs.min());
    EXPECT_EQ(w.max(), rs.max());
  }
  EXPECT_EQ(w.count(), 500u);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(w.quantile(q), quantile(samples, q));
  }
}

TEST(WindowStats, RejectsNaNWithoutMutating) {
  WindowStats w;
  w.add(1.0);
  EXPECT_THROW(w.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_EQ(w.mean(), 1.0);
}

TEST(WindowStats, ResetEmptiesTheWindow) {
  WindowStats w;
  w.add(2.0);
  w.add(4.0);
  w.reset();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.count(), 0u);
  w.add(7.0);
  EXPECT_EQ(w.quantile(0.9), 7.0);
}

}  // namespace
}  // namespace vdc::util
