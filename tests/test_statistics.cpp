#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include <limits>
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

TEST(WindowStats, MatchesRunningStatsAndExactQuantileBitForBit) {
  // WindowStats is the order-statistic glue behind the monitor's
  // percentile path; its outputs must be the exact doubles of the
  // brute-force recompute.
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
