#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace vdc::trace {
namespace {

TEST(Trace, ConstructionValidation) {
  EXPECT_THROW(UtilizationTrace(0, 10), std::invalid_argument);
  EXPECT_THROW(UtilizationTrace(10, 0), std::invalid_argument);
  EXPECT_THROW(UtilizationTrace(1, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(UtilizationTrace(1, 1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(UtilizationTrace(1, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Trace, PaperConstants) {
  EXPECT_EQ(kPaperServerCount, 5415u);
  EXPECT_EQ(kPaperSampleCount, 672u);  // 7 days x 96 quarter-hours
  EXPECT_DOUBLE_EQ(kPaperSamplePeriodS, 900.0);
}

TEST(Trace, SetAndGet) {
  UtilizationTrace t(2, 3, 900.0);
  t.set(0, 1, 0.5);
  t.set(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 0.0);
  EXPECT_THROW(static_cast<void>(t.at(2, 0)), std::out_of_range);
  EXPECT_THROW(t.set(0, 3, 0.5), std::out_of_range);
  EXPECT_THROW(t.set(0, 0, 1.5), std::invalid_argument);
  EXPECT_THROW(t.set(0, 0, -0.1), std::invalid_argument);
  EXPECT_THROW(t.set(0, 0, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(t.set(0, 0, std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 0.0);  // rejected values leave the cell alone
}

TEST(Trace, SeriesIsContiguousView) {
  UtilizationTrace t(2, 3);
  t.set(1, 0, 0.1);
  t.set(1, 1, 0.2);
  t.set(1, 2, 0.3);
  const auto s = t.series(1);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 0.1);
  EXPECT_DOUBLE_EQ(s[2], 0.3);
  EXPECT_THROW(static_cast<void>(t.series(5)), std::out_of_range);
}

TEST(Trace, Aggregates) {
  UtilizationTrace t(2, 2);
  t.set(0, 0, 0.2);
  t.set(0, 1, 0.4);
  t.set(1, 0, 0.6);
  t.set(1, 1, 0.8);
  EXPECT_DOUBLE_EQ(t.mean_at(0), 0.4);
  EXPECT_DOUBLE_EQ(t.mean_at(1), 0.6);
  EXPECT_DOUBLE_EQ(t.global_mean(), 0.5);
  EXPECT_DOUBLE_EQ(t.duration_s(), 1800.0);
}

}  // namespace
}  // namespace vdc::trace
