#include "app/monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace vdc::app {
namespace {

TEST(Monitor, RejectsBadQuantile) {
  EXPECT_THROW(ResponseTimeMonitor(-0.1), std::invalid_argument);
  EXPECT_THROW(ResponseTimeMonitor(1.5), std::invalid_argument);
}

TEST(Monitor, EmptyHarvestIsNullopt) {
  ResponseTimeMonitor m;
  EXPECT_FALSE(m.harvest().has_value());
}

TEST(Monitor, HarvestReportsPeriodStats) {
  ResponseTimeMonitor m(0.5);
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) m.record(x);
  const auto stats = m.harvest();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->count, 5u);
  EXPECT_DOUBLE_EQ(stats->mean, 3.0);
  EXPECT_DOUBLE_EQ(stats->quantile, 3.0);
  EXPECT_DOUBLE_EQ(stats->min, 1.0);
  EXPECT_DOUBLE_EQ(stats->max, 5.0);
}

TEST(Monitor, HarvestClearsPeriodBuffer) {
  ResponseTimeMonitor m;
  m.record(1.0);
  EXPECT_EQ(m.pending_samples(), 1u);
  (void)m.harvest();
  EXPECT_EQ(m.pending_samples(), 0u);
  EXPECT_FALSE(m.harvest().has_value());
}

TEST(Monitor, NinetiethPercentileDefault) {
  ResponseTimeMonitor m;  // q = 0.9
  for (int i = 1; i <= 101; ++i) m.record(static_cast<double>(i));
  const auto stats = m.harvest();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NEAR(stats->quantile, 91.0, 1e-9);
}

TEST(Monitor, ControlledValueFollowsMetricSelection) {
  const auto fill = [](ResponseTimeMonitor& m) {
    for (const double x : {1.0, 2.0, 3.0, 4.0, 10.0}) m.record(x);
  };
  ResponseTimeMonitor p90(0.9, SlaMetric::kQuantile);
  ResponseTimeMonitor mean(0.9, SlaMetric::kMean);
  ResponseTimeMonitor max(0.9, SlaMetric::kMax);
  fill(p90);
  fill(mean);
  fill(max);
  const auto sp = p90.harvest();
  const auto sm = mean.harvest();
  const auto sx = max.harvest();
  ASSERT_TRUE(sp && sm && sx);
  EXPECT_DOUBLE_EQ(sp->controlled, sp->quantile);
  EXPECT_DOUBLE_EQ(sm->controlled, 4.0);   // mean of the five samples
  EXPECT_DOUBLE_EQ(sx->controlled, 10.0);  // maximum
  EXPECT_EQ(mean.metric(), SlaMetric::kMean);
  EXPECT_DOUBLE_EQ(p90.quantile_level(), 0.9);
}

TEST(Monitor, DefaultControlledIsNinetiethPercentile) {
  ResponseTimeMonitor m;
  for (int i = 1; i <= 101; ++i) m.record(static_cast<double>(i));
  const auto stats = m.harvest();
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->controlled, stats->quantile);
}

// ---- degraded sensor pipeline (fault injection) -----------------------------

TEST(Monitor, AllSamplesDroppedStillYieldsAPeriod) {
  // "Every sample lost" and "no requests arrived" must be distinguishable:
  // the former harvests a zero-count period with the drop tally, the
  // latter harvests nothing at all.
  ResponseTimeMonitor m;
  m.note_dropped();
  m.note_dropped();
  m.note_dropped();
  const auto stats = m.harvest();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->count, 0u);
  EXPECT_EQ(stats->dropped, 3u);
  EXPECT_FALSE(stats->stale);
  EXPECT_DOUBLE_EQ(stats->mean, 0.0);
  EXPECT_DOUBLE_EQ(stats->quantile, 0.0);
}

TEST(Monitor, DropTallyRidesAlongWithSurvivingSamples) {
  ResponseTimeMonitor m(0.5);
  m.record(2.0);
  m.note_dropped();
  m.record(4.0);
  const auto stats = m.harvest();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->count, 2u);
  EXPECT_EQ(stats->dropped, 1u);
  EXPECT_DOUBLE_EQ(stats->mean, 3.0);
}

TEST(Monitor, DropTallyResetsEachPeriod) {
  ResponseTimeMonitor m;
  m.note_dropped();
  ASSERT_TRUE(m.harvest().has_value());
  EXPECT_FALSE(m.harvest().has_value());  // clean period: nothing to report
  m.record(1.0);
  const auto stats = m.harvest();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->dropped, 0u);
}

TEST(Monitor, StaleFlagSurfacesAndClears) {
  ResponseTimeMonitor m;
  m.record(1.0);
  m.mark_stale();
  const auto stats = m.harvest();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->stale);
  EXPECT_EQ(stats->count, 1u);  // the numbers are there, just untrustworthy
  m.record(1.0);
  const auto next = m.harvest();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->stale);
}

TEST(Monitor, StaleWithNoSamplesStillYieldsAPeriod) {
  ResponseTimeMonitor m;
  m.mark_stale();
  const auto stats = m.harvest();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->stale);
  EXPECT_EQ(stats->count, 0u);
}

TEST(Monitor, RejectsNaNSamples) {
  ResponseTimeMonitor m;
  m.record(1.0);
  EXPECT_THROW(m.record(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_EQ(m.pending_samples(), 1u);  // rejected sample left no trace
}

TEST(Monitor, PercentilePathBitIdenticalToBruteForce) {
  // The monitor's per-period statistics must be EXACTLY the doubles a
  // brute-force recompute over the period's samples gives: util::quantile
  // for the percentile, util::RunningStats in arrival order for the
  // moments. So the controller's feedback agrees to the last bit with any
  // offline analysis of the same samples.
  ResponseTimeMonitor m(0.9);
  util::Rng rng(99);
  for (int period = 0; period < 50; ++period) {
    const std::int64_t n = rng.uniform_int(1, 40);
    std::vector<double> samples;
    util::RunningStats moments;
    for (std::int64_t k = 0; k < n; ++k) {
      const double rt = rng.uniform(0.01, 2.5);
      m.record(rt);
      samples.push_back(rt);
      moments.add(rt);
    }
    const auto stats = m.harvest();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->count, samples.size()) << "period " << period;
    EXPECT_EQ(stats->quantile, util::quantile(samples, 0.9)) << "period " << period;
    EXPECT_EQ(stats->mean, moments.mean()) << "period " << period;
    EXPECT_EQ(stats->min, moments.min()) << "period " << period;
    EXPECT_EQ(stats->max, moments.max()) << "period " << period;
  }
}

}  // namespace
}  // namespace vdc::app
