// Unit tests of the fault-injection layer itself: plan validation, the
// zero-cost disabled path (no RNG draws, ever), per-kind determinism (same
// plan + seed => identical decision sequences), window targeting, and the
// counters/event log the chaos scenarios assert against.
#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "fault/plan.hpp"

namespace vdc::fault {
namespace {

TEST(FaultPlan, EmptyPlanIsDisabled) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  FaultInjector injector{plan};
  EXPECT_FALSE(injector.enabled());
}

TEST(FaultPlan, BuildersChainAndPopulateWindows) {
  const FaultPlan plan = FaultPlan{}
                             .migration_aborts(100.0, 200.0, 0.5)
                             .migration_slowdown(0.0, 50.0, 3.0)
                             .wake_failures(10.0, 20.0, 1.0, 2)
                             .server_crash(1, 300.0, 400.0)
                             .sensor_dropout(0.0, 60.0, 0.25, 0)
                             .sensor_spikes(0.0, 60.0, 10.0, 0.1)
                             .sensor_stale(90.0, 120.0, 1)
                             .dvfs_pin(0, 1.0, 5.0, 15.0);
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.windows.size(), 8u);
  EXPECT_EQ(plan.windows[0].kind, FaultKind::kMigrationAbort);
  EXPECT_EQ(plan.windows[3].kind, FaultKind::kServerCrash);
  EXPECT_EQ(plan.windows[3].target, 1u);
  EXPECT_EQ(plan.windows[7].kind, FaultKind::kDvfsPin);
  EXPECT_DOUBLE_EQ(plan.windows[7].magnitude, 1.0);
}

TEST(FaultWindow, CoversRespectsTimeSpanAndTarget) {
  FaultWindow w;
  w.start_s = 10.0;
  w.end_s = 20.0;
  w.target = 3;
  EXPECT_TRUE(w.covers(10.0, 3));
  EXPECT_TRUE(w.covers(19.999, 3));
  EXPECT_FALSE(w.covers(20.0, 3));  // half-open interval
  EXPECT_FALSE(w.covers(9.999, 3));
  EXPECT_FALSE(w.covers(15.0, 4));
  w.target = kAnyTarget;
  EXPECT_TRUE(w.covers(15.0, 4));
}

TEST(FaultPlan, InjectorRejectsMalformedWindows) {
  {
    FaultPlan p;
    p.migration_aborts(50.0, 50.0, 1.0);  // empty interval
    EXPECT_THROW(FaultInjector{p}, std::invalid_argument);
  }
  {
    FaultPlan p;
    p.migration_aborts(0.0, 10.0, 1.5);  // probability > 1
    EXPECT_THROW(FaultInjector{p}, std::invalid_argument);
  }
  {
    FaultPlan p;
    p.migration_slowdown(0.0, 10.0, 0.5);  // would speed migrations up
    EXPECT_THROW(FaultInjector{p}, std::invalid_argument);
  }
  {
    FaultPlan p;
    p.dvfs_pin(kAnyTarget, 1.0, 0.0, 10.0);  // pin needs a concrete server
    EXPECT_THROW(FaultInjector{p}, std::invalid_argument);
  }
  {
    FaultPlan p;
    p.sensor_spikes(0.0, 10.0, -2.0, 1.0);  // negative multiplier
    EXPECT_THROW(FaultInjector{p}, std::invalid_argument);
  }
  // A crash or rack failure must start at a concrete time: a NaN start fails
  // `start >= 0`, a +inf start leaves the window empty.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double start : {kNaN, kInf}) {
    {
      FaultPlan p;
      p.server_crash(1, start, kInf);
      EXPECT_THROW(FaultInjector{p}, std::invalid_argument) << "crash start " << start;
    }
    {
      FaultPlan p;
      p.rack_failure(0, start, kInf);
      EXPECT_THROW(FaultInjector{p}, std::invalid_argument) << "rack failure start " << start;
    }
  }
}

// ---- plan validation, window by window --------------------------------------
// The injector validates every window at construction with
// std::invalid_argument, in every build (checks on or off).

FaultInjector injector_for(const FaultWindow& w) {
  FaultPlan plan;
  plan.windows.push_back(w);
  return FaultInjector{plan};
}

TEST(FaultAudit, AcceptsWellFormedWindows) {
  FaultPlan plan;
  plan.migration_aborts(0.0, 100.0, 0.5);
  plan.server_crash(2, 10.0, 20.0);
  plan.dvfs_pin(0, 1.2, 0.0, 50.0);
  EXPECT_NO_THROW(FaultInjector{plan});
}

TEST(FaultAudit, RejectsInvertedOrEmptyWindows) {
  FaultWindow w;
  w.start_s = 10.0;
  w.end_s = 10.0;
  EXPECT_THROW(injector_for(w), std::invalid_argument);
  w.end_s = 5.0;
  EXPECT_THROW(injector_for(w), std::invalid_argument);
  w.start_s = -1.0;
  w.end_s = 5.0;
  EXPECT_THROW(injector_for(w), std::invalid_argument);
}

TEST(FaultAudit, RejectsProbabilityOutsideUnitInterval) {
  FaultWindow w;
  w.end_s = 10.0;
  w.probability = -0.1;
  EXPECT_THROW(injector_for(w), std::invalid_argument);
  w.probability = 1.5;
  EXPECT_THROW(injector_for(w), std::invalid_argument);
}

TEST(FaultAudit, RejectsKindSpecificMagnitudeAbuse) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    FaultWindow w;  // a slowdown that speeds migrations up
    w.kind = FaultKind::kMigrationSlowdown;
    w.end_s = 10.0;
    w.magnitude = 0.5;
    EXPECT_THROW(injector_for(w), std::invalid_argument);
  }
  {
    FaultWindow w;  // NaN spike multiplier
    w.kind = FaultKind::kSensorSpike;
    w.end_s = 10.0;
    w.magnitude = nan;
    EXPECT_THROW(injector_for(w), std::invalid_argument);
  }
  {
    FaultWindow w;  // DVFS pin without a concrete server
    w.kind = FaultKind::kDvfsPin;
    w.end_s = 10.0;
    w.magnitude = 1.0;
    w.target = kAnyTarget;
    EXPECT_THROW(injector_for(w), std::invalid_argument);
  }
  {
    FaultWindow w;  // crashing "any server" is not a thing
    w.kind = FaultKind::kServerCrash;
    w.end_s = 10.0;
    w.target = kAnyTarget;
    EXPECT_THROW(injector_for(w), std::invalid_argument);
  }
}

// ---- the zero-cost idle guarantee ------------------------------------------

TEST(FaultInjector, DisabledInjectorNeverDrawsAndNeverFires) {
  FaultInjector injector;  // default = disabled
  for (double t = 0.0; t < 1000.0; t += 13.0) {
    EXPECT_FALSE(injector.migration_aborts(t, 0));
    EXPECT_DOUBLE_EQ(injector.migration_slowdown(t, 0), 1.0);
    EXPECT_FALSE(injector.wake_fails(t, 1));
    EXPECT_FALSE(injector.dvfs_pin_ghz(t, 0).has_value());
    EXPECT_FALSE(injector.sensor_drops(t, 0));
    EXPECT_DOUBLE_EQ(injector.sensor_spike(t, 0), 1.0);
    EXPECT_FALSE(injector.sensor_stale(t, 0));
  }
  EXPECT_EQ(injector.rng_draws(), 0u);
  EXPECT_EQ(injector.counters().total(), 0u);
  EXPECT_TRUE(injector.events().empty());
  EXPECT_TRUE(injector.crash_windows().empty());
}

TEST(FaultInjector, QueriesOutsideEveryWindowDoNotTouchTheRng) {
  FaultPlan plan;
  plan.migration_aborts(100.0, 200.0, 0.5);
  plan.sensor_dropout(100.0, 200.0, 0.5);
  FaultInjector injector{plan};
  for (double t = 0.0; t < 100.0; t += 7.0) {
    EXPECT_FALSE(injector.migration_aborts(t, 0));
    EXPECT_FALSE(injector.sensor_drops(t, 0));
  }
  EXPECT_EQ(injector.rng_draws(), 0u) << "idle windows must not consume randomness";
}

TEST(FaultInjector, CertainWindowsSkipTheBernoulliDraw) {
  FaultPlan plan;
  plan.migration_aborts(0.0, 100.0, 1.0);  // p = 1: no coin flip needed
  FaultInjector injector{plan};
  EXPECT_TRUE(injector.migration_aborts(50.0, 0));
  EXPECT_TRUE(injector.migration_aborts(60.0, 7));
  EXPECT_EQ(injector.rng_draws(), 0u);
  EXPECT_EQ(injector.counters().migration_aborts, 2u);
}

// ---- per-kind determinism ---------------------------------------------------

TEST(FaultInjector, ProbabilisticDecisionsReplayExactlyUnderTheSameSeed) {
  const auto chaos = [] {
    FaultPlan plan;
    plan.seed = 42;
    plan.migration_aborts(0.0, 1000.0, 0.3);
    plan.sensor_dropout(0.0, 1000.0, 0.4);
    plan.sensor_spikes(0.0, 1000.0, 8.0, 0.2);
    return plan;
  };
  FaultInjector a{chaos()};
  FaultInjector b{chaos()};
  for (double t = 0.0; t < 1000.0; t += 3.0) {
    EXPECT_EQ(a.migration_aborts(t, 0), b.migration_aborts(t, 0)) << "t=" << t;
    EXPECT_EQ(a.sensor_drops(t, 1), b.sensor_drops(t, 1)) << "t=" << t;
    EXPECT_DOUBLE_EQ(a.sensor_spike(t, 2), b.sensor_spike(t, 2)) << "t=" << t;
  }
  EXPECT_EQ(a.rng_draws(), b.rng_draws());
  EXPECT_GT(a.rng_draws(), 0u);
  EXPECT_EQ(a.counters().migration_aborts, b.counters().migration_aborts);
  EXPECT_EQ(a.counters().sensor_drops, b.counters().sensor_drops);
  EXPECT_EQ(a.counters().sensor_spikes, b.counters().sensor_spikes);
}

TEST(FaultInjector, DifferentSeedsGiveDifferentDecisionSequences) {
  FaultPlan p1;
  p1.seed = 1;
  p1.sensor_dropout(0.0, 1000.0, 0.5);
  FaultPlan p2 = p1;
  p2.seed = 2;
  FaultInjector a{p1};
  FaultInjector b{p2};
  std::size_t disagreements = 0;
  for (double t = 0.0; t < 1000.0; t += 1.0) {
    if (a.sensor_drops(t, 0) != b.sensor_drops(t, 0)) ++disagreements;
  }
  EXPECT_GT(disagreements, 0u);
}

TEST(FaultInjector, WindowTargetingIsHonoredPerKind) {
  FaultPlan plan;
  plan.wake_failures(0.0, 100.0, 1.0, /*server=*/2);
  plan.sensor_stale(0.0, 100.0, /*app=*/1);
  FaultInjector injector{plan};
  EXPECT_TRUE(injector.wake_fails(10.0, 2));
  EXPECT_FALSE(injector.wake_fails(10.0, 0));
  EXPECT_FALSE(injector.wake_fails(10.0, 3));
  EXPECT_TRUE(injector.sensor_stale(10.0, 1));
  EXPECT_FALSE(injector.sensor_stale(10.0, 0));
  EXPECT_EQ(injector.rng_draws(), 0u);  // all p = 1 windows
}

TEST(FaultInjector, SlowdownAndSpikeReturnTheWindowMagnitude) {
  FaultPlan plan;
  plan.migration_slowdown(0.0, 100.0, 4.0);
  plan.sensor_spikes(0.0, 100.0, 12.5, 1.0);
  plan.dvfs_pin(3, 1.2, 0.0, 100.0);
  FaultInjector injector{plan};
  EXPECT_DOUBLE_EQ(injector.migration_slowdown(50.0, 0), 4.0);
  EXPECT_DOUBLE_EQ(injector.migration_slowdown(150.0, 0), 1.0);  // window over
  EXPECT_DOUBLE_EQ(injector.sensor_spike(50.0, 0), 12.5);
  const std::optional<double> pin = injector.dvfs_pin_ghz(50.0, 3);
  ASSERT_TRUE(pin.has_value());
  EXPECT_DOUBLE_EQ(*pin, 1.2);
  EXPECT_FALSE(injector.dvfs_pin_ghz(50.0, 1).has_value());
}

// ---- scheduled crashes ------------------------------------------------------

TEST(FaultInjector, CrashWindowsAreExposedAndTracked) {
  FaultPlan plan;
  plan.server_crash(1, 100.0, 300.0);
  plan.server_crash(0, 500.0, 600.0);
  plan.sensor_dropout(0.0, 10.0, 1.0);  // a non-crash window to filter out
  FaultInjector injector{plan};

  const std::vector<FaultWindow> crashes = injector.crash_windows();
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0].target, 1u);
  EXPECT_EQ(crashes[1].target, 0u);

  EXPECT_FALSE(crashes[0].covers(99.0, 1));
  EXPECT_TRUE(crashes[0].covers(100.0, 1));
  EXPECT_TRUE(crashes[0].covers(299.0, 1));
  EXPECT_FALSE(crashes[0].covers(300.0, 1));
  EXPECT_FALSE(crashes[0].covers(150.0, 0));  // other server's window

  injector.note_crash(100.0, 1);
  EXPECT_EQ(injector.counters().server_crashes, 1u);
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].kind, FaultKind::kServerCrash);
  EXPECT_EQ(injector.events()[0].target, 1u);
  EXPECT_DOUBLE_EQ(injector.events()[0].time_s, 100.0);
}

TEST(FaultInjector, EventLogRecordsDiscreteFaultsInOrder) {
  FaultPlan plan;
  plan.migration_aborts(0.0, 100.0, 1.0);
  plan.wake_failures(0.0, 100.0, 1.0);
  FaultInjector injector{plan};
  EXPECT_TRUE(injector.wake_fails(5.0, 2));
  EXPECT_TRUE(injector.migration_aborts(10.0, 0));
  ASSERT_EQ(injector.events().size(), 2u);
  EXPECT_EQ(injector.events()[0].kind, FaultKind::kWakeFailure);
  EXPECT_EQ(injector.events()[1].kind, FaultKind::kMigrationAbort);
  EXPECT_LE(injector.events()[0].time_s, injector.events()[1].time_s);
}

TEST(FaultKind, ToStringCoversEveryKind) {
  EXPECT_EQ(to_string(FaultKind::kMigrationAbort), "migration-abort");
  EXPECT_EQ(to_string(FaultKind::kServerCrash), "server-crash");
  EXPECT_EQ(to_string(FaultKind::kDvfsPin), "dvfs-pin");
  EXPECT_FALSE(to_string(FaultKind::kSensorStale).empty());
}

}  // namespace
}  // namespace vdc::fault
