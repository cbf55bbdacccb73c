#include "app/multi_tier_app.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "util/statistics.hpp"

namespace vdc::app {
namespace {

AppConfig small_app(std::uint64_t seed, std::size_t concurrency) {
  return default_two_tier_app("t", seed, concurrency);
}

TEST(MultiTierApp, RejectsEmptyTierList) {
  sim::Simulation sim;
  AppConfig config;
  config.tiers.clear();
  EXPECT_THROW(MultiTierApp(sim, config), std::invalid_argument);
}

TEST(MultiTierApp, CompletesRequestsUnderLoad) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(1, 10));
  app.start();
  sim.run_until(60.0);
  EXPECT_GT(app.completed_requests(), 100u);
}

TEST(MultiTierApp, StartTwiceThrows) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(1, 5));
  app.start();
  EXPECT_THROW(app.start(), std::logic_error);
}

TEST(MultiTierApp, InFlightNeverExceedsConcurrency) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(2, 12));
  app.start();
  for (int k = 1; k <= 200; ++k) {
    sim.run_until(0.25 * k);
    EXPECT_LE(app.requests_in_flight(), 12u);
  }
}

TEST(MultiTierApp, ResponseTimesArePositiveAndFinite) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(3, 20));
  bool all_ok = true;
  app.set_response_callback([&](double completion, double rt) {
    all_ok = all_ok && rt > 0.0 && rt < 1e4 && completion >= rt;
  });
  app.start();
  sim.run_until(120.0);
  EXPECT_TRUE(all_ok);
  EXPECT_GT(app.completed_requests(), 500u);
}

TEST(MultiTierApp, MoreCpuLowersResponseTime) {
  const auto p90_at = [](double alloc) {
    sim::Simulation sim;
    MultiTierApp app(sim, small_app(4, 40));
    std::vector<double> samples;
    app.set_response_callback([&](double, double rt) { samples.push_back(rt); });
    app.set_allocations(std::vector<double>(2, alloc));
    app.start();
    sim.run_until(400.0);
    return util::quantile(std::move(samples), 0.9);
  };
  const double starved = p90_at(0.25);
  const double generous = p90_at(1.5);
  EXPECT_GT(starved, 2.0 * generous);
}

TEST(MultiTierApp, AllocationAccessorsRoundTrip) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(5, 5));
  app.set_allocations(std::vector<double>{0.4, 0.7});
  EXPECT_EQ(app.allocations(), (std::vector<double>{0.4, 0.7}));
  app.set_allocation(0, 0.9);
  EXPECT_DOUBLE_EQ(app.allocations()[0], 0.9);
  EXPECT_THROW(app.set_allocation(5, 1.0), std::out_of_range);
  EXPECT_THROW(app.set_allocations(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(MultiTierApp, ConcurrencyIncreaseRaisesThroughput) {
  const auto throughput_at = [](std::size_t concurrency) {
    sim::Simulation sim;
    MultiTierApp app(sim, small_app(6, concurrency));
    app.set_allocations(std::vector<double>(2, 2.0));  // ample CPU
    app.start();
    sim.run_until(300.0);
    return static_cast<double>(app.completed_requests()) / 300.0;
  };
  // With ample CPU and think time Z=1s, throughput ~ N/(Z + R) grows with N.
  EXPECT_GT(throughput_at(40), 1.8 * throughput_at(20));
}

TEST(MultiTierApp, ConcurrencyShrinkRetiresClients) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(7, 30));
  app.start();
  sim.run_until(50.0);
  app.set_concurrency(5);
  EXPECT_EQ(app.concurrency(), 5u);
  sim.run_until(150.0);
  // After draining, in-flight must respect the reduced population.
  EXPECT_LE(app.requests_in_flight(), 5u);
}

TEST(MultiTierApp, ConcurrencyGrowthTakesEffectLive) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(8, 10));
  app.set_allocations(std::vector<double>(2, 2.0));
  app.start();
  sim.run_until(100.0);
  const double rate_before = static_cast<double>(app.completed_requests()) / 100.0;
  app.set_concurrency(40);
  sim.run_until(300.0);
  const double rate_after =
      static_cast<double>(app.completed_requests()) / 300.0;  // blended, still higher
  EXPECT_GT(rate_after, rate_before * 1.5);
}

TEST(MultiTierApp, TierWorkDoneAccumulates) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(9, 10));
  app.start();
  sim.run_until(100.0);
  const double web = app.tier_work_done_gcycles(0);
  const double db = app.tier_work_done_gcycles(1);
  EXPECT_GT(web, 0.0);
  EXPECT_GT(db, 0.0);
  // Mean demands are 8 and 12 Mcycles: db tier does ~1.5x the web work.
  EXPECT_NEAR(db / web, 1.5, 0.25);
  EXPECT_THROW(static_cast<void>(app.tier_work_done_gcycles(2)), std::out_of_range);
}

TEST(MultiTierApp, DeterministicForSameSeed) {
  const auto run = [] {
    sim::Simulation sim;
    MultiTierApp app(sim, small_app(42, 15));
    app.start();
    sim.run_until(100.0);
    return app.completed_requests();
  };
  EXPECT_EQ(run(), run());
}

TEST(MultiTierApp, RejectsBadTierConfigPerField) {
  sim::Simulation sim;
  const auto expect_rejected = [&](auto&& mutate) {
    AppConfig config = small_app(1, 10);
    mutate(config);
    EXPECT_THROW(MultiTierApp(sim, config), std::invalid_argument);
  };
  expect_rejected([](AppConfig& c) { c.tiers[0].mean_demand_gcycles = 0.0; });
  expect_rejected([](AppConfig& c) { c.tiers[0].mean_demand_gcycles = -0.01; });
  expect_rejected([](AppConfig& c) {
    c.tiers[1].mean_demand_gcycles = std::numeric_limits<double>::infinity();
  });
  // alpha == 1 makes the bounded-Pareto mean divide by zero; at or below 1
  // the finite-mean rescale is meaningless. The constructor must refuse.
  expect_rejected([](AppConfig& c) { c.tiers[0].pareto_alpha = 1.0; });
  expect_rejected([](AppConfig& c) { c.tiers[0].pareto_alpha = 0.5; });
  expect_rejected([](AppConfig& c) {
    c.tiers[1].pareto_alpha = std::numeric_limits<double>::quiet_NaN();
  });
  expect_rejected([](AppConfig& c) { c.tiers[0].initial_allocation_ghz = -1.0; });
  expect_rejected([](AppConfig& c) { c.think_time_s = 0.0; });
  expect_rejected([](AppConfig& c) { c.think_time_s = -2.0; });
  // Closed mode with zero clients and no arrival rate is an empty workload.
  expect_rejected([](AppConfig& c) { c.concurrency = 0; });
}

TEST(MultiTierApp, ConcurrencyZeroThenRegrow) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(21, 10));
  app.start();
  sim.run_until(30.0);
  app.set_concurrency(0);
  sim.drain_until(500.0);  // every client retires at its next decision point
  EXPECT_EQ(app.active_clients(), 0u);
  EXPECT_EQ(app.requests_in_flight(), 0u);
  const auto before = app.completed_requests();
  app.set_concurrency(8);  // regrow from zero spawns fresh clients at once
  EXPECT_EQ(app.active_clients(), 8u);
  sim.run_until(sim.now() + 60.0);
  EXPECT_GT(app.completed_requests(), before + 50u);
}

TEST(MultiTierApp, LazyShrinkKeepsConcurrencyAndActiveClientsDistinct) {
  sim::Simulation sim;
  MultiTierApp app(sim, small_app(22, 20));
  app.start();
  sim.run_until(30.0);
  app.set_concurrency(5);
  // The target drops immediately; the population drains lazily, so right
  // after the shrink more clients may still be live than the target.
  EXPECT_EQ(app.concurrency(), 5u);
  EXPECT_GE(app.active_clients(), 5u);
  sim.run_until(90.0);  // decision points pass: excess clients retired
  EXPECT_EQ(app.active_clients(), 5u);
  EXPECT_LE(app.requests_in_flight(), 5u);
}

TEST(DefaultTwoTierApp, HasWebAndDbTiers) {
  const AppConfig config = default_two_tier_app("x", 1, 40);
  ASSERT_EQ(config.tiers.size(), 2u);
  EXPECT_EQ(config.tiers[0].name, "web");
  EXPECT_EQ(config.tiers[1].name, "db");
  EXPECT_EQ(config.concurrency, 40u);
  EXPECT_GT(config.tiers[1].mean_demand_gcycles, config.tiers[0].mean_demand_gcycles);
}

}  // namespace
}  // namespace vdc::app
