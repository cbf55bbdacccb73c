#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "app/multi_tier_app.hpp"
#include "util/statistics.hpp"

namespace vdc::app {
namespace {

AppConfig open_app(double rate_rps, std::uint64_t seed = 3) {
  AppConfig config = default_two_tier_app("open", seed, 0);
  config.open_arrival_rate_rps = rate_rps;
  return config;
}

TEST(OpenWorkload, ThroughputMatchesArrivalRate) {
  sim::Simulation sim;
  MultiTierApp app(sim, open_app(20.0));
  app.set_allocations(std::vector<double>(2, 2.0));  // ample CPU
  app.start();
  sim.run_until(500.0);
  const double rate = static_cast<double>(app.completed_requests()) / 500.0;
  EXPECT_NEAR(rate, 20.0, 1.5);
}

TEST(OpenWorkload, ModeIsFixedAtConstruction) {
  sim::Simulation sim;
  MultiTierApp open(sim, open_app(10.0));
  EXPECT_TRUE(open.open_workload());
  MultiTierApp closed(sim, default_two_tier_app("c", 1, 10));
  EXPECT_FALSE(closed.open_workload());
  EXPECT_THROW(closed.set_arrival_rate(5.0), std::logic_error);
}

TEST(OpenWorkload, SetConcurrencyIsIgnored) {
  sim::Simulation sim;
  MultiTierApp app(sim, open_app(10.0));
  app.start();
  app.set_concurrency(100);
  sim.run_until(20.0);
  // Arrivals keep following the Poisson process, not a client population.
  EXPECT_GT(app.completed_requests(), 100u);
}

TEST(OpenWorkload, RateChangeTakesEffect) {
  sim::Simulation sim;
  MultiTierApp app(sim, open_app(5.0));
  app.set_allocations(std::vector<double>(2, 2.0));
  app.start();
  sim.run_until(200.0);
  const auto before = app.completed_requests();
  app.set_arrival_rate(50.0);
  sim.run_until(400.0);
  const auto after = app.completed_requests() - before;
  EXPECT_GT(static_cast<double>(after), 6.0 * static_cast<double>(before));
  EXPECT_THROW(app.set_arrival_rate(-1.0), std::invalid_argument);
}

TEST(OpenWorkload, PauseAndResume) {
  sim::Simulation sim;
  MultiTierApp app(sim, open_app(20.0));
  app.set_allocations(std::vector<double>(2, 2.0));
  app.start();
  sim.run_until(100.0);
  app.set_arrival_rate(0.0);
  sim.run_until(110.0);  // drain
  const auto frozen = app.completed_requests();
  sim.run_until(200.0);
  EXPECT_EQ(app.completed_requests(), frozen);  // no arrivals while paused
  app.set_arrival_rate(20.0);
  sim.run_until(260.0);
  EXPECT_GT(app.completed_requests(), frozen + 500u);
}

TEST(OpenWorkload, OverloadGrowsBacklogUnboundedly) {
  // Arrival rate above the service capacity: in an open system the backlog
  // diverges (unlike the closed system, which self-limits at N clients).
  sim::Simulation sim;
  MultiTierApp app(sim, open_app(30.0));
  app.set_allocations(std::vector<double>(2, 0.1));  // web capacity ~12.5 rps
  app.start();
  sim.run_until(120.0);
  const std::size_t backlog_early = app.requests_in_flight();
  sim.run_until(240.0);
  EXPECT_GT(app.requests_in_flight(), backlog_early);
  EXPECT_GT(app.requests_in_flight(), 100u);
}

TEST(OpenWorkload, ResponseTimesRiseWithUtilization) {
  const auto p90_at = [](double rate) {
    sim::Simulation sim;
    MultiTierApp app(sim, open_app(rate, 9));
    std::vector<double> samples;
    app.set_response_callback([&](double, double rt) { samples.push_back(rt); });
    app.set_allocations(std::vector<double>{0.4, 0.6});  // web 50 rps capacity
    app.start();
    sim.run_until(400.0);
    return util::quantile(std::move(samples), 0.9);
  };
  EXPECT_GT(p90_at(40.0), 2.0 * p90_at(10.0));
}

TEST(OpenWorkload, PausedAppLeavesSimulationQuiescent) {
  // Regression: a paused open app used to keep a polling event alive, so a
  // drain over an idle system never terminated. Pausing must cancel the
  // pending arrival and schedule nothing until the rate rises again.
  sim::Simulation sim;
  MultiTierApp app(sim, open_app(20.0));
  app.start();
  sim.run_until(10.0);
  app.set_arrival_rate(0.0);
  // Residual in-flight requests complete, then the event heap is empty —
  // drain_until over an enormous horizon returns instead of spinning.
  (void)sim.drain_until(1e12);
  EXPECT_EQ(app.requests_in_flight(), 0u);
  EXPECT_EQ(sim.drain_until(1e12), 0u);  // truly quiescent: nothing pending
  // Un-pausing restarts the arrival stream.
  const auto before = app.completed_requests();
  app.set_arrival_rate(20.0);
  sim.run_until(sim.now() + 30.0);
  EXPECT_GT(app.completed_requests(), before + 100u);
}

TEST(OpenWorkload, RateStepResamplesThePendingGap) {
  // Regression: raising the rate used to leave the previously sampled
  // inter-arrival gap pending, so a 0.001 rps app stepped to 100 rps kept
  // waiting out a ~1000 s gap. The exponential is memoryless, so cancelling
  // and resampling at the new rate is distribution-exact.
  sim::Simulation sim;
  MultiTierApp app(sim, open_app(0.001, 17));
  app.set_allocations(std::vector<double>(2, 2.0));
  app.start();
  sim.run_until(1.0);
  EXPECT_EQ(app.issued_requests(), 0u);  // the first slow-rate gap is pending
  app.set_arrival_rate(100.0);
  sim.run_until(6.0);
  // ~500 arrivals in 5 s at the new rate; the stale gap would have given 0.
  EXPECT_GT(app.completed_requests(), 200u);
}

}  // namespace
}  // namespace vdc::app
