#include "app/queueing.hpp"

#include <gtest/gtest.h>

#include "app/multi_tier_app.hpp"
#include "sim/simulation.hpp"
#include "util/statistics.hpp"

namespace vdc::app {
namespace {

TEST(Mva, ValidatesInputs) {
  EXPECT_THROW(exact_mva(ClosedNetwork{1.0, {}}, 5), std::invalid_argument);
  EXPECT_THROW(exact_mva(ClosedNetwork{-1.0, {0.1}}, 5), std::invalid_argument);
  EXPECT_THROW(exact_mva(ClosedNetwork{1.0, {0.0}}, 5), std::invalid_argument);
}

TEST(Mva, SingleClientHasNoQueueing) {
  const ClosedNetwork net{1.0, {0.2, 0.3}};
  const MvaResult r = exact_mva(net, 1);
  // With one client there is never contention: R = sum of demands.
  EXPECT_NEAR(r.response_time_s, 0.5, 1e-12);
  EXPECT_NEAR(r.throughput_rps, 1.0 / 1.5, 1e-12);
  EXPECT_NEAR(r.stations[0].residence_time_s, 0.2, 1e-12);
}

TEST(Mva, LittlesLawHoldsExactly) {
  const ClosedNetwork net{0.8, {0.05, 0.12, 0.03}};
  for (const std::size_t n : {1u, 5u, 20u, 80u}) {
    const MvaResult r = exact_mva(net, n);
    // N = X * (Z + R): all customers are thinking or in the network.
    EXPECT_NEAR(static_cast<double>(n),
                r.throughput_rps * (net.think_time_s + r.response_time_s), 1e-9);
    // Per-station Little's law: Q_i = X * R_i.
    for (const MvaStation& s : r.stations) {
      EXPECT_NEAR(s.queue_length, r.throughput_rps * s.residence_time_s, 1e-9);
    }
  }
}

TEST(Mva, ThroughputSaturatesAtBottleneck) {
  const ClosedNetwork net{1.0, {0.05, 0.02}};
  const MvaResult r = exact_mva(net, 400);
  EXPECT_NEAR(r.throughput_rps, 1.0 / 0.05, 0.01);  // bottleneck law
  EXPECT_NEAR(r.stations[0].utilization, 1.0, 1e-3);
  EXPECT_LT(r.stations[1].utilization, 0.5);
}

TEST(Mva, ResponseTimeMonotoneInPopulation) {
  const ClosedNetwork net{1.0, {0.05, 0.03}};
  double prev = 0.0;
  for (std::size_t n = 1; n <= 60; n += 5) {
    const double r = exact_mva(net, n).response_time_s;
    EXPECT_GE(r, prev - 1e-12);
    prev = r;
  }
}

TEST(Mva, UpperBoundHolds) {
  const ClosedNetwork net{1.0, {0.05, 0.03}};
  for (const std::size_t n : {1u, 10u, 50u, 200u}) {
    EXPECT_LE(exact_mva(net, n).throughput_rps, throughput_upper_bound(net, n) + 1e-9);
  }
}

TEST(Mva, PredictsDesMeanResponseTime) {
  // The DES's PS stations with heavy-tailed demands form a BCMP network:
  // MVA on the mean demands must predict the simulated mean response time.
  const std::size_t clients = 40;
  AppConfig config = default_two_tier_app("mva", 4, clients);
  const double web_alloc = 0.4;
  const double db_alloc = 0.5;

  sim::Simulation sim;
  MultiTierApp app(sim, config);
  util::RunningStats response;
  app.set_response_callback([&](double, double rt) { response.add(rt); });
  app.set_allocations(std::vector<double>{web_alloc, db_alloc});
  app.start();
  sim.run_until(2000.0);
  const double sim_mean = response.mean();

  const ClosedNetwork net{
      config.think_time_s,
      {config.tiers[0].mean_demand_gcycles / web_alloc,
       config.tiers[1].mean_demand_gcycles / db_alloc}};
  const double mva_mean = exact_mva(net, clients).response_time_s;
  EXPECT_NEAR(sim_mean, mva_mean, 0.12 * mva_mean)
      << "DES mean " << sim_mean << " vs MVA " << mva_mean;
}

TEST(Mva, PredictsDesThroughput) {
  const std::size_t clients = 30;
  AppConfig config = default_two_tier_app("mva2", 6, clients);
  sim::Simulation sim;
  MultiTierApp app(sim, config);
  app.set_allocations(std::vector<double>{0.3, 0.4});
  app.start();
  sim.run_until(2000.0);
  const double sim_x = static_cast<double>(app.completed_requests()) / 2000.0;
  const ClosedNetwork net{config.think_time_s,
                          {config.tiers[0].mean_demand_gcycles / 0.3,
                           config.tiers[1].mean_demand_gcycles / 0.4}};
  const double mva_x = exact_mva(net, clients).throughput_rps;
  EXPECT_NEAR(sim_x, mva_x, 0.08 * mva_x);
}

TEST(CapacityScale, MeetsTargetAfterScaling) {
  const ClosedNetwork net{1.0, {0.05, 0.04}};
  const std::size_t clients = 40;
  const double target = 0.4;
  ASSERT_GT(exact_mva(net, clients).response_time_s, target);
  const double scale = response_time_capacity_scale(net, clients, target);
  EXPECT_GT(scale, 1.0);
  ClosedNetwork scaled = net;
  for (double& d : scaled.service_demands_s) d /= scale;
  EXPECT_NEAR(exact_mva(scaled, clients).response_time_s, target, 1e-6);
}

TEST(CapacityScale, ReturnsOneWhenAlreadyMet) {
  const ClosedNetwork net{1.0, {0.01, 0.01}};
  EXPECT_DOUBLE_EQ(response_time_capacity_scale(net, 5, 1.0), 1.0);
}

TEST(CapacityScale, RejectsBadTarget) {
  const ClosedNetwork net{1.0, {0.05}};
  EXPECT_THROW(static_cast<void>(response_time_capacity_scale(net, 5, 0.0)), std::invalid_argument);
}

TEST(Mg1Ps, FormulaAndStability) {
  EXPECT_NEAR(mg1_ps_response_time_s(5.0, 0.1), 0.1 / 0.5, 1e-12);
  EXPECT_THROW(static_cast<void>(mg1_ps_response_time_s(10.0, 0.1)), std::invalid_argument);  // rho = 1
  EXPECT_THROW(static_cast<void>(mg1_ps_response_time_s(-1.0, 0.1)), std::invalid_argument);
}

TEST(Mg1Ps, PredictsOpenWorkloadDes) {
  // Open Poisson arrivals into the two-tier app: per-tier M/G/1-PS.
  AppConfig config = default_two_tier_app("open-mva", 8, 0);
  config.open_arrival_rate_rps = 25.0;
  const double web_alloc = 0.5;  // service time 0.016 -> rho 0.4
  const double db_alloc = 0.6;   // service time 0.02  -> rho 0.5
  sim::Simulation sim;
  MultiTierApp app(sim, config);
  util::RunningStats response;
  app.set_response_callback([&](double, double rt) { response.add(rt); });
  app.set_allocations(std::vector<double>{web_alloc, db_alloc});
  app.start();
  sim.run_until(2000.0);
  const double expected =
      mg1_ps_response_time_s(25.0, config.tiers[0].mean_demand_gcycles / web_alloc) +
      mg1_ps_response_time_s(25.0, config.tiers[1].mean_demand_gcycles / db_alloc);
  EXPECT_NEAR(response.mean(), expected, 0.12 * expected);
}

}  // namespace
}  // namespace vdc::app
