// End-to-end integration tests spanning identification -> control ->
// arbitration -> consolidation, mirroring the paper's two-level
// architecture on small instances.
#include <gtest/gtest.h>

#include "app/monitor.hpp"
#include "app/multi_tier_app.hpp"
#include "control/stability.hpp"
#include "core/power_optimizer.hpp"
#include "core/response_time_controller.hpp"
#include "core/sysid_experiment.hpp"
#include "core/testbed.hpp"
#include "sim/simulation.hpp"

namespace vdc {
namespace {

TEST(Integration, SysIdToControllerPipelineConverges) {
  const app::AppConfig app_config = app::default_two_tier_app("e2e", 11, 40);
  core::SysIdExperimentConfig sysid;
  sysid.periods = 300;
  const core::SysIdExperimentResult identified =
      core::identify_app_model(app_config, sysid);
  ASSERT_GT(identified.r_squared, 0.4);

  control::MpcConfig mpc;
  mpc.prediction_horizon = 12;
  mpc.control_horizon = 3;
  mpc.r_weight = {1.0};
  mpc.period_s = 4.0;
  mpc.tref_s = 16.0;
  mpc.setpoint = 1.0;
  mpc.c_min = {0.15};
  mpc.c_max = {1.5};
  mpc.delta_max = 0.3;
  mpc.disturbance_gain = 0.5;

  // The tuned loop must be nominally stable before deployment.
  const control::StabilityReport stability =
      control::analyze_closed_loop(identified.model, mpc);
  ASSERT_TRUE(stability.stable);

  sim::Simulation sim;
  app::MultiTierApp live(sim, app_config);
  app::ResponseTimeMonitor monitor(0.9);
  live.set_response_callback([&](double, double rt) { monitor.record(rt); });
  const std::vector<double> initial(live.tier_count(), 0.6);
  live.set_allocations(initial);
  live.start();
  core::ResponseTimeController controller(identified.model, mpc, initial);

  util::RunningStats tail;
  for (int k = 1; k <= 200; ++k) {
    sim.run_until(4.0 * k);
    live.set_allocations(controller.control(monitor.harvest()));
    if (k > 75) tail.add(controller.last_measurement());
  }
  EXPECT_NEAR(tail.mean(), 1.0, 0.2);
}

TEST(Integration, ControllerSurvivesSurgeSchedule) {
  const app::AppConfig app_config = app::default_two_tier_app("surge", 13, 40);
  core::SysIdExperimentConfig sysid;
  sysid.periods = 300;
  const auto identified = core::identify_app_model(app_config, sysid);

  control::MpcConfig mpc;
  mpc.prediction_horizon = 12;
  mpc.control_horizon = 3;
  mpc.r_weight = {1.0};
  mpc.period_s = 4.0;
  mpc.tref_s = 16.0;
  mpc.setpoint = 1.0;
  mpc.c_min = {0.15};
  mpc.c_max = {1.5};
  mpc.delta_max = 0.3;
  mpc.disturbance_gain = 0.5;

  sim::Simulation sim;
  app::MultiTierApp live(sim, app_config);
  app::ResponseTimeMonitor monitor(0.9);
  live.set_response_callback([&](double, double rt) { monitor.record(rt); });
  const std::vector<double> initial(live.tier_count(), 0.6);
  live.set_allocations(initial);
  live.start();
  // The surge: concurrency doubles from 40 to 80 between 400 s and 800 s.
  sim.schedule(400.0, [&live] { live.set_concurrency(80); });
  sim.schedule(800.0, [&live] { live.set_concurrency(40); });
  core::ResponseTimeController controller(identified.model, mpc, initial);

  util::RunningStats surge_tail;  // late surge: controller has adapted
  for (int k = 1; k <= 300; ++k) {
    sim.run_until(4.0 * k);
    live.set_allocations(controller.control(monitor.harvest()));
    const double t = sim.now();
    if (t > 600.0 && t <= 800.0) surge_tail.add(controller.last_measurement());
  }
  EXPECT_NEAR(surge_tail.mean(), 1.0, 0.4);
}

TEST(Integration, TwoLevelSystemOptimizerOnTestbedCluster) {
  // Run the testbed (application-level control), then hand its cluster to
  // the data-center-level optimizer: demands set by the controllers drive
  // consolidation decisions.
  core::TestbedConfig config;
  config.num_apps = 2;
  config.num_servers = 4;  // deliberately oversized
  config.sysid.periods = 250;
  core::Testbed tb{config};
  tb.run_until(200.0);

  datacenter::Cluster cluster = tb.cluster();  // copy for offline planning
  core::OptimizerConfig opt_config;
  opt_config.algorithm = core::ConsolidationAlgorithm::kIpac;
  opt_config.utilization_target = 0.9;
  core::PowerOptimizer optimizer(opt_config);
  const core::OptimizationOutcome outcome = optimizer.optimize(cluster, tb.now());
  // Four tier VMs at ~0.5-0.8 GHz each fit on fewer than four servers.
  EXPECT_LT(outcome.active_after, outcome.active_before);
  EXPECT_EQ(cluster.overloaded_servers().size(), 0u);
}

TEST(Integration, InfeasibleSlaIsFlagged) {
  // Set point far below what the application can deliver even at c_max with
  // an extreme workload: the controller rails its actuators and must raise
  // the infeasibility flag instead of pretending to track.
  const app::AppConfig app_config = app::default_two_tier_app("iobound", 17, 200);
  core::SysIdExperimentConfig sysid;
  sysid.periods = 250;
  const auto identified = core::identify_app_model(app_config, sysid);

  control::MpcConfig mpc;
  mpc.prediction_horizon = 12;
  mpc.control_horizon = 3;
  mpc.r_weight = {1.0};
  mpc.period_s = 4.0;
  mpc.tref_s = 16.0;
  mpc.setpoint = 0.05;  // 50 ms: unreachable at concurrency 200 within c_max
  mpc.c_min = {0.15};
  mpc.c_max = {0.8};
  mpc.delta_max = 0.3;
  mpc.disturbance_gain = 0.5;

  sim::Simulation sim;
  app::MultiTierApp live(sim, app_config);
  app::ResponseTimeMonitor monitor(0.9);
  live.set_response_callback([&](double, double rt) { monitor.record(rt); });
  const std::vector<double> initial(live.tier_count(), 0.5);
  live.set_allocations(initial);
  live.start();
  core::ResponseTimeController controller(identified.model, mpc, initial);
  for (int k = 1; k <= 80; ++k) {
    sim.run_until(4.0 * k);
    live.set_allocations(controller.control(monitor.harvest()));
  }
  EXPECT_TRUE(controller.sla_infeasible());

  // Sanity: a reachable set point must NOT be flagged.
  core::ResponseTimeController ok_controller(identified.model,
                                             [&] {
                                               control::MpcConfig c = mpc;
                                               c.setpoint = 1.5;
                                               c.c_max = {1.5};
                                               return c;
                                             }(),
                                             initial);
  sim::Simulation sim2;
  app::MultiTierApp live2(sim2, app::default_two_tier_app("ok", 18, 40));
  app::ResponseTimeMonitor monitor2(0.9);
  live2.set_response_callback([&](double, double rt) { monitor2.record(rt); });
  live2.set_allocations(initial);
  live2.start();
  for (int k = 1; k <= 80; ++k) {
    sim2.run_until(4.0 * k);
    live2.set_allocations(ok_controller.control(monitor2.harvest()));
  }
  EXPECT_FALSE(ok_controller.sla_infeasible());
}

TEST(Integration, PerAppSetpointsAreIndependent) {
  core::TestbedConfig config;
  config.num_apps = 2;
  config.num_servers = 2;
  config.sysid.periods = 250;
  core::Testbed tb{config};
  tb.set_setpoint(0, 0.7);
  tb.set_setpoint(1, 1.3);
  tb.run_until(600.0);
  EXPECT_NEAR(tb.response_stats_after(0, 250.0).mean(), 0.7, 0.2);
  EXPECT_NEAR(tb.response_stats_after(1, 250.0).mean(), 1.3, 0.35);
}

}  // namespace
}  // namespace vdc
