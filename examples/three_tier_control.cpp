// Three-tier MIMO control: a web + application + database stack (three VMs)
// under one controller — the genuinely multi-input case the paper's MIMO
// formulation exists for. Also demonstrates the deployment workflow:
//
//   identify -> auto-tune (tune_mpc) -> verify stability -> run.
//
//   ./build/examples/three_tier_control
#include <cstdio>

#include "app/multi_tier_app.hpp"
#include "control/tuning.hpp"
#include "core/app_stack.hpp"
#include "core/sysid_experiment.hpp"
#include "sim/simulation.hpp"
#include "telemetry/recorder.hpp"
#include "util/statistics.hpp"

int main() {
  using namespace vdc;

  // 1. A three-tier application: web front end, application server, DB.
  app::AppConfig config;
  config.name = "shop";
  config.seed = 11;
  config.concurrency = 40;
  config.think_time_s = 1.0;
  config.tiers = {
      app::TierConfig{.name = "web", .mean_demand_gcycles = 0.006, .pareto_alpha = 2.2,
                      .initial_allocation_ghz = 0.8},
      app::TierConfig{.name = "app", .mean_demand_gcycles = 0.010, .pareto_alpha = 2.2,
                      .initial_allocation_ghz = 0.8},
      app::TierConfig{.name = "db", .mean_demand_gcycles = 0.008, .pareto_alpha = 2.2,
                      .initial_allocation_ghz = 0.8},
  };

  // 2. Identify the 3-input ARX model on a staging copy.
  core::SysIdExperimentConfig sysid;
  sysid.periods = 500;
  const core::SysIdExperimentResult identified = core::identify_app_model(config, sysid);
  std::printf("identified 3-input model, R^2 = %.2f, dc gains = [%.2f %.2f %.2f]\n",
              identified.r_squared, identified.model.dc_gain()[0],
              identified.model.dc_gain()[1], identified.model.dc_gain()[2]);

  // 3. Auto-tune the MPC against the nominal stability analysis.
  control::TuningOptions tuning;
  tuning.base.prediction_horizon = 12;
  tuning.base.period_s = 4.0;
  tuning.base.setpoint = 1.0;
  tuning.base.c_min = {0.15};
  tuning.base.c_max = {1.5};
  tuning.base.delta_max = 0.3;
  tuning.base.disturbance_gain = 0.5;
  const control::TuningResult tuned = control::tune_mpc(identified.model, tuning);
  if (!tuned.found) {
    std::printf("no stable tuning found (evaluated %zu candidates)\n", tuned.evaluated);
    return 1;
  }
  std::printf("tuned: M=%zu, R=%.2f, Tref=%.0f s  (decay %.3f/period, %zu/%zu stable)\n",
              tuned.config.control_horizon, tuned.config.r_weight[0], tuned.config.tref_s,
              tuned.report.output_decay_rate, tuned.stable_candidates, tuned.evaluated);

  // 4. Control the live stack to a 1000 ms 90-percentile response time.
  //    An AppStack bundles the plant + monitor + controller; the bound
  //    recorder keeps the per-period series for the report below.
  sim::Simulation sim;
  core::AppStackConfig stack;
  stack.app = config;
  stack.mpc = tuned.config;
  stack.initial_allocation_ghz = 0.8;
  core::AppStack live(sim, identified.model, stack);
  telemetry::Recorder recorder;
  live.bind_recorder(&recorder, 0);
  live.start_control_loop();
  sim.run_until(800.0);  // 200 control periods

  const auto& p90 = recorder.values(core::response_series_name(0));
  const auto& alloc = recorder.rows(core::allocation_series_name(0));
  std::printf("\n%8s %12s %8s %8s %8s\n", "time(s)", "p90 (ms)", "web", "app", "db");
  util::RunningStats tail;
  for (std::size_t k = 0; k < p90.size(); ++k) {
    if ((k + 1) % 25 == 0) {
      std::printf("%8.0f %12.0f %8.2f %8.2f %8.2f\n", (static_cast<double>(k) + 1.0) * 4.0,
                  p90[k] * 1000.0, alloc[k][0], alloc[k][1], alloc[k][2]);
    }
    if (k >= 60) tail.add(p90[k]);
  }
  std::printf("\nsteady state: mean p90 = %.0f ms (set point 1000 ms), std %.0f ms\n",
              tail.mean() * 1000.0, tail.stddev() * 1000.0);
  std::printf("SLA infeasible flag: %s\n",
              live.controller()->sla_infeasible() ? "yes" : "no");
  return std::abs(tail.mean() - 1.0) < 0.2 ? 0 : 1;
}
