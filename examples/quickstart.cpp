// Quickstart: identify a response-time model for a two-tier application,
// attach an MPC response-time controller, and watch the 90-percentile
// response time converge to the 1000 ms set point.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "app/multi_tier_app.hpp"
#include "control/stability.hpp"
#include "core/app_stack.hpp"
#include "core/sysid_experiment.hpp"
#include "sim/simulation.hpp"
#include "telemetry/recorder.hpp"

int main() {
  using namespace vdc;

  // 1. A two-tier (web + db) application under a closed workload of 40
  //    concurrent clients — the paper's RUBBoS setup.
  const app::AppConfig app_config = app::default_two_tier_app("demo", /*seed=*/1,
                                                              /*concurrency=*/40);

  // 2. System identification: excite the staging copy, fit an ARX model.
  core::SysIdExperimentConfig sysid;
  const core::SysIdExperimentResult identified = core::identify_app_model(app_config, sysid);
  std::printf("identified ARX model: na=%zu nb=%zu nu=%zu  R^2=%.3f\n",
              identified.model.na, identified.model.nb, identified.model.nu,
              identified.r_squared);

  // 3. Controller tuning; verify nominal closed-loop stability first.
  control::MpcConfig mpc;
  mpc.prediction_horizon = 12;
  mpc.control_horizon = 3;
  mpc.r_weight = {1.0};
  mpc.period_s = 4.0;
  mpc.tref_s = 16.0;
  mpc.setpoint = 1.0;  // 1000 ms
  mpc.c_min = {0.15};
  mpc.c_max = {1.5};
  mpc.delta_max = 0.3;
  mpc.disturbance_gain = 0.5;
  const control::StabilityReport stability =
      control::analyze_closed_loop(identified.model, mpc);
  std::printf("closed loop: output decay rate=%.3f  stable=%s  steady-state=%.0f ms\n",
              stability.output_decay_rate, stability.stable ? "yes" : "no",
              stability.steady_state_output * 1000.0);

  // 4. Run the live application under control. An AppStack bundles the
  //    app + monitor + controller and ticks itself every control period;
  //    the bound telemetry recorder keeps the per-period series.
  sim::Simulation sim;
  core::AppStackConfig stack;
  stack.app = app_config;
  stack.mpc = mpc;
  core::AppStack live(sim, identified.model, stack);
  telemetry::Recorder recorder;
  live.bind_recorder(&recorder, 0);
  live.start_control_loop();
  sim.run_until(240.0);  // 60 control periods

  const auto& p90 = recorder.values(core::response_series_name(0));
  const auto& alloc = recorder.rows(core::allocation_series_name(0));
  std::printf("\n%8s %14s %12s %12s\n", "time(s)", "p90 (ms)", "web (GHz)", "db (GHz)");
  for (std::size_t k = 4; k < p90.size(); k += 5) {
    std::printf("%8.0f %14.0f %12.3f %12.3f\n", (static_cast<double>(k) + 1.0) * 4.0,
                p90[k] * 1000.0, alloc[k][0], alloc[k][1]);
  }
  std::printf("\nfinal p90 = %.0f ms (set point 1000 ms)\n",
              live.last_measurement() * 1000.0);
  return 0;
}
