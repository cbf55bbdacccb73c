#include "core/scenario.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "util/thread_pool.hpp"

namespace vdc::core {

const std::vector<double>& ScenarioResult::response_series(std::size_t app) const {
  return recorder.values(response_series_name(app));
}

telemetry::Recorder::RowsView ScenarioResult::allocation_series(std::size_t app) const {
  return recorder.rows(allocation_series_name(app));
}

const std::vector<double>& ScenarioResult::power_series() const {
  return recorder.values(kPowerSeries);
}

util::RunningStats ScenarioResult::response_stats_after(std::size_t app,
                                                        double from_s) const {
  return core::response_stats_after(recorder, app, from_s, control_period_s);
}

namespace {

ScenarioResult run_app_stack(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.name = spec.name;
  result.control_period_s = spec.stack.mpc.period_s;
  result.app_count = 1;

  AppStackConfig stack = spec.stack;
  if (spec.seed != 0) stack.app.seed = spec.seed;

  result.recorder = telemetry::Recorder(
      telemetry::RecorderConfig{.sample_period_s = stack.mpc.period_s});

  sim::Simulation sim;
  std::unique_ptr<AppStack> app_stack;
  if (spec.policy) {
    app_stack = std::make_unique<AppStack>(sim, stack, spec.policy);
  } else {
    control::ArxModel model;
    if (spec.model) {
      model = *spec.model;
      result.model_r_squared = 1.0;
    } else {
      SysIdExperimentResult identified = identify_app_model(stack.app);
      model = std::move(identified.model);
      result.model_r_squared = identified.r_squared;
    }
    app_stack = std::make_unique<AppStack>(sim, model, stack);
  }
  app_stack->bind_recorder(&result.recorder, 0);

  // Scenario-private injector: sensor fault kinds only (no cluster here).
  // Lives on this stack frame, which outlives the simulation drain below.
  fault::FaultInjector injector(spec.faults);
  if (injector.enabled()) app_stack->set_fault_injector(&injector, 0);

  for (const SetpointEvent& event : spec.setpoint_schedule) {
    sim.schedule(event.time_s,
                 [&stack = *app_stack, event] { stack.set_setpoint(event.setpoint_s); });
  }
  for (const ConcurrencyEvent& event : spec.concurrency_schedule) {
    sim.schedule(event.time_s,
                 [&stack = *app_stack, event] { stack.set_concurrency(event.concurrency); });
  }

  app_stack->start_control_loop();
  sim.drain_until(spec.duration_s);
  result.faults = injector.counters();
  if (const ResponseTimeController* controller = app_stack->controller()) {
    result.stale_holds = controller->stale_holds();
  }
  result.scale_outs = app_stack->app().scale_out_count();
  result.scale_ins = app_stack->app().scale_in_count();
  return result;
}

ScenarioResult run_testbed(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.name = spec.name;

  TestbedConfig config = spec.testbed;
  if (spec.seed != 0) config.seed = spec.seed;
  if (spec.model) config.model = spec.model;
  if (spec.faults.enabled()) config.faults = spec.faults;
  result.control_period_s = config.control_period_s;
  result.app_count = config.num_apps;

  Testbed testbed(config);
  result.model_r_squared = testbed.model_r_squared();
  for (const SetpointEvent& event : spec.setpoint_schedule) {
    testbed.simulation().schedule(
        event.time_s, [&testbed, event] { testbed.set_setpoint(event.app, event.setpoint_s); });
  }
  for (const ConcurrencyEvent& event : spec.concurrency_schedule) {
    testbed.simulation().schedule(event.time_s, [&testbed, event] {
      testbed.set_concurrency(event.app, event.concurrency);
    });
  }

  testbed.run_until(spec.duration_s);
  result.completed_migrations = testbed.completed_migrations();
  result.optimizer_invocations = testbed.optimizer_invocations();
  result.faults = testbed.fault_injector().counters();
  result.failed_migrations = testbed.failed_migrations();
  result.vm_restarts = testbed.vm_restarts();
  result.scale_outs = testbed.scale_out_count();
  result.scale_ins = testbed.scale_in_count();
  for (std::size_t i = 0; i < config.num_apps; ++i) {
    if (const ResponseTimeController* controller = testbed.app_stack(i).controller()) {
      result.stale_holds += controller->stale_holds();
    }
  }
  result.recorder = testbed.take_recorder();
  return result;
}

}  // namespace

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec) const {
  if (spec.duration_s <= 0.0) {
    throw std::invalid_argument("ScenarioRunner: duration must be > 0");
  }
  switch (spec.engine) {
    case ScenarioSpec::Engine::kAppStack:
      return run_app_stack(spec);
    case ScenarioSpec::Engine::kTestbed:
      return run_testbed(spec);
  }
  throw std::logic_error("ScenarioRunner: unknown engine");
}

std::vector<ScenarioResult> ScenarioRunner::run_all(
    std::span<const ScenarioSpec> specs) const {
  // Each result lands in its spec's slot, so the order never depends on
  // which worker ran what.
  std::vector<ScenarioResult> results(specs.size());
  util::parallel_for(
      specs.size(), [&](std::size_t i) { results[i] = run(specs[i]); }, threads_);
  return results;
}

}  // namespace vdc::core
