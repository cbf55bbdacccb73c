#include "core/app_stack.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace vdc::core {

std::string response_series_name(std::size_t app_index) {
  return "app" + std::to_string(app_index) + "/p90";
}

std::string allocation_series_name(std::size_t app_index) {
  return "app" + std::to_string(app_index) + "/alloc";
}

std::string replica_series_name(std::size_t app_index) {
  return "app" + std::to_string(app_index) + "/replicas";
}

util::RunningStats response_stats_after(const telemetry::Recorder& recorder,
                                        std::size_t app_index, double from_s,
                                        double control_period_s) {
  if (!(std::isfinite(from_s) && from_s >= 0.0)) {
    throw std::invalid_argument("response_stats_after: from_s must be finite and >= 0");
  }
  const std::vector<double>& series = recorder.values(response_series_name(app_index));
  // Compared in double first: a from_s past the series would overflow the
  // cast.
  const double skipped = std::floor(from_s / control_period_s);
  const std::size_t first = skipped >= static_cast<double>(series.size())
                                ? series.size()
                                : static_cast<std::size_t>(skipped);
  util::RunningStats stats;
  for (std::size_t k = first; k < series.size(); ++k) stats.add(series[k]);
  return stats;
}

AppStack::AppStack(sim::Simulation& sim, AppStackConfig config)
    : sim_(sim),
      config_(std::move(config)),
      app_(std::make_unique<app::MultiTierApp>(sim_, config_.app)),
      monitor_(config_.monitor_quantile, config_.metric),
      held_measurement_(config_.mpc.setpoint),
      sla_setpoint_(config_.mpc.setpoint) {
  app_->set_response_callback([this](double, double rt) {
    // Sensor fault hooks: a disabled injector (the default) early-outs on
    // both queries without touching its RNG, so the nominal path is
    // unchanged down to the bit.
    if (fault_ != nullptr && fault_->enabled()) {
      if (fault_->sensor_drops(sim_.now(), fault_index_)) {
        monitor_.note_dropped();
        return;
      }
      rt *= fault_->sensor_spike(sim_.now(), fault_index_);
    }
    monitor_.record(rt);
  });
  app_->set_allocations(
      std::vector<double>(app_->tier_count(), config_.initial_allocation_ghz));
}

AppStack::AppStack(sim::Simulation& sim, const control::ArxModel& model,
                   AppStackConfig config)
    : AppStack(sim,
               ResponseTimeController(
                   model, config.mpc,
                   std::vector<double>(config.app.tiers.size(), config.initial_allocation_ghz),
                   config.robust),
               config) {}

AppStack::AppStack(sim::Simulation& sim, const ResponseTimeController& controller,
                   AppStackConfig config)
    : AppStack(sim, std::move(config)) {
  if (controller.current_demands().size() != app_->tier_count()) {
    throw std::invalid_argument("AppStack: controller width differs from the tier count");
  }
  controller_ = std::make_unique<ResponseTimeController>(controller);
  if (config_.supervisor.enabled) {
    supervisor_.emplace(config_.supervisor, app_->tier_count());
  }
}

AppStack::AppStack(sim::Simulation& sim, AppStackConfig config, Policy policy)
    : AppStack(sim, std::move(config)) {
  if (!policy) throw std::invalid_argument("AppStack: empty policy");
  if (config_.supervisor.enabled) {
    // The supervisor reasons about the MPC's saturation against c_max; a
    // policy stack has neither.
    throw std::invalid_argument("AppStack: supervisor requires MPC mode");
  }
  policy_ = std::move(policy);
}

void AppStack::bind_recorder(telemetry::Recorder* recorder, std::size_t app_index) {
  recorder_ = recorder;
  if (recorder_ == nullptr) return;
  response_series_ = recorder_->declare_scalar(response_series_name(app_index));
  allocation_series_ = recorder_->declare_vector(allocation_series_name(app_index));
  replica_series_ = recorder_->declare_vector(replica_series_name(app_index));
}

void AppStack::set_fault_injector(fault::FaultInjector* injector, std::uint32_t app_index) {
  fault_ = injector;
  fault_index_ = app_index;
  // The sensor queries below draw from the injector's per-app stream; make
  // sure it exists now, while we are still serial.
  if (injector != nullptr && injector->enabled()) {
    injector->prepare_sensor_streams(app_index + 1);
  }
}

void AppStack::start() { app_->start(); }

void AppStack::start_control_loop() {
  if (loop_started_) return;
  loop_started_ = true;
  start();
  sim_.schedule_after(config_.mpc.period_s, [this] { loop_tick(); });
}

void AppStack::loop_tick() {
  apply_allocations(control_tick());
  apply_scaling();
  sim_.schedule_after(config_.mpc.period_s, [this] { loop_tick(); });
}

std::vector<double> AppStack::control_tick() {
  const std::optional<app::PeriodStats> stats = harvest_tick();
  std::vector<double> demands = decide_tick(stats);
  record_decision(demands);
  return demands;
}

std::optional<app::PeriodStats> AppStack::harvest_tick() {
  if (fault_ != nullptr && fault_->enabled() &&
      fault_->sensor_stale(sim_.now(), fault_index_)) {
    monitor_.mark_stale();
  }
  const std::optional<app::PeriodStats> stats = monitor_.harvest();
  // Record BEFORE deciding so an empty period logs the held (previous)
  // measurement, exactly as the controller perceives it. A stale period's
  // numbers are old news, so the held value is what gets logged too.
  const bool fresh = stats && stats->count > 0 && !stats->stale;
  if (recorder_ != nullptr) {
    recorder_->append_at(response_series_, sim_.now(),
                         fresh ? stats->controlled : last_measurement());
  }
  if (fresh) held_measurement_ = stats->controlled;
  return stats;
}

std::vector<double> AppStack::decide_tick(const std::optional<app::PeriodStats>& stats) {
  std::vector<double> demands = controller_ ? controller_->control(stats) : policy_(stats);
  if (supervisor_) {
    // Outer discrete decision: replica counts, from this stack's state only
    // (parallel-safe). Applied later in the serial phase — apply_scaling()
    // standalone, or the owner via take_scale_decisions().
    replica_status_.clear();
    for (std::size_t j = 0; j < app_->tier_count(); ++j) {
      replica_status_.push_back(app_->replica_status(j));
    }
    pending_scale_ =
        supervisor_->decide(controller_->last_measurement(), sla_setpoint_, demands,
                            controller_->mpc().config().c_max, replica_status_);
  }
  return demands;
}

void AppStack::record_decision(std::span<const double> demands) {
  if (recorder_ == nullptr) return;
  recorder_->append(allocation_series_, demands);
  replica_row_.clear();
  for (std::size_t j = 0; j < app_->tier_count(); ++j) {
    replica_row_.push_back(static_cast<double>(app_->replica_status(j).target));
  }
  recorder_->append(replica_series_, replica_row_);
}

std::vector<ScaleDecision> AppStack::take_scale_decisions() {
  return std::exchange(pending_scale_, {});
}

void AppStack::apply_scaling() {
  for (const ScaleDecision& decision : pending_scale_) {
    if (decision.delta > 0) {
      app_->scale_out(decision.tier);
    } else if (decision.delta < 0) {
      app_->scale_in(decision.tier);
    }
  }
  pending_scale_.clear();
}

void AppStack::apply_allocation(std::size_t tier, double ghz) {
  app_->set_allocation(tier, ghz);
}

void AppStack::apply_allocations(std::span<const double> ghz) {
  app_->set_allocations(ghz);
}

void AppStack::apply_replica_allocation(std::size_t tier, std::size_t slot, double ghz) {
  app_->set_replica_allocation(tier, slot, ghz);
}

double AppStack::last_measurement() const noexcept {
  return controller_ ? controller_->last_measurement() : held_measurement_;
}

void AppStack::set_setpoint(double setpoint_s) {
  if (!controller_) throw std::logic_error("AppStack: policy-driven stack has no setpoint");
  sla_setpoint_ = setpoint_s;
  controller_->set_setpoint(setpoint_s);
}

}  // namespace vdc::core
