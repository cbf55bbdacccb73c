// One application's complete control stack: the simulated multi-tier app
// (plant), the response-time monitor (sensor), and the MPC response-time
// controller (decision) with all their wiring — response callback, initial
// allocations, and the per-period control tick. This used to be duplicated
// across `core::Testbed` and half a dozen benchmark mains; both now compose
// an AppStack instead.
//
// Two usage modes:
//   * standalone — `start_control_loop()` self-schedules a tick every
//     control period and applies the controller's demands directly (no
//     server arbitration); the figure sweeps run this way.
//   * embedded — the owner (Testbed) calls `control_tick()` each period to
//     obtain the CPU *demands*, arbitrates them per server, and pushes the
//     granted allocations back through `apply_allocation`.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "app/monitor.hpp"
#include "app/multi_tier_app.hpp"
#include "control/mpc.hpp"
#include "control/robust.hpp"
#include "core/response_time_controller.hpp"
#include "core/supervisor.hpp"
#include "fault/injector.hpp"
#include "sim/simulation.hpp"
#include "telemetry/recorder.hpp"
#include "util/statistics.hpp"

namespace vdc::core {

struct AppStackConfig {
  app::AppConfig app;                    ///< plant (name, seed, concurrency, tiers)
  double monitor_quantile = 0.9;         ///< the paper's 90-percentile SLA
  app::SlaMetric metric = app::SlaMetric::kQuantile;
  /// MPC tuning; `period_s` is the control period and `setpoint` the SLA.
  control::MpcConfig mpc;
  double initial_allocation_ghz = 0.6;   ///< per-tier starting allocation
  /// Horizontal-scaling supervisor (outer discrete loop). Disabled by
  /// default: replica counts stay at their configured initial values. MPC
  /// mode only.
  SupervisorConfig supervisor;
  /// Robust controller variant (Makridis-style gain derating, setpoint
  /// margin, spike filter, release rate limit). nullopt = nominal MPC.
  std::optional<control::RobustConfig> robust;
};

/// Canonical names of the series every AppStack records once per control
/// period: "app<i>/p90" (scalar), "app<i>/alloc" (vector, per-tier CPU
/// demands) and "app<i>/replicas" (vector, per-tier committed replica
/// counts).
[[nodiscard]] std::string response_series_name(std::size_t app_index);
[[nodiscard]] std::string allocation_series_name(std::size_t app_index);
[[nodiscard]] std::string replica_series_name(std::size_t app_index);

/// Statistics over app `app_index`'s response samples in `recorder` after
/// `from_s` (skip settling): the first floor(from_s / control_period_s)
/// samples are left out. Throws std::invalid_argument for a negative or
/// non-finite `from_s`.
[[nodiscard]] util::RunningStats response_stats_after(const telemetry::Recorder& recorder,
                                                      std::size_t app_index, double from_s,
                                                      double control_period_s);

class AppStack {
 public:
  /// Replaces the MPC with an arbitrary per-period decision (e.g. a static
  /// allocation baseline). Must map the period's monitor harvest to the
  /// per-tier demands; stateless policies are safe to share across
  /// scenarios that run in parallel.
  using Policy = std::function<std::vector<double>(const std::optional<app::PeriodStats>&)>;

  /// MPC-controlled stack; `model` is copied into the controller.
  AppStack(sim::Simulation& sim, const control::ArxModel& model, AppStackConfig config);
  /// MPC-controlled stack driven by a copy of `controller`, which shares
  /// the original's constant QP data (control::MpcProblem). Lets an owner
  /// with many identical applications factor the QP once. The controller
  /// must drive one input per tier; its state is taken as is, so pass one
  /// that has not stepped yet. `config.mpc` and `config.robust` should be
  /// the ones it was built from.
  AppStack(sim::Simulation& sim, const ResponseTimeController& controller,
           AppStackConfig config);
  /// Policy-driven stack (no model, no MPC).
  AppStack(sim::Simulation& sim, AppStackConfig config, Policy policy);

  AppStack(const AppStack&) = delete;
  AppStack& operator=(const AppStack&) = delete;

  /// Streams the per-period response, allocation and replica samples into
  /// `recorder` under app `app_index`'s canonical series names. Call before
  /// the first tick.
  void bind_recorder(telemetry::Recorder* recorder, std::size_t app_index);

  /// Routes this stack's sensor path through a fault injector: response
  /// samples may be dropped or spiked, and whole periods flagged stale
  /// (which degrades the controller to a hold). `app_index` is the target
  /// id sensor fault windows match against. The injector must outlive the
  /// stack; pass nullptr to detach.
  void set_fault_injector(fault::FaultInjector* injector, std::uint32_t app_index);

  /// Starts the client population (call once before running the simulation).
  void start();

  /// Standalone mode: starts the app and self-schedules a control tick
  /// every period, applying the decided demands directly to the tiers.
  void start_control_loop();

  /// One control period: harvests the monitor, records telemetry, and
  /// returns the decided per-tier CPU demands (GHz). Does NOT apply them —
  /// the caller either applies them verbatim (standalone) or grants
  /// arbitrated allocations via `apply_allocation`. Equivalent to
  /// harvest_tick() + decide_tick() + record_decision().
  [[nodiscard]] std::vector<double> control_tick();

  // ---- split control tick (parallel control plane) -----------------------
  // `control_tick` decomposed into three phases so an owner driving many
  // stacks can run each phase for many stacks at once. Call order per
  // period: harvest_tick, decide_tick, record_decision. Each phase touches
  // only this stack's state: its app and monitor, its controller or
  // policy, its own series (appended by id) and its own stream of the fault
  // injector. So a phase may run concurrently across stacks, and the
  // Testbed runs harvest and record per shard in parallel. The composition
  // is bit-identical to control_tick().

  /// Harvests the monitor, applies sensor-fault staleness, records the
  /// response sample, and updates the held measurement.
  [[nodiscard]] std::optional<app::PeriodStats> harvest_tick();

  /// Pure decision: maps the harvested stats to per-tier CPU demands via
  /// the MPC controller (or policy). Mutates only this stack's controller
  /// state.
  [[nodiscard]] std::vector<double> decide_tick(const std::optional<app::PeriodStats>& stats);

  /// Appends the decided demands to the allocation telemetry and the
  /// replica counts to the replica telemetry.
  void record_decision(std::span<const double> demands);

  void apply_allocation(std::size_t tier, double ghz);
  void apply_allocations(std::span<const double> ghz);
  /// Grants an arbitrated allocation to ONE replica slot (an embedding
  /// owner maps each replica to its own VM, so grants arrive per VM).
  void apply_replica_allocation(std::size_t tier, std::size_t slot, double ghz);

  // ---- horizontal scaling ------------------------------------------------

  /// Scale decisions produced by the supervisor during the last
  /// decide_tick(), not yet applied. Standalone mode applies them itself
  /// via apply_scaling(); an embedding owner (Testbed) takes them here and
  /// performs the cluster-side bookkeeping (VM creation/retirement) around
  /// the app-side scale_out/scale_in calls.
  [[nodiscard]] std::vector<ScaleDecision> take_scale_decisions();
  /// Applies (and clears) the pending scale decisions directly to the app.
  void apply_scaling();
  [[nodiscard]] const ScalingSupervisor* supervisor() const noexcept {
    return supervisor_ ? &*supervisor_ : nullptr;
  }

  [[nodiscard]] app::MultiTierApp& app() noexcept { return *app_; }
  [[nodiscard]] const app::MultiTierApp& app() const noexcept { return *app_; }
  [[nodiscard]] app::ResponseTimeMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] const app::ResponseTimeMonitor& monitor() const noexcept { return monitor_; }
  /// Null for policy-driven stacks.
  [[nodiscard]] ResponseTimeController* controller() noexcept { return controller_.get(); }
  [[nodiscard]] const ResponseTimeController* controller() const noexcept {
    return controller_.get();
  }

  [[nodiscard]] std::size_t tier_count() const noexcept { return app_->tier_count(); }
  [[nodiscard]] double control_period_s() const noexcept { return config_.mpc.period_s; }
  /// The SLA value of the last non-empty period (the controller's held
  /// measurement in MPC mode).
  [[nodiscard]] double last_measurement() const noexcept;

  void set_setpoint(double setpoint_s);
  void set_concurrency(std::size_t concurrency) { app_->set_concurrency(concurrency); }

 private:
  AppStack(sim::Simulation& sim, AppStackConfig config);  // shared wiring
  void loop_tick();

  sim::Simulation& sim_;
  AppStackConfig config_;
  std::unique_ptr<app::MultiTierApp> app_;
  app::ResponseTimeMonitor monitor_;
  std::unique_ptr<ResponseTimeController> controller_;
  Policy policy_;
  std::optional<ScalingSupervisor> supervisor_;
  std::vector<ScaleDecision> pending_scale_;
  telemetry::Recorder* recorder_ = nullptr;
  telemetry::Recorder::SeriesId response_series_{};
  telemetry::Recorder::SeriesId allocation_series_{};
  telemetry::Recorder::SeriesId replica_series_{};
  /// Reused per-tick buffers: the supervisor's replica-set view and the
  /// replica telemetry row.
  std::vector<app::ReplicaSetStatus> replica_status_;
  std::vector<double> replica_row_;
  fault::FaultInjector* fault_ = nullptr;
  std::uint32_t fault_index_ = 0;
  double held_measurement_;  // policy mode's substitute for the controller's
  double sla_setpoint_;      // unscaled SLA (the robust MPC tracks a margin of it)
  bool loop_started_ = false;
};

}  // namespace vdc::core
