// Declarative experiment scenarios. A `ScenarioSpec` describes one
// independent run — which engine (a standalone AppStack or the full
// Testbed co-simulation), how long, which setpoint/concurrency schedule,
// and which seed — and `ScenarioRunner::run_all` executes a table of specs
// in parallel with `util::parallel_for`. Each scenario owns its private
// `sim::Simulation` and RNG stream, so results are bit-identical across
// runs and thread counts: the figure sweeps (fig4/fig5), multi-scenario
// figures (fig3), and ablation grids are all spec tables now.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/app_stack.hpp"
#include "core/testbed.hpp"
#include "fault/plan.hpp"
#include "telemetry/recorder.hpp"
#include "util/statistics.hpp"

namespace vdc::core {

/// Scheduled SLA set-point change (testbed engine: per application).
struct SetpointEvent {
  double time_s = 0.0;
  std::size_t app = 0;
  double setpoint_s = 1.0;
};

/// Scheduled workload change (the `ab` concurrency level).
struct ConcurrencyEvent {
  double time_s = 0.0;
  std::size_t app = 0;
  std::size_t concurrency = 40;
};

struct ScenarioSpec {
  std::string name = "scenario";

  enum class Engine {
    kAppStack,  ///< one application, demands applied directly (no cluster)
    kTestbed,   ///< the full co-simulation: cluster, arbitration, optimizer
  };
  Engine engine = Engine::kAppStack;

  AppStackConfig stack;    ///< engine == kAppStack
  TestbedConfig testbed;   ///< engine == kTestbed

  /// Pre-identified ARX model shared across the sweep (identified once, as
  /// the paper does for Figures 4/5). When absent, a standalone scenario
  /// identifies its own model from `stack.app` with the default
  /// identification experiment; the testbed engine identifies internally
  /// with `testbed.sysid`.
  std::optional<control::ArxModel> model;

  /// Per-period decision override for standalone scenarios (e.g. a static
  /// provisioning baseline). Leave empty to use the MPC. Must be safe to
  /// call from the runner's worker thread; stateless lambdas are.
  AppStack::Policy policy;

  double duration_s = 1200.0;
  /// Deterministic per-scenario seed; when nonzero it overrides
  /// `stack.app.seed` / `testbed.seed`.
  std::uint64_t seed = 0;

  /// Deterministic fault schedule. For the testbed engine this is copied
  /// into `testbed.faults` (every fault kind applies); for the standalone
  /// engine a scenario-private injector drives the sensor fault kinds
  /// (drop/spike/stale — there is no cluster to crash). The default empty
  /// plan leaves results byte-identical to a fault-free build.
  fault::FaultPlan faults;

  std::vector<SetpointEvent> setpoint_schedule;
  std::vector<ConcurrencyEvent> concurrency_schedule;
};

struct ScenarioResult {
  std::string name;
  telemetry::Recorder recorder;      ///< every series the scenario recorded
  double control_period_s = 4.0;
  std::size_t app_count = 0;
  double model_r_squared = 0.0;
  std::size_t completed_migrations = 0;
  std::size_t optimizer_invocations = 0;

  // ---- fault/chaos observability (zero when the plan was empty) ----------
  /// Per-kind injected fault totals, copied from the scenario's injector.
  fault::FaultCounters faults;
  /// Migrations that rolled back or never started (testbed engine).
  std::size_t failed_migrations = 0;
  /// Crash-evicted VMs the optimizer restarted elsewhere (testbed engine).
  std::size_t vm_restarts = 0;
  /// Control periods where the MPC held its last allocation because the
  /// sensor pipeline was stale (summed over apps).
  std::size_t stale_holds = 0;

  // ---- horizontal scaling (zero unless the supervisor is enabled) --------
  /// Replica scale-out / scale-in events, summed over apps and tiers.
  std::uint64_t scale_outs = 0;
  std::uint64_t scale_ins = 0;

  [[nodiscard]] const std::vector<double>& response_series(std::size_t app = 0) const;
  [[nodiscard]] telemetry::Recorder::RowsView allocation_series(std::size_t app = 0) const;
  /// Cluster power per period (testbed engine only).
  [[nodiscard]] const std::vector<double>& power_series() const;
  /// Statistics over response samples recorded after `from_s`.
  [[nodiscard]] util::RunningStats response_stats_after(std::size_t app,
                                                        double from_s) const;
};

class ScenarioRunner {
 public:
  /// `threads` = 0 uses the hardware concurrency.
  explicit ScenarioRunner(std::size_t threads = 0) noexcept : threads_(threads) {}

  /// Executes one scenario to completion (always serial).
  [[nodiscard]] ScenarioResult run(const ScenarioSpec& spec) const;

  /// Executes independent scenarios in parallel, one parallel_for
  /// iteration each, on up to `threads` threads. Results come back in spec
  /// order and are identical to a serial run. A spec that throws makes the
  /// call rethrow the first exception caught.
  [[nodiscard]] std::vector<ScenarioResult> run_all(
      std::span<const ScenarioSpec> specs) const;

 private:
  std::size_t threads_;
};

}  // namespace vdc::core
