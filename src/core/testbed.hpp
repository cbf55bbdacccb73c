// The hardware-testbed equivalent (Section VI-A): a small cluster of
// virtualized servers hosting several two-tier RUBBoS-like applications,
// each under its own MPC response-time controller, with per-server CPU
// arbitration and DVFS. This is the engine behind Figures 2-5.
//
// Structurally the Testbed is a thin composition: a `Cluster`, one
// `AppStack` per application (plant + monitor + controller) on its shard's
// event loop, one `Recorder` holding every series, and the optimizer tick
// for the two-level mode.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/app_stack.hpp"
#include "core/power_optimizer.hpp"
#include "core/sysid_experiment.hpp"
#include "datacenter/cluster.hpp"
#include "fault/injector.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulation.hpp"
#include "telemetry/recorder.hpp"
#include "util/statistics.hpp"
#include "util/thread_pool.hpp"

namespace vdc::core {

struct TestbedConfig {
  std::size_t num_apps = 8;
  std::size_t num_servers = 4;
  double control_period_s = 4.0;
  double setpoint_s = 1.0;          ///< 1000 ms, the paper's default SLA
  std::size_t concurrency = 40;     ///< `ab` concurrency level per app
  std::uint64_t seed = 7;
  bool dvfs = true;                 ///< let the arbitrator throttle CPUs
  /// MPC tuning shared by all applications; the setpoint field is
  /// overwritten with `setpoint_s` per controller.
  control::MpcConfig mpc{
      .prediction_horizon = 12,
      .control_horizon = 3,
      .q_weight = 1.0,
      .r_weight = {1.0},
      .period_s = 4.0,
      .tref_s = 16.0,
      .setpoint = 1.0,
      .c_min = {0.15},
      .c_max = {1.5},
      .delta_max = 0.3,
      .terminal = control::MpcConfig::Terminal::kSoft,
      .terminal_weight = 50.0,
      .disturbance_gain = 0.5,
  };
  /// Identification experiment; run once and shared by all controllers
  /// (the applications are instances of the same benchmark, as on the
  /// paper's testbed).
  SysIdExperimentConfig sysid;
  /// Pre-identified model: skips the identification experiment entirely.
  /// The ScenarioRunner uses this to share one model across a sweep.
  std::optional<control::ArxModel> model;

  // ---- data-center level (two-level integration, Section VII-A) ----------
  /// Run the power optimizer on the testbed cluster. Migrations follow live
  /// (pre-copy) semantics in the co-simulation: the VM keeps running on the
  /// source for the copy duration, then stalls for the stop-and-copy
  /// downtime before resuming on the destination.
  bool enable_optimizer = false;
  double optimizer_period_s = 300.0;
  ConsolidationAlgorithm optimizer_algorithm = ConsolidationAlgorithm::kIpac;
  double optimizer_utilization_target = 0.85;
  /// How long the optimizer refuses to re-propose moving a VM whose
  /// migration just failed (see OptimizerConfig::migration_backoff_s).
  double optimizer_migration_backoff_s = 600.0;
  /// Physical layout of the testbed servers. Empty (the default) keeps the
  /// cluster flat: no shared-infrastructure power, no rack coordinates, and
  /// byte-identical telemetry to the pre-topology testbed. Server ids in
  /// the topology must match the `num_servers` ids created here.
  datacenter::Topology topology;
  /// Budgeted rack-aware consolidation knobs forwarded to the optimizer
  /// (effective only when `topology` is non-empty and `.enabled` is set).
  consolidate::RackAwareOptions optimizer_rack;

  // ---- horizontal scaling (replica sets) ---------------------------------
  /// Replicas every tier of every application starts with; > 1 creates one
  /// VM per replica.
  std::size_t initial_replicas = 1;
  /// Hard per-tier replica cap forwarded to the applications.
  std::size_t max_replicas = 8;
  /// Boot delay of a scaled-out replica (kBooting -> kServing).
  double replica_boot_delay_s = 30.0;
  /// Supervisory replica controller (outer discrete loop) shared by all
  /// applications. Disabled by default.
  SupervisorConfig supervisor;
  /// Robust controller variant (gain derating, setpoint margin, spike
  /// filter, release rate limit). nullopt = nominal MPC.
  std::optional<control::RobustConfig> robust;

  // ---- control-plane parallelism ----------------------------------------
  /// With at least this many applications, the per-app MPC solves of a
  /// control tick are batched onto ThreadPool::shared() (the decide phase;
  /// harvest and telemetry run per shard, and a barrier precedes per-server
  /// arbitration, so results are bit-identical to the serial path). Below the threshold the solves run inline: at testbed
  /// scale (8 apps) the pool's wake/handoff overhead exceeds the solve
  /// cost. Set to 0 to force the parallel path, SIZE_MAX to disable it.
  std::size_t parallel_control_min_apps = 16;

  // ---- sharded engine (parallel workload advance) -------------------------
  /// Number of workload shards the applications are partitioned into (block
  /// partition: app i lands on shard i*shards/num_apps, so each shard owns
  /// a contiguous app range). Each shard has its own event loop, fault
  /// streams, and telemetry series, advanced concurrently between
  /// control-period barriers; telemetry, plans, and counters are
  /// bit-identical at any shard count (see DESIGN.md "Sharded engine").
  /// 0 is read as 1.
  std::size_t shards = 1;
  /// Worker cap for the parallel shard advance and the sharded
  /// harvest/record phases (0 = hardware concurrency).
  std::size_t shard_threads = 0;

  // ---- telemetry storage --------------------------------------------------
  /// Recorder storage: page-aged flat buffers, one per series. The default
  /// retention (64 pages of 256 samples) covers 65,536 s of 4 s periods, so
  /// the exports of shorter runs hold every appended sample.
  /// `sample_period_s` is overwritten with `control_period_s`.
  telemetry::RecorderConfig telemetry{.sample_period_s = 4.0};

  // ---- chaos (fault injection) -------------------------------------------
  /// Deterministic fault schedule threaded through the co-simulation:
  /// migration aborts/slowdowns, wake failures, server crashes, sensor
  /// dropout/spikes/staleness, DVFS pinning. The default (empty) plan
  /// disables every hook at zero cost: the simulation is bit-identical to a
  /// build without the fault layer, and the fault series read 0.
  fault::FaultPlan faults;
};

/// Cluster-level telemetry series recorded once per control period, on
/// every run.
inline constexpr const char* kPowerSeries = "cluster/power_w";
inline constexpr const char* kFrequencySeries = "cluster/freq_ghz_mean";
inline constexpr const char* kActiveServersSeries = "cluster/active_servers";
inline constexpr const char* kMigrationsInFlightSeries = "cluster/migrations_in_flight";
inline constexpr const char* kMigrationsCompletedSeries = "cluster/migrations_completed";
inline constexpr const char* kLiveVmsSeries = "cluster/live_vms";
inline constexpr const char* kFaultsInjectedSeries = "fault/injected_total";
inline constexpr const char* kFailedMigrationsSeries = "fault/failed_migrations";
/// The gauges among them, declared after the power series in this order.
inline constexpr std::array kGaugeSeries = {
    kFrequencySeries, kActiveServersSeries,  kMigrationsInFlightSeries, kMigrationsCompletedSeries,
    kLiveVmsSeries,   kFaultsInjectedSeries, kFailedMigrationsSeries,
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  /// Advances the co-simulation (control loop + applications) to absolute
  /// simulated time `until_s`. Callable repeatedly.
  void run_until(double until_s);

  [[nodiscard]] double now() const noexcept { return sim_.now(); }
  [[nodiscard]] std::size_t app_count() const noexcept { return stacks_.size(); }

  [[nodiscard]] app::MultiTierApp& application(std::size_t i) {
    return stacks_.at(i)->app();
  }
  [[nodiscard]] AppStack& app_stack(std::size_t i) { return *stacks_.at(i); }
  void set_setpoint(std::size_t app, double setpoint_s);
  void set_concurrency(std::size_t app, std::size_t concurrency);

  /// The identified model all controllers share, and its fit quality.
  [[nodiscard]] const control::ArxModel& identified_model() const noexcept { return model_; }
  [[nodiscard]] double model_r_squared() const noexcept { return model_r2_; }

  // ---- recorded series (one sample per control period) -------------------
  /// Every recorded series and the annotations, in canonical order: each
  /// app's p90, alloc and replicas series in app order, then the power
  /// series and the gauges (kGaugeSeries order). The layout is the same at
  /// any shard count.
  [[nodiscard]] telemetry::Recorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const telemetry::Recorder& recorder() const noexcept { return recorder_; }
  /// Moves the recorder out. The testbed's own series accessors are dead
  /// afterwards; call once when the run is over.
  [[nodiscard]] telemetry::Recorder take_recorder() { return std::move(recorder_); }
  [[nodiscard]] const std::vector<double>& response_series(std::size_t app) const;
  [[nodiscard]] const std::vector<double>& power_series() const;
  [[nodiscard]] telemetry::Recorder::RowsView allocation_series(std::size_t app) const;
  /// Statistics over periods recorded after `from_s` (skip settling).
  [[nodiscard]] util::RunningStats response_stats_after(std::size_t app, double from_s) const;

  [[nodiscard]] const datacenter::Cluster& cluster() const noexcept { return cluster_; }
  /// The control-plane spine loop. External schedule events (setpoint and
  /// concurrency changes) belong here: they execute in the serial phase of
  /// every barrier, at any shard count.
  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }
  [[nodiscard]] const sim::ShardedEngine& engine() const noexcept { return engine_; }
  /// The engine itself, so a caller can step its loops event by event (a
  /// run_until that never returns cannot be observed). Stepping must
  /// replay run_until's barrier order: a shard's events up to a barrier,
  /// then the spine's.
  [[nodiscard]] sim::ShardedEngine& engine() noexcept { return engine_; }
  /// Live migrations completed so far (two-level mode).
  [[nodiscard]] std::size_t completed_migrations() const noexcept {
    return completed_migrations_;
  }
  [[nodiscard]] std::size_t optimizer_invocations() const noexcept {
    return optimizer_invocations_;
  }

  // ---- fault observability -----------------------------------------------
  [[nodiscard]] const fault::FaultInjector& fault_injector() const noexcept {
    return injector_;
  }
  [[nodiscard]] const PowerOptimizer& optimizer() const noexcept { return optimizer_; }
  /// Migrations that rolled back (injected abort, wake failure, or a crash
  /// under the copy phase).
  [[nodiscard]] std::size_t failed_migrations() const noexcept { return failed_migrations_; }
  /// Crash-evicted VMs restarted on a new server by the optimizer.
  [[nodiscard]] std::size_t vm_restarts() const noexcept { return restarts_; }

  /// Supervisor-driven replica churn, summed over all applications.
  [[nodiscard]] std::uint64_t scale_out_count() const noexcept;
  [[nodiscard]] std::uint64_t scale_in_count() const noexcept;

 private:
  void control_tick();
  void optimizer_tick();
  void run_optimizer_pass();
  void start_migration(datacenter::VmId vm, datacenter::ServerId to);
  void start_restart(datacenter::VmId vm, datacenter::ServerId to);
  void fail_migration(datacenter::VmId vm, const std::string& label);
  void crash_server(datacenter::ServerId id);
  void repair_crashed_server(datacenter::ServerId id);
  void crash_rack(datacenter::RackId id);
  void repair_rack(datacenter::RackId id);
  /// Every caller is a fault path (crash, rack failure, failed migration or
  /// wake, restart), so a healthy run records no annotations.
  void annotate(const std::string& label);
  void apply_tier_allocation(datacenter::VmId vm, double ghz);
  void record_power(double now);
  /// Creates the cluster VM backing one app-side replica slot.
  datacenter::VmId create_replica_vm(std::size_t app, std::size_t tier, std::size_t slot);
  /// App-side retire callback: tombstones the backing VM.
  void on_replica_retired(std::size_t app, std::size_t tier, std::size_t slot);
  /// Applies the supervisors' pending replica decisions (serial phase).
  void apply_scale_decisions();
  [[nodiscard]] datacenter::ServerId pick_replica_host();
  /// Runs `body(i)` for every application, one parallel task per shard
  /// (apps in index order within each shard). The body must only touch
  /// app-local / shard-local state.
  template <typename Body>
  void for_each_shard_apps(const Body& body) {
    const std::size_t apps = stacks_.size();
    const std::size_t shards = engine_.shard_count();
    util::parallel_for(
        shards,
        [&](std::size_t s) {
          // Inverse of the block partition shard_of_app(i) = i*shards/apps:
          // shard s owns apps [ceil(s*apps/shards), ceil((s+1)*apps/shards)).
          const std::size_t lo = (s * apps + shards - 1) / shards;
          const std::size_t hi = ((s + 1) * apps + shards - 1) / shards;
          for (std::size_t i = lo; i < hi; ++i) body(i);
        },
        config_.shard_threads);
  }
  /// Block partition: the shard owning app `i`.
  [[nodiscard]] std::size_t shard_of_app(std::size_t i) const noexcept {
    return i * engine_.shard_count() / config_.num_apps;
  }

  TestbedConfig config_;
  sim::ShardedEngine engine_;
  sim::Simulation& sim_;  ///< the control-plane spine (engine_.spine())
  datacenter::Cluster cluster_;
  std::vector<std::unique_ptr<AppStack>> stacks_;
  /// vm_ids_[app][tier][replica slot] -> VmId in cluster_ (kNoVm for a
  /// retired/free slot; a reused slot gets a fresh VM).
  std::vector<std::vector<std::vector<datacenter::VmId>>> vm_ids_;
  /// Inverse map: VmId -> {app, tier, replica}, so allocation push-down is
  /// O(1) per VM instead of a scan over every application's VM list.
  struct VmSlot {
    std::size_t app = 0;
    std::size_t tier = 0;
    std::size_t replica = 0;
  };
  std::vector<VmSlot> vm_slots_;
  control::ArxModel model_;
  double model_r2_ = 0.0;
  /// Every series, declared in the constructor. The sharded harvest and
  /// record phases append by id to their own apps' series at once; that is
  /// race-free because an id append touches only its own deque element and
  /// no series is declared after construction.
  telemetry::Recorder recorder_;
  telemetry::Recorder::SeriesId power_series_{};
  std::array<telemetry::Recorder::SeriesId, kGaugeSeries.size()> gauge_series_{};
  /// Control-tick buffers, reused across ticks: the per-app harvest and
  /// decision, and the per-server work of record_power.
  std::vector<std::optional<app::PeriodStats>> harvested_;
  std::vector<std::vector<double>> decided_;
  std::vector<double> server_work_;
  /// Serializes replica retirement (cluster tombstone + slot bookkeeping):
  /// drained replicas retire from inside their shard's advance, possibly
  /// concurrently across shards. The retire operations commute, so the
  /// outcome is deterministic regardless of arrival order.
  std::mutex retire_mutex_;
  fault::FaultInjector injector_;
  PowerOptimizer optimizer_;
  double last_power_time_s_ = 0.0;
  std::vector<double> last_work_done_;  // per VmId, Gcycles
  bool loop_started_ = false;
  std::size_t migrations_in_flight_ = 0;
  std::size_t completed_migrations_ = 0;
  std::size_t optimizer_invocations_ = 0;
  std::size_t failed_migrations_ = 0;
  std::size_t restarts_ = 0;
};

}  // namespace vdc::core
