#include "core/testbed.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace vdc::core {

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      engine_(std::max<std::size_t>(config_.shards, 1), config_.shard_threads),
      sim_(engine_.spine()),
      cluster_({}, datacenter::CpuResourceArbitrator(1.1), config_.dvfs),
      injector_(config_.faults),
      optimizer_(OptimizerConfig{
          .algorithm = config_.optimizer_algorithm,
          .utilization_target = config_.optimizer_utilization_target,
          .ipac = {},
          .migration_backoff_s = config_.optimizer_migration_backoff_s,
          .rack = config_.optimizer_rack,
      }) {
  if (config_.num_apps == 0 || config_.num_servers == 0) {
    throw std::invalid_argument("Testbed: need at least one app and one server");
  }
  // A zero period would reschedule every control tick at the same instant,
  // so run_until would never return.
  if (!(std::isfinite(config_.control_period_s) && config_.control_period_s > 0.0)) {
    throw std::invalid_argument("Testbed: control_period_s must be finite and > 0");
  }
  if (!(std::isfinite(config_.setpoint_s) && config_.setpoint_s > 0.0)) {
    throw std::invalid_argument("Testbed: setpoint_s must be finite and > 0");
  }
  if (config_.enable_optimizer &&
      !(std::isfinite(config_.optimizer_period_s) && config_.optimizer_period_s > 0.0)) {
    throw std::invalid_argument(
        "Testbed: optimizer_period_s must be finite and > 0 when the optimizer is enabled");
  }

  // The telemetry sink. The sample period follows the control period
  // (every series here records once per control tick). Every series is
  // declared below, before any phase runs in parallel.
  config_.telemetry.sample_period_s = config_.control_period_s;
  recorder_ = telemetry::Recorder(config_.telemetry);

  if (config_.model) {
    model_ = *config_.model;
    model_r2_ = 1.0;  // externally identified; fit quality unknown here
  } else {
    // Identify the shared response-time model on a staging copy of the app.
    const app::AppConfig staging =
        app::default_two_tier_app("staging", config_.seed + 1000, config_.concurrency);
    SysIdExperimentResult sysid = identify_app_model(staging, config_.sysid);
    model_ = std::move(sysid.model);
    model_r2_ = sysid.r_squared;
    util::Log(util::LogLevel::kInfo, "testbed")
        << "identified ARX model, R^2 = " << model_r2_;
  }

  // Cluster: the testbed machines (2 GHz dual-core class).
  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    cluster_.add_server(datacenter::Server(datacenter::dual_core_2ghz(),
                                           datacenter::power_model_dual_2ghz(),
                                           /*memory_mb=*/8192.0));
  }
  if (!config_.topology.empty()) cluster_.set_topology(config_.topology);

  // One AppStack (application + monitor + controller) per application.
  AppStackConfig stack;
  stack.mpc = config_.mpc;
  stack.mpc.period_s = config_.control_period_s;
  stack.mpc.setpoint = config_.setpoint_s;
  stack.supervisor = config_.supervisor;
  stack.robust = config_.robust;

  // Initial placement: one VM per replica, spread round-robin over the
  // servers. With one replica per tier the cursor visits exactly the
  // (i * tiers + j) % num_servers sequence of the pre-replication build.
  std::size_t placement_cursor = 0;
  // Every application shares the model, the MPC tuning and the initial
  // allocations, so one controller is built and each stack copies it: the
  // copies share a single factored QP (control::MpcProblem).
  std::optional<ResponseTimeController> controller;
  for (std::size_t i = 0; i < config_.num_apps; ++i) {
    stack.app = app::default_two_tier_app("app" + std::to_string(i + 1),
                                          config_.seed + i, config_.concurrency);
    if (!controller) {
      controller.emplace(model_, stack.mpc,
                         std::vector<double>(stack.app.tiers.size(),
                                             stack.initial_allocation_ghz),
                         stack.robust);
    }
    for (app::TierConfig& tier : stack.app.tiers) {
      tier.initial_replicas = config_.initial_replicas;
      tier.max_replicas = std::max(config_.max_replicas, config_.initial_replicas);
      tier.boot_delay_s = config_.replica_boot_delay_s;
    }
    // The app's entire workload (client population, PS queues, replica
    // boots) lives on its shard's event loop; only control-plane events
    // touch the spine.
    auto app_stack =
        std::make_unique<AppStack>(engine_.shard(shard_of_app(i)), *controller, stack);
    app_stack->bind_recorder(&recorder_, i);

    const std::size_t tiers = app_stack->tier_count();
    std::vector<std::vector<datacenter::VmId>> ids(tiers);
    for (std::size_t j = 0; j < tiers; ++j) {
      for (std::size_t r = 0; r < stack.app.tiers[j].initial_replicas; ++r) {
        datacenter::Vm vm;
        vm.name = app_stack->app().name() + (j == 0 ? "-web" : "-db");
        if (r > 0) vm.name += "-r" + std::to_string(r);
        vm.role = j == 0 ? "web" : "db";
        vm.cpu_demand_ghz = stack.initial_allocation_ghz;
        vm.memory_mb = 1024.0;
        const auto server =
            static_cast<datacenter::ServerId>(placement_cursor++ % config_.num_servers);
        ids[j].push_back(cluster_.add_vm(vm, server));
      }
    }
    vm_ids_.push_back(std::move(ids));
    stacks_.push_back(std::move(app_stack));
  }
  for (std::size_t i = 0; i < vm_ids_.size(); ++i) {
    for (std::size_t j = 0; j < vm_ids_[i].size(); ++j) {
      for (std::size_t r = 0; r < vm_ids_[i][j].size(); ++r) {
        const datacenter::VmId vm = vm_ids_[i][j][r];
        if (vm >= vm_slots_.size()) vm_slots_.resize(vm + 1);
        vm_slots_[vm] = VmSlot{i, j, r};
      }
    }
    // Cluster-side bookkeeping around app-side retirement: the backing VM
    // is tombstoned the moment a drained replica goes away.
    stacks_[i]->app().set_replica_retired_callback(
        [this, i](std::size_t tier, std::size_t slot) { on_replica_retired(i, tier, slot); });
  }
  last_work_done_.assign(cluster_.vm_count(), 0.0);
  power_series_ = recorder_.declare_scalar(kPowerSeries);

  // Cluster-level gauges appended at the end of every control tick.
  for (std::size_t g = 0; g < kGaugeSeries.size(); ++g) {
    gauge_series_[g] = recorder_.declare_scalar(kGaugeSeries[g]);
  }

  // Chaos wiring: sensor faults route through the app stacks. Without a
  // plan the stacks never query the injector.
  if (injector_.enabled()) {
    // Per-app sensor streams, derived via splitmix64, so drop/spike draws
    // from concurrently advancing shards are race-free and the fault
    // sequence is shard-count-invariant.
    injector_.prepare_sensor_streams(static_cast<std::uint32_t>(config_.num_apps));
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      stacks_[i]->set_fault_injector(&injector_, static_cast<std::uint32_t>(i));
    }
  }
}

void Testbed::annotate(const std::string& label) { recorder_.annotate(sim_.now(), label); }

void Testbed::apply_tier_allocation(datacenter::VmId vm, double ghz) {
  // A VM retired between decision and grant (scale-in finishing mid-period,
  // or a crash/migration lambda firing late) backs no live replica anymore.
  if (cluster_.vm_retired(vm)) return;
  const VmSlot& slot = vm_slots_.at(vm);
  stacks_[slot.app]->apply_replica_allocation(slot.tier, slot.replica, ghz);
}

datacenter::ServerId Testbed::pick_replica_host() {
  // Least-loaded active server; a fully asleep cluster wakes one box.
  datacenter::ServerId best = datacenter::kNoServer;
  double best_demand_ghz = 0.0;
  for (const datacenter::ServerId s : cluster_.awake_servers()) {
    const double demand = cluster_.server_cpu_demand_ghz(s);
    if (best == datacenter::kNoServer || demand < best_demand_ghz) {
      best = s;
      best_demand_ghz = demand;
    }
  }
  if (best == datacenter::kNoServer) {
    for (datacenter::ServerId s = 0; s < cluster_.server_count(); ++s) {
      if (!cluster_.server(s).failed() && cluster_.wake(s)) return s;
    }
    throw std::logic_error("Testbed: no server available for a new replica");
  }
  return best;
}

datacenter::VmId Testbed::create_replica_vm(std::size_t app, std::size_t tier,
                                            std::size_t slot) {
  datacenter::Vm vm;
  vm.name = stacks_[app]->app().name() + (tier == 0 ? "-web" : "-db") + "-r" +
            std::to_string(slot);
  vm.role = tier == 0 ? "web" : "db";
  // A booting replica consumes its (inherited) allocation from the start.
  vm.cpu_demand_ghz = stacks_[app]->app().replica_allocation(tier, slot);
  vm.memory_mb = 1024.0;
  const datacenter::VmId id = cluster_.add_vm(vm, pick_replica_host());
  if (vm_ids_[app][tier].size() <= slot) {
    vm_ids_[app][tier].resize(slot + 1, datacenter::kNoVm);
  }
  vm_ids_[app][tier][slot] = id;
  if (id >= vm_slots_.size()) vm_slots_.resize(id + 1);
  vm_slots_[id] = VmSlot{app, tier, slot};
  if (id >= last_work_done_.size()) last_work_done_.resize(id + 1, 0.0);
  // Queues are reused across slot generations, so the work counter is
  // cumulative: seed the baseline so only post-creation work is billed.
  last_work_done_[id] = stacks_[app]->app().replica_work_done_gcycles(tier, slot);
  return id;
}

void Testbed::on_replica_retired(std::size_t app, std::size_t tier, std::size_t slot) {
  // A drained replica retires from inside its shard's advance, so two
  // shards can land here at once. The lock serializes the cluster tombstone
  // (`retired_` is a bitfield) and the slot bookkeeping; retirements of
  // distinct VMs commute, so arrival order cannot change the outcome.
  const std::lock_guard<std::mutex> lock(retire_mutex_);
  if (slot >= vm_ids_[app][tier].size()) return;
  const datacenter::VmId vm = vm_ids_[app][tier][slot];
  if (vm == datacenter::kNoVm) return;
  cluster_.retire_vm(vm);
  vm_ids_[app][tier][slot] = datacenter::kNoVm;
}

void Testbed::apply_scale_decisions() {
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    for (const ScaleDecision& decision : stacks_[i]->take_scale_decisions()) {
      if (decision.delta > 0) {
        const std::size_t slot = stacks_[i]->app().scale_out(decision.tier);
        create_replica_vm(i, decision.tier, slot);
      } else if (decision.delta < 0) {
        // Drain-then-retire; the VM tombstone lands via the retire callback.
        stacks_[i]->app().scale_in(decision.tier);
      }
    }
  }
}

std::uint64_t Testbed::scale_out_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->app().scale_out_count();
  return total;
}

std::uint64_t Testbed::scale_in_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->app().scale_in_count();
  return total;
}

void Testbed::set_setpoint(std::size_t app, double setpoint_s) {
  stacks_.at(app)->set_setpoint(setpoint_s);
}

void Testbed::set_concurrency(std::size_t app, std::size_t concurrency) {
  stacks_.at(app)->set_concurrency(concurrency);
}

const std::vector<double>& Testbed::response_series(std::size_t app) const {
  return recorder_.values(response_series_name(app));
}

const std::vector<double>& Testbed::power_series() const {
  return recorder_.values(kPowerSeries);
}

telemetry::Recorder::RowsView Testbed::allocation_series(std::size_t app) const {
  return recorder_.rows(allocation_series_name(app));
}

util::RunningStats Testbed::response_stats_after(std::size_t app, double from_s) const {
  return core::response_stats_after(recorder_, app, from_s, config_.control_period_s);
}

void Testbed::run_until(double until_s) {
  if (!loop_started_) {
    loop_started_ = true;
    for (auto& stack : stacks_) stack->start();
    sim_.schedule(config_.control_period_s, [this] { control_tick(); });
    if (config_.enable_optimizer) {
      sim_.schedule(config_.optimizer_period_s, [this] { optimizer_tick(); });
    }
    // Scheduled crashes: fail at window start, recover at window end.
    for (const fault::FaultWindow& w : injector_.crash_windows()) {
      const auto server = static_cast<datacenter::ServerId>(w.target);
      sim_.schedule_window(
          w.start_s, w.end_s, [this, server] { crash_server(server); },
          [this, server] { repair_crashed_server(server); });
    }
    // Correlated rack failures: every member server goes down and comes
    // back together (shared switch / PDU loss).
    for (const fault::FaultWindow& w : injector_.rack_failure_windows()) {
      const auto rack = static_cast<datacenter::RackId>(w.target);
      sim_.schedule_window(
          w.start_s, w.end_s, [this, rack] { crash_rack(rack); },
          [this, rack] { repair_rack(rack); });
    }
  }
  engine_.run_until(until_s);
}

void Testbed::crash_server(datacenter::ServerId id) {
  injector_.note_crash(sim_.now(), id);
  annotate("server-crash srv" + std::to_string(id));
  // Eviction: the hosted VMs lose their CPU on the spot; they get nothing
  // until the optimizer re-places them.
  const std::vector<datacenter::VmId> evicted = cluster_.fail_server(id);
  for (const datacenter::VmId vm : evicted) apply_tier_allocation(vm, 0.0);
  // Emergency re-plan against the realized placement — the evicted VMs are
  // homeless and every control period they wait costs SLA.
  if (config_.enable_optimizer && !evicted.empty() && migrations_in_flight_ == 0) {
    run_optimizer_pass();
  }
}

void Testbed::repair_crashed_server(datacenter::ServerId id) {
  cluster_.repair_server(id);
  annotate("server-repair srv" + std::to_string(id));
}

void Testbed::crash_rack(datacenter::RackId id) {
  injector_.note_rack_failure(sim_.now(), id);
  annotate("rack-failure rack" + std::to_string(id));
  const std::vector<datacenter::VmId> evicted = cluster_.fail_rack(id);
  for (const datacenter::VmId vm : evicted) apply_tier_allocation(vm, 0.0);
  // Same emergency policy as a single-server crash: the re-plan sees every
  // member marked failed, so the constraints steer re-placement to other
  // racks automatically.
  if (config_.enable_optimizer && !evicted.empty() && migrations_in_flight_ == 0) {
    run_optimizer_pass();
  }
}

void Testbed::repair_rack(datacenter::RackId id) {
  cluster_.repair_rack(id);
  annotate("rack-repair rack" + std::to_string(id));
}

void Testbed::optimizer_tick() {
  sim_.schedule(sim_.now() + config_.optimizer_period_s, [this] { optimizer_tick(); });
  // Re-planning while migrations are in flight would race the mapping.
  if (migrations_in_flight_ > 0) return;
  ++optimizer_invocations_;
  run_optimizer_pass();
}

void Testbed::run_optimizer_pass() {
  const consolidate::PlacementPlan plan = optimizer_.plan(cluster_, sim_.now());
  for (const consolidate::Move& move : plan.moves) {
    if (move.from == datacenter::kNoServer) {
      start_restart(move.vm, move.to);  // crash-evicted VM: no source to copy from
    } else {
      start_migration(move.vm, move.to);
    }
  }
  if (plan.moves.empty()) cluster_.sleep_idle_servers();
}

void Testbed::fail_migration(datacenter::VmId vm, const std::string& label) {
  --migrations_in_flight_;
  ++failed_migrations_;
  optimizer_.note_migration_failure(vm, sim_.now());
  annotate(label);
  if (migrations_in_flight_ == 0) cluster_.sleep_idle_servers();
}

void Testbed::start_migration(datacenter::VmId vm, datacenter::ServerId to) {
  // Pre-copy live migration: the VM keeps serving on the source while its
  // memory image crosses the network, stalls for the stop-and-copy
  // downtime, then resumes on the destination.
  const datacenter::MigrationModel& model = cluster_.migration_model();
  const datacenter::ServerId from = cluster_.host_of(vm);
  // Waking the destination can fail — injected refusal, or the box is
  // outright crashed. The migration never starts; the VM stays on its
  // source and the optimizer backs off before retrying.
  if (!cluster_.server(to).active()) {
    if (injector_.wake_fails(sim_.now(), to) || !cluster_.wake(to)) {
      ++failed_migrations_;
      optimizer_.note_migration_failure(vm, sim_.now());
      annotate("wake-failure srv" + std::to_string(to) + " vm" + std::to_string(vm) +
               " stays on srv" + std::to_string(from));
      return;
    }
  }
  const double copy_s =
      std::max(0.0, model.duration_s(cluster_.vm(vm).memory_mb) - model.downtime_s) *
      injector_.migration_slowdown(sim_.now(), from);
  ++migrations_in_flight_;
  sim_.schedule_after(copy_s, [this, vm, to] {
    // End of copy: this is where a live migration can die. The source may
    // have crashed under the copy (the VM is gone — nothing to hand over),
    // the destination may have failed (a repair since leaves it asleep, and
    // a VM cannot land on a sleeping box either), or the hypervisor aborts
    // and rolls back (the VM keeps running on the source as if nothing
    // happened).
    const datacenter::ServerId source = cluster_.host_of(vm);
    if (source == datacenter::kNoServer) {
      fail_migration(vm, "migration-lost vm" + std::to_string(vm) + " (source crashed)");
      return;
    }
    if (!cluster_.server(to).active()) {
      fail_migration(vm, "migration-abort vm" + std::to_string(vm) + " (target srv" +
                             std::to_string(to) + " crashed)");
      return;
    }
    if (injector_.migration_aborts(sim_.now(), source)) {
      fail_migration(vm, "migration-abort vm" + std::to_string(vm) + " on srv" +
                             std::to_string(source));
      return;
    }
    // Stop-and-copy: the tier stops processing for the downtime window.
    apply_tier_allocation(vm, 0.0);
    sim_.schedule_after(cluster_.migration_model().downtime_s, [this, vm, to] {
      if (cluster_.host_of(vm) == datacenter::kNoServer || !cluster_.server(to).active()) {
        // A crash landed inside the downtime window; the hand-over target
        // (or the VM itself) is gone.
        fail_migration(vm, "migration-lost vm" + std::to_string(vm) + " (crash in downtime)");
        return;
      }
      cluster_.migrate(vm, to, sim_.now());
      // Resume with the controller's current demand; the next control tick
      // re-arbitrates the destination server.
      apply_tier_allocation(vm, cluster_.vm(vm).cpu_demand_ghz);
      --migrations_in_flight_;
      ++completed_migrations_;
      if (migrations_in_flight_ == 0) cluster_.sleep_idle_servers();
    });
  });
}

void Testbed::start_restart(datacenter::VmId vm, datacenter::ServerId to) {
  // A crash-evicted VM has no source to pre-copy from: it cold-restarts on
  // the target after one stop-and-copy downtime.
  if (!cluster_.server(to).active()) {
    if (injector_.wake_fails(sim_.now(), to) || !cluster_.wake(to)) {
      annotate("wake-failure srv" + std::to_string(to) + " vm" + std::to_string(vm) +
               " still homeless");
      return;  // the optimizer retries at its next tick
    }
  }
  ++migrations_in_flight_;
  sim_.schedule_after(cluster_.migration_model().downtime_s, [this, vm, to] {
    if (!cluster_.server(to).active() || cluster_.host_of(vm) != datacenter::kNoServer) {
      --migrations_in_flight_;
      if (migrations_in_flight_ == 0) cluster_.sleep_idle_servers();
      return;
    }
    cluster_.place(vm, to);
    apply_tier_allocation(vm, cluster_.vm(vm).cpu_demand_ghz);
    --migrations_in_flight_;
    ++restarts_;
    annotate("vm-restart vm" + std::to_string(vm) + " on srv" + std::to_string(to));
    if (migrations_in_flight_ == 0) cluster_.sleep_idle_servers();
  });
}

void Testbed::record_power(double now) {
  // Power over the elapsed interval: actual work done / capacity.
  const double interval = now - last_power_time_s_;
  double total_power = 0.0;
  server_work_.assign(cluster_.server_count(), 0.0);
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    for (std::size_t j = 0; j < stacks_[i]->tier_count(); ++j) {
      const std::vector<datacenter::VmId>& slots = vm_ids_[i][j];
      for (std::size_t r = 0; r < slots.size(); ++r) {
        const datacenter::VmId vm = slots[r];
        if (vm == datacenter::kNoVm) continue;
        const double done = stacks_[i]->app().replica_work_done_gcycles(j, r);
        const double delta = done - last_work_done_[vm];
        last_work_done_[vm] = done;
        // A crash-evicted VM has no host; its (zero-allocation) replica does
        // no work, and whatever it finished before the crash burned on no
        // server.
        const datacenter::ServerId host = cluster_.host_of(vm);
        if (host != datacenter::kNoServer) server_work_[host] += delta;
      }
    }
  }
  // Every server is charged, a sleeping one its sleep draw.
  for (datacenter::ServerId s = 0; s < cluster_.server_count(); ++s) {
    const datacenter::Server& server = cluster_.server(s);
    const double capacity = server.capacity_ghz();
    const double utilization =
        (capacity > 0.0 && interval > 0.0) ? server_work_[s] / (capacity * interval) : 0.0;
    total_power += server.power_w(utilization);
  }
  // Shared infrastructure draw, by the cluster's live rule; a flat testbed
  // adds nothing and records the historical series.
  total_power = cluster_.add_shared_power_w(total_power);
  if (interval > 0.0) recorder_.append_at(power_series_, now, total_power);
  last_power_time_s_ = now;
}

void Testbed::control_tick() {
  const double now = sim_.now();
  record_power(now);

  // ---- feedback control: demands per application --------------------------
  // Phases (see AppStack::harvest_tick): harvest (monitor + per-app fault
  // stream + the app's series), parallel MPC decide (each solve touches
  // only its own controller), then record/push-down. Harvest and record run
  // per shard in parallel — each shard appends only to its own apps' series
  // and writes only its own apps' VM demands, and each series gets its one
  // sample per tick whatever the order, so results are bit-identical at any
  // shard and thread count.
  harvested_.resize(stacks_.size());
  decided_.resize(stacks_.size());
  for_each_shard_apps([&](std::size_t i) { harvested_[i] = stacks_[i]->harvest_tick(); });
  if (stacks_.size() >= config_.parallel_control_min_apps) {
    util::parallel_for(stacks_.size(), [&](std::size_t i) {
      decided_[i] = stacks_[i]->decide_tick(harvested_[i]);
    });
  } else {
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      decided_[i] = stacks_[i]->decide_tick(harvested_[i]);
    }
  }
  for_each_shard_apps([&](std::size_t i) {
    stacks_[i]->record_decision(decided_[i]);
    // Per-replica decision: the MPC allocates per replica, so every live VM
    // backing tier j demands the same decided_[i][j]. Writes from different
    // shards land on disjoint VM records.
    for (std::size_t j = 0; j < decided_[i].size(); ++j) {
      for (const datacenter::VmId vm : vm_ids_[i][j]) {
        if (vm != datacenter::kNoVm) cluster_.vm(vm).cpu_demand_ghz = decided_[i][j];
      }
    }
  });

  // ---- supervisory replica decisions (serial phase) ------------------------
  // Applied before arbitration so a freshly booted-out replica consumes its
  // allocation from this very period (the VM is up and billed immediately).
  apply_scale_decisions();

  // ---- server-level arbitration: DVFS + grants -----------------------------
  // Actuator fault: a server's DVFS can be stuck at a fixed step; the step
  // rescales that server's grants to the pinned capacity.
  cluster_.step({
      .dvfs_pin = [&](datacenter::ServerId s) { return injector_.dvfs_pin_ghz(now, s); },
      .grant = [this](datacenter::VmId vm, double ghz) { apply_tier_allocation(vm, ghz); },
  });

  // ---- cluster-level gauges, in kGaugeSeries order -------------------------
  double frequency_sum_ghz = 0.0;
  for (datacenter::ServerId s = 0; s < cluster_.server_count(); ++s) {
    frequency_sum_ghz += cluster_.server(s).frequency_ghz();
  }
  const std::array<double, kGaugeSeries.size()> gauges = {
      frequency_sum_ghz / static_cast<double>(cluster_.server_count()),
      static_cast<double>(cluster_.active_server_count()),
      static_cast<double>(migrations_in_flight_),
      static_cast<double>(completed_migrations_),
      static_cast<double>(cluster_.live_vm_count()),
      static_cast<double>(injector_.counters().total()),
      static_cast<double>(failed_migrations_),
  };
  for (std::size_t g = 0; g < gauges.size(); ++g) {
    recorder_.append_at(gauge_series_[g], now, gauges[g]);
  }
  sim_.schedule(now + config_.control_period_s, [this] { control_tick(); });
}

}  // namespace vdc::core
