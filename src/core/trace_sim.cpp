#include "core/trace_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "consolidate/ffd.hpp"
#include "consolidate/topology_cost.hpp"
#include "core/overload_guard.hpp"
#include "trace/forecast.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace vdc::core {

TraceDrivenSimulator::TraceDrivenSimulator(const trace::UtilizationTrace& trace)
    : trace_(&trace) {}

TraceSimResult TraceDrivenSimulator::run(const TraceSimConfig& config) const {
  if (config.num_vms == 0 || config.num_vms > trace_->server_count()) {
    throw std::invalid_argument("TraceDrivenSimulator: num_vms out of range");
  }
  if (!(config.consolidation_period_s > 0.0)) {
    throw std::invalid_argument("TraceDrivenSimulator: consolidation period");
  }
  if (!(config.utilization_target > 0.0) || config.utilization_target > 1.0) {
    throw std::invalid_argument("TraceDrivenSimulator: utilization_target must be in (0, 1]");
  }
  if (!(config.quad_3ghz_fraction >= 0.0) || !(config.dual_2ghz_fraction >= 0.0) ||
      config.quad_3ghz_fraction + config.dual_2ghz_fraction > 1.0) {
    throw std::invalid_argument(
        "TraceDrivenSimulator: server-class fractions must be non-negative and sum to at most 1");
  }
  if (!(config.vm_peak_lo_ghz > 0.0) || !(config.vm_peak_lo_ghz <= config.vm_peak_hi_ghz) ||
      !std::isfinite(config.vm_peak_hi_ghz)) {
    throw std::invalid_argument(
        "TraceDrivenSimulator: VM peak range must satisfy 0 < lo <= hi < inf");
  }
  if (config.vm_memory_choices_mb.empty()) {
    throw std::invalid_argument("TraceDrivenSimulator: no VM memory choices");
  }
  if (!(config.server_wake_energy_wh >= 0.0)) {
    throw std::invalid_argument("TraceDrivenSimulator: server_wake_energy_wh must be >= 0");
  }
  if (!(config.forecast_safety > 0.0)) {
    throw std::invalid_argument("TraceDrivenSimulator: forecast_safety must be > 0");
  }
  consolidate::validate(config.ipac.min_slack, "TraceDrivenSimulator");
  consolidate::validate(config.rack, "TraceDrivenSimulator");
  util::Rng rng(config.seed);

  // ---- build the data center ---------------------------------------------
  // Fixed heterogeneous inventory shared by every data-center size ("every
  // data center is assumed to have enough inactive servers"); unused ones
  // are shut down by the consolidators.
  const std::size_t pool = config.pool_size;
  const auto quad_count = static_cast<std::size_t>(config.quad_3ghz_fraction *
                                                   static_cast<double>(pool));
  const auto dual2_count = static_cast<std::size_t>(config.dual_2ghz_fraction *
                                                    static_cast<double>(pool));
  std::vector<int> types;
  types.reserve(pool);
  for (std::size_t s = 0; s < pool; ++s) {
    types.push_back(s < quad_count ? 0 : (s < quad_count + dual2_count ? 1 : 2));
  }
  std::shuffle(types.begin(), types.end(), rng.engine());

  // Rack-aware runs execute migrations with the same distance-dependent
  // transfer model the planner prices them with.
  datacenter::Cluster cluster(
      config.rack.enabled ? config.rack.cost.transfer : datacenter::MigrationModel{},
      datacenter::CpuResourceArbitrator(1.0), config.dvfs);
  for (const int type : types) {
    switch (type) {
      case 0:
        cluster.add_server(datacenter::Server(datacenter::quad_core_3ghz(),
                                              datacenter::power_model_quad_3ghz(), 32768.0));
        break;
      case 1:
        cluster.add_server(datacenter::Server(datacenter::dual_core_2ghz(),
                                              datacenter::power_model_dual_2ghz(), 16384.0));
        break;
      default:
        cluster.add_server(datacenter::Server(datacenter::dual_core_1_5ghz(),
                                              datacenter::power_model_dual_1_5ghz(), 12288.0));
        break;
    }
  }
  if (!config.topology.empty()) cluster.set_topology(config.topology);

  std::vector<double> peak_ghz(config.num_vms);
  for (std::size_t v = 0; v < config.num_vms; ++v) {
    peak_ghz[v] = rng.uniform(config.vm_peak_lo_ghz, config.vm_peak_hi_ghz);
    datacenter::Vm vm;
    vm.name = "vm" + std::to_string(v);
    vm.cpu_demand_ghz = trace_->at(v, 0) * peak_ghz[v];
    vm.memory_mb = config.vm_memory_choices_mb.at(rng.index(config.vm_memory_choices_mb.size()));
    cluster.add_vm(vm);
  }

  OptimizerConfig opt_config;
  opt_config.algorithm = config.algorithm;
  opt_config.utilization_target = config.utilization_target;
  opt_config.ipac = config.ipac;
  opt_config.rack = config.rack;
  PowerOptimizer optimizer(opt_config);
  // One planning model serves the initial placement, every optimizer plan
  // and the guard's relief.
  consolidate::PlanningModel& model = optimizer.model();

  // Initial placement: first-fit decreasing onto the most power-efficient
  // servers (identical starting point for every algorithm under test).
  {
    model.refresh(cluster);
    consolidate::WorkingPlacement& wp = model.fresh_placement();
    const consolidate::ConstraintSet constraints =
        consolidate::ConstraintSet::standard(config.utilization_target);
    std::vector<datacenter::VmId> all;
    for (datacenter::VmId v = 0; v < config.num_vms; ++v) all.push_back(v);
    const consolidate::FfdResult ffd = consolidate::first_fit_decreasing(
        wp, model.efficiency_order(), all, constraints, model.slack_index());
    if (!ffd.unplaced.empty()) {
      throw std::runtime_error("TraceDrivenSimulator: initial placement failed");
    }
    consolidate::apply_plan(cluster, wp.plan(), 0.0);
  }

  OverloadGuardConfig guard_config;
  guard_config.utilization_target = config.utilization_target;
  guard_config.min_slack = config.ipac.min_slack;
  OverloadGuard guard(guard_config);

  const auto consolidation_horizon = static_cast<std::size_t>(
      std::max(1.0, config.consolidation_period_s / trace_->sample_period_s()));
  std::unique_ptr<trace::DemandForecaster> forecaster;
  switch (config.forecast) {
    case TraceSimConfig::Forecast::kRecentPeak:
      forecaster = std::make_unique<trace::RecentPeakForecaster>(
          config.num_vms, consolidation_horizon, config.forecast_safety);
      break;
    case TraceSimConfig::Forecast::kDiurnalPeak:
      forecaster = std::make_unique<trace::DiurnalPeakForecaster>(
          config.num_vms, static_cast<std::size_t>(86400.0 / trace_->sample_period_s()),
          config.forecast_safety);
      break;
    case TraceSimConfig::Forecast::kNone:
      break;
  }

  // ---- main loop over trace samples ---------------------------------------
  TraceSimResult result;
  const double dt = trace_->sample_period_s();
  const auto consolidation_every = static_cast<std::size_t>(
      std::max(1.0, config.consolidation_period_s / dt));
  std::size_t overloaded_samples = 0;
  std::size_t active_samples = 0;
  std::vector<std::span<const double>> demand_rows(config.num_vms);
  for (datacenter::VmId v = 0; v < config.num_vms; ++v) demand_rows[v] = trace_->series(v);

  for (std::size_t k = 0; k < trace_->sample_count(); ++k) {
    const double now = static_cast<double>(k) * dt;
    for (datacenter::VmId v = 0; v < config.num_vms; ++v) {
      cluster.vm(v).cpu_demand_ghz = demand_rows[v][k] * peak_ghz[v];
    }
    if (forecaster) {
      for (datacenter::VmId v = 0; v < config.num_vms; ++v) {
        forecaster->observe(v, cluster.vm(v).cpu_demand_ghz);
      }
    }
    if (k % consolidation_every == 0) {
      // Proactive mode: present the forecast peak to the optimizer, then
      // restore the true instantaneous demands for power accounting.
      std::vector<double> actual;
      if (forecaster) {
        actual.resize(config.num_vms);
        for (datacenter::VmId v = 0; v < config.num_vms; ++v) {
          actual[v] = cluster.vm(v).cpu_demand_ghz;
          cluster.vm(v).cpu_demand_ghz =
              std::max(actual[v], forecaster->predict_peak(v, consolidation_horizon));
        }
      }
      const OptimizationOutcome outcome = optimizer.optimize(cluster, now);
      if (forecaster) {
        for (datacenter::VmId v = 0; v < config.num_vms; ++v) {
          cluster.vm(v).cpu_demand_ghz = actual[v];
        }
      }
      result.migrations += outcome.migrations;
      ++result.optimizer_invocations;
      if (outcome.unplaced > 0) {
        util::Log(util::LogLevel::kWarn, "trace-sim")
            << outcome.unplaced << " VMs unplaced at t=" << now;
      }
    } else if (config.on_demand_overload_guard) {
      const OverloadGuardReport relief = guard.check(cluster, now, model);
      result.guard_migrations += relief.migrations;
    }

    // The data-center step over the awake servers. The paper shuts unused
    // servers down, so only awake ones draw power.
    const datacenter::Cluster::StepResult step = cluster.step();
    overloaded_samples += step.overloaded_servers;
    result.power_series_w.push_back(step.awake_power_w);
    result.total_energy_wh += step.awake_power_w * dt / 3600.0;

    if (config.sample_probe) config.sample_probe(cluster, k);

    result.peak_active_servers = std::max(result.peak_active_servers, step.awake_servers);
    active_samples += step.awake_servers;
  }

  result.server_wakes = cluster.wake_count();
  result.total_energy_wh += static_cast<double>(result.server_wakes) * config.server_wake_energy_wh;
  if (config.rack.enabled) {
    result.migration_energy_wh = cluster.migration_log().total_duration_s() *
                                 config.rack.cost.migration_power_w / 3600.0;
    result.total_energy_wh += result.migration_energy_wh;
  }
  result.energy_wh_per_vm = result.total_energy_wh / static_cast<double>(config.num_vms);
  result.final_active_servers = cluster.active_server_count();
  result.overload_fraction =
      active_samples > 0
          ? static_cast<double>(overloaded_samples) / static_cast<double>(active_samples)
          : 0.0;
  return result;
}

}  // namespace vdc::core
