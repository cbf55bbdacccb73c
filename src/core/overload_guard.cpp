#include "core/overload_guard.hpp"

#include <algorithm>

#include "consolidate/pac.hpp"

namespace vdc::core {

OverloadGuard::OverloadGuard(OverloadGuardConfig config)
    : config_(config),
      constraints_(consolidate::ConstraintSet::standard(config.utilization_target)) {
  consolidate::validate(config_.min_slack, "OverloadGuard");
}

OverloadGuardReport OverloadGuard::check(datacenter::Cluster& cluster, double now_s) {
  if (!own_model_) own_model_ = std::make_unique<consolidate::PlanningModel>();
  return check(cluster, now_s, *own_model_);
}

OverloadGuardReport OverloadGuard::check(datacenter::Cluster& cluster, double now_s,
                                         consolidate::PlanningModel& model) {
  OverloadGuardReport report;
  strikes_.resize(cluster.server_count(), 0);

  // Debounce: count consecutive overloads per server. An empty server is
  // never overloaded, so only occupied ones pay for the check.
  std::vector<datacenter::ServerId> triggered;
  for (datacenter::ServerId s = 0; s < cluster.server_count(); ++s) {
    if (!cluster.vms_on(s).empty() && cluster.overloaded(s)) {
      if (++strikes_[s] >= config_.trigger_after_checks) triggered.push_back(s);
    } else {
      strikes_[s] = 0;
    }
  }
  report.overloaded_servers = triggered.size();
  if (triggered.empty()) return report;

  model.refresh(cluster);
  const consolidate::DataCenterSnapshot& snapshot = model.snapshot();
  consolidate::WorkingPlacement& wp = model.fresh_placement();
  const consolidate::ConstraintSet& constraints = constraints_;

  // Shed the smallest VMs from each triggered server until it is feasible.
  std::vector<consolidate::VmId> evicted;
  for (const datacenter::ServerId server : triggered) {
    while (!wp.hosted(server).empty() && !wp.feasible(server, constraints)) {
      const auto hosted = wp.hosted(server);
      consolidate::VmId victim = hosted.front();
      double victim_demand = snapshot.vm(victim).cpu_demand_ghz;
      for (const consolidate::VmId vm : hosted) {
        const double d = snapshot.vm(vm).cpu_demand_ghz;
        // vdc-lint: float-eq-ok exact equality gates the deterministic id tie-break; near-equal demands are legitimately ordered by value
        if (d < victim_demand || (d == victim_demand && vm < victim)) {
          victim = vm;
          victim_demand = d;
        }
      }
      wp.remove(victim);
      evicted.push_back(victim);
    }
  }

  // Place on active servers first, waking sleeping ones only if needed —
  // "move VMs from the overloaded servers to idle servers".
  std::vector<datacenter::ServerId>& targets = model.scratch().order;
  std::vector<datacenter::ServerId>& sleepers = model.scratch().tail;
  targets.clear();
  sleepers.clear();
  for (const datacenter::ServerId s : model.efficiency_order()) {
    (snapshot.servers[s].active ? targets : sleepers).push_back(s);
  }
  targets.insert(targets.end(), sleepers.begin(), sleepers.end());
  const consolidate::PacResult pac =
      consolidate::power_aware_consolidation(wp, evicted, constraints, config_.min_slack,
                                             targets);
  report.unplaced = pac.unplaced.size();

  const consolidate::PlacementPlan plan = wp.plan(pac.unplaced);
  for (const consolidate::Move& move : plan.moves) {
    if (!cluster.server(move.to).active()) {
      if (!cluster.wake(move.to)) continue;  // failed target: leave the VM put
      ++report.woken_servers;
      ++total_activations_;
    }
    cluster.migrate(move.vm, move.to, now_s);
    ++report.migrations;
    ++total_migrations_;
  }
  // Any VM that could not be placed stays on its (overloaded) origin.
  for (const datacenter::ServerId server : triggered) strikes_[server] = 0;
  return report;
}

}  // namespace vdc::core
