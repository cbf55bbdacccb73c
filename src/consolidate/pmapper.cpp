#include "consolidate/pmapper.hpp"

#include <algorithm>

#include "check/consolidate_audit.hpp"
#include "consolidate/ffd.hpp"
#include "consolidate/planning_model.hpp"

namespace vdc::consolidate {

PMapperReport pmapper(const DataCenterSnapshot& snapshot, const ConstraintSet& constraints,
                      const RackAwareOptions& rack) {
  PlanningModel model(snapshot);
  return pmapper(model, constraints, rack);
}

PMapperReport pmapper(PlanningModel& model, const ConstraintSet& constraints,
                      const RackAwareOptions& rack) {
  const DataCenterSnapshot& snapshot = model.snapshot();
  PMapperReport report;
  const bool rack_on = rack.enabled && !snapshot.racks.empty();

  // ---- Phase 1: target allocation on a phantom (emptied) fleet ------------
  WorkingPlacement& target = model.fresh_phantom();
  {
    std::vector<VmId> all;
    all.reserve(snapshot.vms.size());
    for (const VmSnapshot& vm : snapshot.vms) all.push_back(vm.id);
    (void)first_fit_decreasing(target, model.efficiency_order(), all, constraints,
                               model.slack_index());
  }
  report.target_demand_ghz.resize(snapshot.servers.size(), 0.0);
  for (const ServerSnapshot& server : snapshot.servers) {
    report.target_demand_ghz[server.id] = target.cpu_demand_ghz(server.id);
  }

  // ---- Phase 2: donors shed their smallest VMs; receivers absorb ----------
  WorkingPlacement& wp = model.fresh_placement();
  report.occupied_before = wp.occupied_server_count();

  std::vector<ServerId>& receivers = model.scratch().servers;
  receivers.clear();
  std::vector<VmId> migration_list;
  constexpr double kEps = 1e-9;
  for (const ServerSnapshot& server : snapshot.servers) {
    const double current = wp.cpu_demand_ghz(server.id);
    const double target_demand = report.target_demand_ghz[server.id];
    if (target_demand > current + kEps) {
      receivers.push_back(server.id);
    } else if (target_demand < current - kEps) {
      // Donor: shed the smallest VMs until at (or below) target.
      std::vector<VmId> hosted(wp.hosted(server.id).begin(), wp.hosted(server.id).end());
      std::sort(hosted.begin(), hosted.end(), [&](VmId a, VmId b) {
        const double da = snapshot.vm(a).cpu_demand_ghz;
        const double db = snapshot.vm(b).cpu_demand_ghz;
        // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
        if (da != db) return da < db;
        return a < b;
      });
      for (const VmId vm : hosted) {
        if (wp.cpu_demand_ghz(server.id) <= target_demand + kEps) break;
        wp.remove(vm);
        migration_list.push_back(vm);
      }
    }
  }

  // Receivers absorb the list, most power-efficient first, capped at their
  // phase-1 target so the realized allocation converges to the plan.
  std::sort(receivers.begin(), receivers.end(), [&](ServerId a, ServerId b) {
    const double ea = snapshot.server(a).power_efficiency_ghz_per_w;
    const double eb = snapshot.server(b).power_efficiency_ghz_per_w;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (ea != eb) return ea > eb;
    return a < b;
  });

  std::vector<VmId> order = migration_list;
  std::sort(order.begin(), order.end(), [&](VmId a, VmId b) {
    const double da = snapshot.vm(a).cpu_demand_ghz;
    const double db = snapshot.vm(b).cpu_demand_ghz;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (da != db) return da > db;
    return a < b;
  });

  // Gate for rack-aware runs, evaluated only AFTER a receiver has admitted
  // the VM (so the rejection counter means "admitted but vetoed"): the move
  // must fit the remaining plan budget and win on net energy. Benefit is
  // the closed-form placement_delta_w at the origin minus at the receiver —
  // identical arithmetic in the reference engine, see topology_cost.hpp.
  bool gate_blocked = false;
  const auto gate_allows = [&](VmId vm, ServerId receiver) {
    const ServerId origin = wp.original_host(vm);
    if (!rack_on || origin == datacenter::kNoServer) return true;
    const VmSnapshot& info = snapshot.vm(vm);
    const double cost_j =
        rack.cost.energy_j(info.memory_mb, snapshot.distance(origin, receiver));
    if (report.migration_energy_j + cost_j > rack.migration_energy_budget_j + 1e-9) {
      gate_blocked = true;
      return false;
    }
    const double benefit_w = placement_delta_w(wp, origin, info.cpu_demand_ghz) -
                             placement_delta_w(wp, receiver, info.cpu_demand_ghz);
    if (benefit_w * rack.benefit_horizon_s + 1e-9 < cost_j) {
      gate_blocked = true;
      return false;
    }
    report.migration_energy_j += cost_j;
    return true;
  };

  std::vector<VmId> unplaced;
  for (const VmId vm : order) {
    bool placed = false;
    gate_blocked = false;
    for (const ServerId receiver : receivers) {
      const VmId extra[] = {vm};
      const bool fits_target =
          wp.cpu_demand_ghz(receiver) + snapshot.vm(vm).cpu_demand_ghz <=
          report.target_demand_ghz[receiver] + kEps;
      if (fits_target && wp.admits_with(receiver, extra, constraints) &&
          gate_allows(vm, receiver)) {
        wp.place(vm, receiver);
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Second chance ignoring the target cap (constraints still hold):
      // pMapper prefers a slightly off-target placement to losing the VM.
      for (const ServerId receiver : receivers) {
        const VmId extra[] = {vm};
        if (wp.admits_with(receiver, extra, constraints) && gate_allows(vm, receiver)) {
          wp.place(vm, receiver);
          placed = true;
          break;
        }
      }
    }
    if (!placed) {
      // No receiver can take it: keep it where it was (no migration) rather
      // than leaving it homeless.
      if (gate_blocked) ++report.moves_rejected_by_budget;
      const ServerId origin = wp.original_host(vm);
      if (origin != datacenter::kNoServer) {
        wp.place(vm, origin);
      } else {
        unplaced.push_back(vm);
      }
    }
  }

  report.occupied_after = wp.occupied_server_count();
  report.plan = wp.plan(unplaced);
  report.moves = report.plan.moves.size();
  audit::plan(snapshot, report.plan, constraints);
  return report;
}

}  // namespace vdc::consolidate
