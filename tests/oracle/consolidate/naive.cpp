#include "consolidate/naive.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "check/consolidate_audit.hpp"
#include "util/log.hpp"

namespace vdc::consolidate::naive {

namespace {

/// The original WorkingPlacement::admits_with: materializes the resident
/// pointer list on every call (the allocation the fast engine eliminated).
bool admits_with(const WorkingPlacement& placement, ServerId server,
                 std::span<const VmId> extra, const ConstraintSet& constraints) {
  const DataCenterSnapshot& snapshot = placement.snapshot();
  std::vector<const VmSnapshot*> vms;
  vms.reserve(placement.hosted(server).size() + extra.size());
  for (const VmId vm : placement.hosted(server)) vms.push_back(&snapshot.vm(vm));
  for (const VmId vm : extra) vms.push_back(&snapshot.vm(vm));
  return constraints.admits(snapshot.server(server), vms);
}

bool feasible(const WorkingPlacement& placement, ServerId server,
              const ConstraintSet& constraints) {
  return admits_with(placement, server, {}, constraints);
}

struct SearchState {
  const DataCenterSnapshot* snapshot;
  const ServerSnapshot* server;
  const ConstraintSet* constraints;
  std::vector<VmId> order;                  // candidates, largest demand first
  std::vector<const VmSnapshot*> resident;  // existing + currently selected
  std::vector<VmId> selected;
  double selected_demand_ghz = 0.0;
  double base_demand_ghz = 0.0;  // demand of VMs already on the server

  MinSlackResult best;
  double epsilon;
  std::size_t budget;
  const MinSlackOptions* options;
  bool done = false;

  [[nodiscard]] double slack() const noexcept {
    return server->max_capacity_ghz - base_demand_ghz - selected_demand_ghz;
  }

  void consider_current() {
    const double slack_ghz = slack();
    if (slack_ghz < best.slack_ghz - 1e-12) {
      best.slack_ghz = slack_ghz;
      best.selected = selected;
    }
    if (best.slack_ghz < epsilon) done = true;  // line 4-5 of Algorithm 1
  }

  void dfs(std::size_t start) {
    if (done) return;
    for (std::size_t i = start; i < order.size(); ++i) {
      if (done) return;
      // A "step" is one candidate-placement attempt (the unit of work).
      ++best.steps;
      if (best.steps >= budget) {  // lines 15-17: escalate epsilon
        if (best.escalations >= options->max_escalations) {
          done = true;
          return;
        }
        ++best.escalations;
        epsilon *= options->epsilon_escalation;
        budget += options->step_budget;
        if (best.slack_ghz < epsilon) {
          done = true;
          return;
        }
      }
      const VmId vm = order[i];
      const VmSnapshot& info = snapshot->vm(vm);
      // Symmetry pruning (standard MBS): identical siblings explore
      // identical subtrees — try only the first of an equal run per level.
      if (i > start) {
        const VmSnapshot& prev = snapshot->vm(order[i - 1]);
        // vdc-lint: float-eq-ok identical VMs are grouped by bitwise equality of their stored demand/memory; the values are copies, never recomputed
        if (prev.cpu_demand_ghz == info.cpu_demand_ghz && prev.memory_mb == info.memory_mb) {
          continue;
        }
      }
      // CPU-slack bound: a VM larger than the remaining raw-capacity slack
      // would push total demand past the server's capacity, which can only
      // worsen the slack objective — prune before the full constraint
      // evaluation.
      if (info.cpu_demand_ghz > slack() + 1e-9) continue;
      resident.push_back(&info);  // line 2: pack VM into S
      if (constraints->admits(*server, resident)) {  // line 3
        selected.push_back(vm);
        selected_demand_ghz += info.cpu_demand_ghz;
        consider_current();  // lines 11-14
        if (!done) dfs(i + 1);  // line 7: recurse on the remaining VMs
        selected_demand_ghz -= info.cpu_demand_ghz;
        selected.pop_back();
      }
      resident.pop_back();  // line 9: remove VM from S
    }
  }
};

/// Smallest-CPU-demand VM on the server (the cheapest to evict).
VmId smallest_vm(const WorkingPlacement& placement, ServerId server) {
  const auto hosted = placement.hosted(server);
  VmId best = hosted.front();
  double best_demand = placement.snapshot().vm(best).cpu_demand_ghz;
  for (const VmId vm : hosted) {
    const double d = placement.snapshot().vm(vm).cpu_demand_ghz;
    // vdc-lint: float-eq-ok exact equality gates the deterministic id tie-break; near-equal demands are legitimately ordered by value
    if (d < best_demand || (d == best_demand && vm < best)) {
      best = vm;
      best_demand = d;
    }
  }
  return best;
}

}  // namespace

double estimated_power_w(const WorkingPlacement& placement) {
  const DataCenterSnapshot& snap = placement.snapshot();
  double total = 0.0;
  for (const ServerSnapshot& server : snap.servers) {
    if (!placement.occupied(server.id)) {
      total += server.sleep_power_w;
      continue;
    }
    const double utilization =
        std::min(1.0, placement.cpu_demand_ghz(server.id) /
                          std::max(1e-9, server.max_capacity_ghz));
    total += server.idle_power_w + (server.max_power_w - server.idle_power_w) * utilization;
  }
  // Shared infrastructure: full rescan of rack/pod occupancy (the fast path
  // keeps these as incremental 0 <-> 1 transition counters).
  for (const RackSnapshot& rack : snap.racks) {
    for (const ServerId member : rack.members) {
      if (member < snap.servers.size() && placement.occupied(member)) {
        total += rack.shared_power_w;
        break;
      }
    }
  }
  for (const PodSnapshot& pod : snap.pods) {
    bool occupied = false;
    for (const RackSnapshot& rack : snap.racks) {
      if (rack.pod != pod.id) continue;
      for (const ServerId member : rack.members) {
        if (member < snap.servers.size() && placement.occupied(member)) {
          occupied = true;
          break;
        }
      }
      if (occupied) break;
    }
    if (occupied) total += pod.shared_power_w;
  }
  return total;
}

MinSlackResult minimum_slack(const WorkingPlacement& placement, ServerId server,
                             std::span<const VmId> candidates,
                             const ConstraintSet& constraints, const MinSlackOptions& options) {
  const DataCenterSnapshot& snapshot = placement.snapshot();
  if (server >= snapshot.servers.size()) throw std::out_of_range("minimum_slack: server id");

  SearchState state;
  state.snapshot = &snapshot;
  state.server = &snapshot.server(server);
  state.constraints = &constraints;
  state.options = &options;
  state.epsilon = options.epsilon_ghz;
  state.budget = options.step_budget;

  state.order.assign(candidates.begin(), candidates.end());
  for (const VmId vm : state.order) {
    if (placement.host_of(vm) != datacenter::kNoServer) {
      throw std::invalid_argument("minimum_slack: candidate VM is already placed");
    }
  }
  std::sort(state.order.begin(), state.order.end(), [&](VmId a, VmId b) {
    const double da = snapshot.vm(a).cpu_demand_ghz;
    const double db = snapshot.vm(b).cpu_demand_ghz;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (da != db) return da > db;
    return a < b;
  });

  for (const VmId vm : placement.hosted(server)) {
    state.resident.push_back(&snapshot.vm(vm));
    state.base_demand_ghz += snapshot.vm(vm).cpu_demand_ghz;
  }

  state.best.slack_ghz = state.slack();  // empty selection is the baseline
  state.consider_current();
  if (!state.done) state.dfs(0);
  audit::min_slack_selection(placement, server, candidates, constraints, state.best.selected);
  return state.best;
}

PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options) {
  const std::vector<ServerId> order = servers_by_power_efficiency(placement.snapshot());
  return naive::power_aware_consolidation(placement, vms, constraints, options, order);
}

PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options,
                                    std::span<const ServerId> server_order) {
  PacResult result;
  std::vector<VmId> remaining(vms.begin(), vms.end());
  if (remaining.empty()) return result;

  for (const ServerId server : server_order) {
    if (remaining.empty()) break;
    MinSlackResult fit = naive::minimum_slack(placement, server, remaining, constraints, options);
    result.min_slack_steps += fit.steps;
    if (fit.selected.empty()) continue;
    for (const VmId vm : fit.selected) {
      placement.place(vm, server);
      result.placed.push_back(vm);
      remaining.erase(std::remove(remaining.begin(), remaining.end(), vm), remaining.end());
    }
    ++result.servers_used;
  }
  result.unplaced = std::move(remaining);
  return result;
}

FfdResult first_fit_decreasing(WorkingPlacement& placement, std::span<const ServerId> servers,
                               std::span<const VmId> vms, const ConstraintSet& constraints) {
  const DataCenterSnapshot& snapshot = placement.snapshot();
  std::vector<VmId> order(vms.begin(), vms.end());
  std::sort(order.begin(), order.end(), [&](VmId a, VmId b) {
    const double da = snapshot.vm(a).cpu_demand_ghz;
    const double db = snapshot.vm(b).cpu_demand_ghz;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (da != db) return da > db;
    return a < b;
  });

  FfdResult result;
  for (const VmId vm : order) {
    bool placed = false;
    for (const ServerId server : servers) {
      const VmId extra[] = {vm};
      if (admits_with(placement, server, extra, constraints)) {
        placement.place(vm, server);
        result.placed.push_back(vm);
        placed = true;
        break;
      }
    }
    if (!placed) result.unplaced.push_back(vm);
  }
  for (const VmId vm : result.placed) {
    audit::server_feasible(placement, placement.host_of(vm), constraints);
  }
  return result;
}

IpacReport ipac(const DataCenterSnapshot& snapshot, const ConstraintSet& constraints,
                const MigrationCostPolicy& policy, const IpacOptions& options,
                const RackAwareOptions& rack) {
  WorkingPlacement wp(snapshot);
  IpacReport report;
  report.occupied_before = wp.occupied_server_count();

  const bool rack_on = rack.enabled && !snapshot.racks.empty();
  std::vector<char> rack_lit(snapshot.racks.size(), 0);
  if (rack_on) {
    for (const ServerSnapshot& server : snapshot.servers) {
      if (server.rack != datacenter::kNoRack && (server.active || !server.hosted.empty())) {
        rack_lit[server.rack] = 1;
      }
    }
  }

  // Target ordering for PAC: active servers by descending power efficiency
  // first, then sleeping ones ("enough inactive servers which will be waken
  // up and used if necessary") — waking a machine is a last resort, since
  // an extra awake server costs idle power immediately. Rack-aware runs put
  // sleepers in lit racks before sleepers in dark racks (see the fast
  // engine for the rationale and the flat-degeneracy argument).
  const std::vector<ServerId> efficiency_order = servers_by_power_efficiency(snapshot);
  std::vector<ServerId> active_first;
  active_first.reserve(efficiency_order.size());
  for (const ServerId s : efficiency_order) {
    if (snapshot.server(s).active || !snapshot.server(s).hosted.empty()) {
      active_first.push_back(s);
    }
  }
  std::vector<ServerId> sleepers;
  for (const ServerId s : efficiency_order) {
    if (!snapshot.server(s).active && snapshot.server(s).hosted.empty()) {
      sleepers.push_back(s);
    }
  }
  if (rack_on) {
    std::stable_partition(sleepers.begin(), sleepers.end(), [&](ServerId s) {
      const RackId r = snapshot.server(s).rack;
      return r != datacenter::kNoRack && rack_lit[r] != 0;
    });
  }
  active_first.insert(active_first.end(), sleepers.begin(), sleepers.end());

  // ---- Step 0: pick up homeless VMs --------------------------------------
  std::vector<VmId> migration_list;
  for (const VmSnapshot& vm : snapshot.vms) {
    if (vm.retired) continue;  // scale-in tombstone: left the fleet on purpose
    if (wp.host_of(vm.id) == datacenter::kNoServer) migration_list.push_back(vm.id);
  }
  if (!migration_list.empty()) {
    util::Log(util::LogLevel::kInfo, "ipac")
        << migration_list.size() << " unplaced VM(s) queued for re-placement";
  }

  // ---- Step 1: overload relief -------------------------------------------
  for (const ServerSnapshot& server : snapshot.servers) {
    while (!wp.hosted(server.id).empty() && !feasible(wp, server.id, constraints)) {
      const VmId victim = smallest_vm(wp, server.id);
      wp.remove(victim);
      migration_list.push_back(victim);
    }
  }
  if (!migration_list.empty()) {
    const PacResult pac = naive::power_aware_consolidation(wp, migration_list, constraints,
                                                           options.min_slack, active_first);
    report.min_slack_steps += pac.min_slack_steps;
    report.overload_moves = pac.placed.size();
    if (rack_on) {
      // Relief bypasses the gates but still draws down the plan budget.
      for (const VmId vm : pac.placed) {
        const ServerId relief_origin = wp.original_host(vm);
        if (relief_origin != datacenter::kNoServer) {
          report.migration_energy_j += rack.cost.energy_j(
              snapshot.vm(vm).memory_mb, snapshot.distance(relief_origin, wp.host_of(vm)));
        }
      }
    }
    for (const VmId vm : pac.unplaced) {
      util::Log(util::LogLevel::kWarn, "ipac")
          << "overloaded VM " << vm << " could not be re-placed";
    }
    migration_list = pac.unplaced;
  }
  std::vector<VmId> unplaced = std::move(migration_list);

  // ---- Step 2: consolidation rounds --------------------------------------
  std::vector<ServerId> donors;
  for (const ServerSnapshot& server : snapshot.servers) {
    if (wp.occupied(server.id)) donors.push_back(server.id);
  }
  if (rack_on) {
    // Rack occupancy by full member rescan (the fast engine keeps per-rack
    // counters); kNoRack servers count as a rack of one.
    const auto occupancy = [&](ServerId s) -> std::uint32_t {
      const RackId r = snapshot.server(s).rack;
      if (r == datacenter::kNoRack) return 1;
      std::uint32_t count = 0;
      for (const ServerId member : snapshot.racks[r].members) {
        if (member < snapshot.servers.size() && wp.occupied(member)) ++count;
      }
      return count;
    };
    std::sort(donors.begin(), donors.end(), [&](ServerId a, ServerId b) {
      const std::uint32_t oa = occupancy(a);
      const std::uint32_t ob = occupancy(b);
      if (oa != ob) return oa < ob;
      const double ea = snapshot.server(a).power_efficiency_ghz_per_w;
      const double eb = snapshot.server(b).power_efficiency_ghz_per_w;
      // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
      if (ea != eb) return ea < eb;
      return a < b;
    });
  } else {
    std::sort(donors.begin(), donors.end(), [&](ServerId a, ServerId b) {
      const double ea = snapshot.server(a).power_efficiency_ghz_per_w;
      const double eb = snapshot.server(b).power_efficiency_ghz_per_w;
      // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
      if (ea != eb) return ea < eb;
      return a < b;
    });
  }

  std::size_t active_baseline = 0;
  for (const ServerSnapshot& server : snapshot.servers) {
    if (server.active || !server.hosted.empty()) ++active_baseline;
  }

  for (const ServerId donor : donors) {
    if (!wp.occupied(donor)) continue;  // already emptied by an earlier round
    ++report.rounds_attempted;

    // Evacuate the donor.
    std::vector<VmId> evacuated(wp.hosted(donor).begin(), wp.hosted(donor).end());
    const double power_before_round = naive::estimated_power_w(wp);
    for (const VmId vm : evacuated) wp.remove(vm);

    std::vector<ServerId> targets;
    targets.reserve(active_first.size() - 1);
    for (const ServerId s : active_first) {
      if (s != donor) targets.push_back(s);
    }

    const PacResult pac = naive::power_aware_consolidation(wp, evacuated, constraints,
                                                           options.min_slack, targets);
    report.min_slack_steps += pac.min_slack_steps;

    bool accept = pac.unplaced.empty() &&
                  (wp.occupied_server_count() < active_baseline ||
                   naive::estimated_power_w(wp) < power_before_round - 1e-9);

    // Rack-aware gates between baseline acceptance and policy, exactly as
    // in the fast engine: gate rejections skip to the next donor, baseline
    // and policy rejections end the loop.
    bool gate_reject = false;
    double round_cost_j = 0.0;
    if (accept && rack_on) {
      for (const VmId vm : evacuated) {
        round_cost_j += rack.cost.energy_j(snapshot.vm(vm).memory_mb,
                                           snapshot.distance(donor, wp.host_of(vm)));
      }
      const double benefit_j =
          std::max(0.0, power_before_round - naive::estimated_power_w(wp)) *
          rack.benefit_horizon_s;
      if (report.migration_energy_j + round_cost_j >
          rack.migration_energy_budget_j + 1e-9) {
        accept = false;
        gate_reject = true;
        ++report.rounds_rejected_by_budget;
      } else if (benefit_j + 1e-9 < round_cost_j) {
        accept = false;
        gate_reject = true;
        ++report.rounds_rejected_by_cost;
      }
    }

    if (accept) {
      const double benefit_per_move =
          std::max(0.0, power_before_round - naive::estimated_power_w(wp)) /
          static_cast<double>(evacuated.size());
      for (const VmId vm : evacuated) {
        const MigrationProposal proposal{.vm = vm,
                                         .from = donor,
                                         .to = wp.host_of(vm),
                                         .estimated_benefit_w = benefit_per_move};
        if (!policy.allow(snapshot, proposal)) {
          accept = false;
          ++report.rounds_rejected_by_policy;
          break;
        }
      }
      if (accept) report.migration_energy_j += round_cost_j;
    }

    if (accept) {
      ++report.rounds_accepted;
      report.consolidation_moves += evacuated.size();
      active_baseline = wp.occupied_server_count();
      continue;  // try the next least-efficient donor
    }

    // Roll back the round; gate rejections try the next donor, anything
    // else stops.
    for (const VmId vm : evacuated) {
      if (wp.host_of(vm) != datacenter::kNoServer) wp.remove(vm);
      wp.place(vm, donor);
    }
    if (gate_reject) continue;
    break;
  }

  if (rack_on) {
    for (const RackSnapshot& r : snapshot.racks) {
      bool was_occupied = false;
      bool now_occupied = false;
      for (const ServerId member : r.members) {
        if (member >= snapshot.servers.size()) continue;
        if (!snapshot.server(member).hosted.empty()) was_occupied = true;
        if (wp.occupied(member)) now_occupied = true;
      }
      if (was_occupied && !now_occupied) ++report.racks_emptied;
    }
  }

  report.occupied_after = wp.occupied_server_count();
  report.plan = wp.plan(unplaced);
  audit::plan(snapshot, report.plan, constraints);
  return report;
}

PMapperReport pmapper(const DataCenterSnapshot& snapshot, const ConstraintSet& constraints,
                      const RackAwareOptions& rack) {
  PMapperReport report;
  const bool rack_on = rack.enabled && !snapshot.racks.empty();

  // ---- Phase 1: target allocation on a phantom (emptied) copy -------------
  DataCenterSnapshot phantom = snapshot;
  for (ServerSnapshot& server : phantom.servers) server.hosted.clear();
  WorkingPlacement target(phantom);
  {
    const std::vector<ServerId> order = servers_by_power_efficiency(phantom);
    std::vector<VmId> all;
    all.reserve(phantom.vms.size());
    for (const VmSnapshot& vm : phantom.vms) all.push_back(vm.id);
    (void)naive::first_fit_decreasing(target, order, all, constraints);
  }
  report.target_demand_ghz.resize(snapshot.servers.size(), 0.0);
  for (const ServerSnapshot& server : snapshot.servers) {
    report.target_demand_ghz[server.id] = target.cpu_demand_ghz(server.id);
  }

  // ---- Phase 2: donors shed their smallest VMs; receivers absorb ----------
  WorkingPlacement wp(snapshot);
  report.occupied_before = wp.occupied_server_count();

  std::vector<ServerId> receivers;
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

  std::sort(receivers.begin(), receivers.end(), [&](ServerId a, ServerId b) {
    const double ea = snapshot.server(a).power_efficiency_ghz_per_w;
    const double eb = snapshot.server(b).power_efficiency_ghz_per_w;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (ea != eb) return ea > eb;
    return a < b;
  });

  std::vector<ServerId> origin(snapshot.vms.size(), datacenter::kNoServer);
  for (const ServerSnapshot& server : snapshot.servers) {
    for (const VmId vm : server.hosted) origin[vm] = server.id;
  }

  std::vector<VmId> order = migration_list;
  std::sort(order.begin(), order.end(), [&](VmId a, VmId b) {
    const double da = snapshot.vm(a).cpu_demand_ghz;
    const double db = snapshot.vm(b).cpu_demand_ghz;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (da != db) return da > db;
    return a < b;
  });

  // Same gate as the fast engine, evaluated only after admission; benefit
  // uses the shared closed-form placement_delta_w so thresholds compare
  // bit-identically across engines.
  bool gate_blocked = false;
  const auto gate_allows = [&](VmId vm, ServerId receiver) {
    if (!rack_on || origin[vm] == datacenter::kNoServer) return true;
    const VmSnapshot& info = snapshot.vm(vm);
    const double cost_j =
        rack.cost.energy_j(info.memory_mb, snapshot.distance(origin[vm], receiver));
    if (report.migration_energy_j + cost_j > rack.migration_energy_budget_j + 1e-9) {
      gate_blocked = true;
      return false;
    }
    const double benefit_w = placement_delta_w(wp, origin[vm], info.cpu_demand_ghz) -
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
      if (fits_target && admits_with(wp, receiver, extra, constraints) &&
          gate_allows(vm, receiver)) {
        wp.place(vm, receiver);
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Second chance ignoring the target cap (constraints still hold).
      for (const ServerId receiver : receivers) {
        const VmId extra[] = {vm};
        if (admits_with(wp, receiver, extra, constraints) && gate_allows(vm, receiver)) {
          wp.place(vm, receiver);
          placed = true;
          break;
        }
      }
    }
    if (!placed) {
      if (gate_blocked) ++report.moves_rejected_by_budget;
      if (origin[vm] != datacenter::kNoServer) {
        wp.place(vm, origin[vm]);
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

}  // namespace vdc::consolidate::naive
