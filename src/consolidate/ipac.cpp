#include "consolidate/ipac.hpp"

#include <algorithm>

#include "check/consolidate_audit.hpp"
#include "consolidate/pac.hpp"
#include "consolidate/planning_model.hpp"
#include "util/log.hpp"

namespace vdc::consolidate {

namespace {

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

// The fast engine. Three changes against the reference in tests/oracle
// (naive::ipac), all plan-preserving:
//  * the fleet power estimate is WorkingPlacement's O(1) incremental sum
//    instead of a full server scan per consolidation round;
//  * PAC's target walk runs over a SlackIndex built once over the
//    active-first order and kept in sync by the placement itself, with the
//    donor masked for the duration of its round instead of rebuilding the
//    target list each round;
//  * overload-relief feasibility checks hit the O(1) builtin-constraint
//    path inside WorkingPlacement::feasible.
//
// It runs on a PlanningModel: the efficiency order, the placement, the
// index and the per-pass server lists are the model's buffers, so a warm
// plan sorts nothing fleet-wide and allocates nothing per server.
IpacReport ipac(const DataCenterSnapshot& snapshot, const ConstraintSet& constraints,
                const MigrationCostPolicy& policy, const IpacOptions& options,
                const RackAwareOptions& rack) {
  PlanningModel model(snapshot);
  return ipac(model, constraints, policy, options, rack);
}

IpacReport ipac(PlanningModel& model, const ConstraintSet& constraints,
                const MigrationCostPolicy& policy, const IpacOptions& options,
                const RackAwareOptions& rack) {
  const DataCenterSnapshot& snapshot = model.snapshot();
  WorkingPlacement& wp = model.fresh_placement();
  PlanningModel::Scratch& scratch = model.scratch();
  IpacReport report;
  report.occupied_before = wp.occupied_server_count();

  // Every rack-aware branch below hangs off this flag; with it false (the
  // default, and always on flat snapshots) the pass is statement-for-
  // statement the pre-topology engine, which is what keeps flat plans
  // move-for-move identical.
  const bool rack_on = rack.enabled && !snapshot.racks.empty();
  // Racks with at least one up (awake or occupied) member: waking a server
  // inside one costs only its own idle power, while waking one in a dark
  // rack also switches the rack's shared draw back on.
  std::vector<char>& rack_lit = scratch.flags;
  rack_lit.assign(snapshot.racks.size(), 0);
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
  // an extra awake server costs idle power immediately. Rack-aware runs
  // refine only the sleeping tail: sleepers in lit racks come before
  // sleepers in dark racks (stable within each group), avoiding lighting a
  // rack for one VM when an already-lit rack has a cold machine. With one
  // server per rack every sleeper's rack is dark and the refinement is a
  // no-op, preserving flat-equivalent behavior for degenerate topologies.
  std::vector<ServerId>& active_first = scratch.order;
  std::vector<ServerId>& sleepers = scratch.tail;
  active_first.clear();
  sleepers.clear();
  for (const ServerId s : model.efficiency_order()) {
    const ServerSnapshot& server = snapshot.servers[s];
    (server.active || !server.hosted.empty() ? active_first : sleepers).push_back(s);
  }
  if (rack_on) {
    std::stable_partition(sleepers.begin(), sleepers.end(), [&](ServerId s) {
      const RackId r = snapshot.server(s).rack;
      return r != datacenter::kNoRack && rack_lit[r] != 0;
    });
  }
  active_first.insert(active_first.end(), sleepers.begin(), sleepers.end());

  SlackIndex& index = model.slack_index();
  index.build(active_first, snapshot.servers.size(),
              [&](ServerId s) { return wp.cpu_slack(s); });
  wp.set_slack_observer(&index);

  // ---- Step 0: pick up homeless VMs --------------------------------------
  // A VM with no host (crash-evicted, or never placed) receives no CPU at
  // all; re-placing it is the most urgent thing the optimizer can do, so it
  // joins the migration list ahead of overload victims.
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
    while (!wp.hosted(server.id).empty() && !wp.feasible(server.id, constraints)) {
      const VmId victim = smallest_vm(wp, server.id);
      wp.remove(victim);
      migration_list.push_back(victim);
    }
  }
  if (!migration_list.empty()) {
    const PacResult pac =
        power_aware_consolidation(wp, migration_list, constraints, options.min_slack, index);
    report.min_slack_steps += pac.min_slack_steps;
    report.overload_moves = pac.placed.size();
    if (rack_on) {
      // Relief moves bypass the gates (they protect SLAs) but their energy
      // still counts against the plan budget: a plan that spends its whole
      // allowance on relief has nothing left for consolidation rounds.
      for (const VmId vm : pac.placed) {
        const ServerId origin = wp.original_host(vm);
        if (origin != datacenter::kNoServer) {
          report.migration_energy_j += rack.cost.energy_j(
              snapshot.vm(vm).memory_mb, snapshot.distance(origin, wp.host_of(vm)));
        }
      }
    }
    // VMs nothing could take remain unplaced and are surfaced in the plan.
    for (const VmId vm : pac.unplaced) {
      util::Log(util::LogLevel::kWarn, "ipac")
          << "overloaded VM " << vm << " could not be re-placed";
    }
    migration_list = pac.unplaced;
  }
  std::vector<VmId> unplaced = std::move(migration_list);

  // ---- Step 2: consolidation rounds --------------------------------------
  // Candidate donors: occupied servers, least power-efficient first.
  std::vector<ServerId>& donors = scratch.servers;
  donors.clear();
  for (const ServerSnapshot& server : snapshot.servers) {
    if (wp.occupied(server.id)) donors.push_back(server.id);
  }
  if (rack_on) {
    // Nearly-empty racks first: evacuating the last occupied member of a
    // rack switches off its shared draw, so low-occupancy racks carry the
    // largest per-move payoff. Ties fall through to the baseline key, and
    // with one server per rack every occupancy is 1, so the order — and the
    // plan — degenerates to the flat engine's.
    const auto occupancy = [&](ServerId s) -> std::size_t {
      const RackId r = snapshot.server(s).rack;
      return r == datacenter::kNoRack ? 1 : wp.rack_occupied_count(r);
    };
    std::sort(donors.begin(), donors.end(), [&](ServerId a, ServerId b) {
      const std::size_t oa = occupancy(a);
      const std::size_t ob = occupancy(b);
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

  // The paper's loop criterion is the number of ACTIVE servers, which
  // includes awake-but-empty machines (they get put to sleep once the plan
  // is applied). Track that live baseline as rounds are accepted.
  std::size_t active_baseline = 0;
  for (const ServerSnapshot& server : snapshot.servers) {
    if (server.active || !server.hosted.empty()) ++active_baseline;
  }

  for (const ServerId donor : donors) {
    if (!wp.occupied(donor)) continue;  // already emptied by an earlier round
    ++report.rounds_attempted;

    // Evacuate the donor; masking it keeps it out of PAC's target walk for
    // the round (the reference rebuilds the whole target list instead).
    std::vector<VmId> evacuated(wp.hosted(donor).begin(), wp.hosted(donor).end());
    const double power_before_round = wp.estimated_power_w();
    index.set_masked(donor, true);
    for (const VmId vm : evacuated) wp.remove(vm);

    const PacResult pac =
        power_aware_consolidation(wp, evacuated, constraints, options.min_slack, index);
    report.min_slack_steps += pac.min_slack_steps;

    // A round pays when it shrinks the active-server set (applying the plan
    // sleeps every emptied machine), or — at equal count — when the
    // estimated cluster power still drops (the donor was less efficient
    // than the machines that absorbed its VMs).
    bool accept = pac.unplaced.empty() &&
                  (wp.occupied_server_count() < active_baseline ||
                   wp.estimated_power_w() < power_before_round - 1e-9);

    // Rack-aware gates sit BETWEEN the baseline acceptance test and the
    // policy: a round the baseline engine would reject is rejected for the
    // baseline reason (and ends the loop exactly as the flat engine does),
    // while a gate rejection merely skips this donor — a cross-pod-expensive
    // round says nothing about the next donor's same-rack-cheap one.
    bool gate_reject = false;
    double round_cost_j = 0.0;
    double benefit_j = 0.0;
    if (accept && rack_on) {
      for (const VmId vm : evacuated) {
        round_cost_j += rack.cost.energy_j(snapshot.vm(vm).memory_mb,
                                           snapshot.distance(donor, wp.host_of(vm)));
      }
      benefit_j = std::max(0.0, power_before_round - wp.estimated_power_w()) *
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
      // Cost/benefit check: the round's estimated power saving, split
      // across its moves.
      const double benefit_per_move =
          std::max(0.0, power_before_round - wp.estimated_power_w()) /
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
      index.set_masked(donor, false);  // emptied, but a valid future target
      continue;  // try the next least-efficient donor
    }

    // Roll back the round; a gate rejection tries the next donor, anything
    // else stops: the active-server count no longer decreases (or the
    // policy vetoed the round).
    for (const VmId vm : evacuated) {
      if (wp.host_of(vm) != datacenter::kNoServer) wp.remove(vm);
      wp.place(vm, donor);
    }
    index.set_masked(donor, false);
    if (gate_reject) continue;
    break;
  }
  wp.set_slack_observer(nullptr);

  if (rack_on) {
    for (const RackSnapshot& r : snapshot.racks) {
      bool was_occupied = false;
      for (const ServerId member : r.members) {
        if (!snapshot.server(member).hosted.empty()) {
          was_occupied = true;
          break;
        }
      }
      if (was_occupied && wp.rack_occupied_count(r.id) == 0) ++report.racks_emptied;
    }
  }

  report.occupied_after = wp.occupied_server_count();
  report.plan = wp.plan(unplaced);
  audit::plan(snapshot, report.plan, constraints);
  return report;
}

}  // namespace vdc::consolidate
