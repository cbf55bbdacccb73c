#include "consolidate/pac.hpp"

#include "consolidate/ffd.hpp"

namespace vdc::consolidate {

namespace {

PacResult consolidate(WorkingPlacement& placement, std::span<const VmId> vms,
                      const ConstraintSet& constraints, const MinSlackOptions& options,
                      std::span<const ServerId> server_order, const SlackIndex* index) {
  PacResult result;
  if (vms.empty()) return result;
  const DataCenterSnapshot& snapshot = placement.snapshot();
  // The candidates, sorted once for the whole walk: the snapshot cannot
  // change during it, so every Minimum Slack call reads this set and each
  // selection is erased from it by position. Its buffers keep their
  // capacity from one walk to the next.
  thread_local CandidateSet remaining;
  remaining.assign(placement, vms);

  // Servers whose raw CPU slack is below the smallest remaining demand are
  // skipped: Minimum Slack's capacity bound would prune every candidate at
  // the top level there, so the reference engine returns an empty selection
  // for them anyway. The index answers "next viable server" in O(log n);
  // the linear walk pays an O(1) test per server.
  //
  // Two more gates cover builtin constraint sets. A server whose free
  // memory cannot hold even the smallest remaining candidate, or whose CPU
  // limit (capacity times the utilization target) cannot take even the
  // smallest remaining demand on top of its residents, rejects every
  // candidate at every depth (both checks are monotone in the selection),
  // so its visit provably selects nothing — and since the step budget is
  // per Minimum-Slack call, skipping the visit outright leaves every other
  // call, and therefore the plan, untouched. The engine still touches each
  // candidate once at the top level of such a visit (one counted step
  // apiece, selecting nothing), so the skip adds that count analytically.
  // The real call is made instead when the per-call budget could bind
  // mid-scan, or when the smallest demand is so small against the slack
  // that an armed branch-and-bound could leave the level early: then the
  // step accounting stays exact.
  const ConstraintSet::BuiltinProfile& profile = constraints.builtin_profile();
  const bool memory_gate = profile.all_builtin && profile.has_memory;
  const bool cpu_gate = profile.all_builtin && profile.has_cpu;
  const std::size_t limit = index != nullptr ? index->size() : server_order.size();
  for (std::size_t pos = 0; pos < limit; ++pos) {
    if (remaining.empty()) break;
    // The sorted set keeps both in O(1): its last demand and its suffix
    // minimum over memory.
    const double smallest = remaining.smallest_demand_ghz();
    const double smallest_memory = remaining.smallest_memory_mb();
    ServerId server = 0;
    if (index != nullptr) {
      pos = index->find_first(pos, smallest - 1e-9);
      if (pos == SlackIndex::npos) break;
      server = index->server_at(pos);
    } else {
      server = server_order[pos];
      if (placement.cpu_slack(server) + 1e-9 < smallest) continue;
    }
    const ServerSnapshot& info = snapshot.server(server);
    const bool blocked =
        (memory_gate && placement.memory_used_mb(server) + smallest_memory >
                            info.memory_mb + 1e-9) ||
        (cpu_gate &&
         placement.cpu_demand_ghz(server) + smallest > constraints.cpu_limit_ghz(info) + 1e-9);
    if (blocked && !info.failed) {
      // Below epsilon the search exits before its first step; otherwise it
      // pays one step per candidate.
      const double slack = placement.cpu_slack(server);
      if (slack < options.epsilon_ghz) continue;
      if (remaining.size() < options.step_budget && slack - smallest < slack) {
        result.min_slack_steps += remaining.size();
        continue;
      }
    }
    MinSlackResult fit = minimum_slack(placement, server, remaining, constraints, options);
    result.min_slack_steps += fit.steps;
    if (fit.selected.empty()) continue;
    remaining.erase(fit.selected);
    for (const VmId vm : fit.selected) {
      placement.place(vm, server);
      result.placed.push_back(vm);
    }
    ++result.servers_used;
  }
  // What is left, in the caller's order.
  for (const VmId vm : vms) {
    if (placement.host_of(vm) == datacenter::kNoServer) result.unplaced.push_back(vm);
  }
  return result;
}

}  // namespace

PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options) {
  const std::vector<ServerId> order = servers_by_power_efficiency(placement.snapshot());
  return power_aware_consolidation(placement, vms, constraints, options, order);
}

PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options,
                                    std::span<const ServerId> server_order) {
  return consolidate(placement, vms, constraints, options, server_order, nullptr);
}

PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options, const SlackIndex& index) {
  return consolidate(placement, vms, constraints, options, {}, &index);
}

}  // namespace vdc::consolidate
