#include "consolidate/pac.hpp"

#include <algorithm>
#include <limits>

#include "consolidate/ffd.hpp"

namespace vdc::consolidate {

namespace {

PacResult consolidate(WorkingPlacement& placement, std::span<const VmId> vms,
                      const ConstraintSet& constraints, const MinSlackOptions& options,
                      std::span<const ServerId> server_order, const SlackIndex* index) {
  PacResult result;
  std::vector<VmId> remaining(vms.begin(), vms.end());
  if (remaining.empty()) return result;
  const DataCenterSnapshot& snapshot = placement.snapshot();

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
  double smallest = 0.0;
  double smallest_memory = 0.0;
  auto refresh_smallest = [&] {
    smallest = std::numeric_limits<double>::infinity();
    smallest_memory = std::numeric_limits<double>::infinity();
    for (const VmId vm : remaining) {
      const VmSnapshot& info = snapshot.vm(vm);
      smallest = std::min(smallest, info.cpu_demand_ghz);
      smallest_memory = std::min(smallest_memory, info.memory_mb);
    }
  };
  refresh_smallest();

  std::vector<VmId> sorted_selected;
  const std::size_t limit = index != nullptr ? index->size() : server_order.size();
  for (std::size_t pos = 0; pos < limit; ++pos) {
    if (remaining.empty()) break;
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
    for (const VmId vm : fit.selected) {
      placement.place(vm, server);
      result.placed.push_back(vm);
    }
    // One filtering pass instead of an erase-remove per placed VM.
    sorted_selected.assign(fit.selected.begin(), fit.selected.end());
    std::sort(sorted_selected.begin(), sorted_selected.end());
    std::erase_if(remaining, [&](VmId vm) {
      return std::binary_search(sorted_selected.begin(), sorted_selected.end(), vm);
    });
    refresh_smallest();
    ++result.servers_used;
  }
  result.unplaced = std::move(remaining);
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
