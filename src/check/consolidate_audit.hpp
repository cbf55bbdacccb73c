// Consolidation auditors: a PlacementPlan emitted by IPAC, pMapper, FFD or
// Minimum Slack must be *applicable* (every move names a live VM/server and
// a correct source host, no VM is moved twice) and *feasible* (every server
// that receives a VM satisfies the full constraint set — Algorithm 1's
// generalised bin check — with its final residents). A planning model
// refreshed in place must equal the snapshot a fresh build would take.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "check/check.hpp"
#include "consolidate/constraints.hpp"
#include "consolidate/ffd.hpp"
#include "consolidate/snapshot.hpp"
#include "consolidate/working_placement.hpp"

namespace vdc::consolidate::audit {

/// One server currently satisfies the constraint set with its residents.
inline void server_feasible(const WorkingPlacement& placement, ServerId server,
                            const ConstraintSet& constraints) {
  VDC_INVARIANT(placement.feasible(server, constraints),
                "server " << server << " violates the constraint set (demand "
                          << placement.cpu_demand_ghz(server) << " GHz, capacity "
                          << placement.snapshot().server(server).max_capacity_ghz << " GHz)");
}

/// Full plan audit against the snapshot it was computed from. Applies the
/// moves to a scratch placement and checks:
///   * ids are in range and each `from` matches the VM's current host;
///   * no VM is moved twice, and no moved VM is also reported unplaced;
///   * every receiving server ends feasible under `constraints`.
/// Servers that only *shed* VMs are exempt: a cluster may start overloaded
/// (that is what relief is for), but no algorithm may make a server worse.
inline void plan(const DataCenterSnapshot& snapshot, const PlacementPlan& plan_to_check,
                 const ConstraintSet& constraints) {
#if VDC_CHECKS_ENABLED
  WorkingPlacement scratch(snapshot);
  std::vector<bool> moved(snapshot.vms.size(), false);
  std::vector<ServerId> receivers;
  for (const Move& move : plan_to_check.moves) {
    VDC_INVARIANT(move.vm < snapshot.vms.size(), "move names unknown VM " << move.vm);
    VDC_INVARIANT(move.to < snapshot.servers.size(),
                  "move targets unknown server " << move.to);
    VDC_INVARIANT(!moved[move.vm], "VM " << move.vm << " is moved twice");
    moved[move.vm] = true;
    VDC_INVARIANT(scratch.host_of(move.vm) == move.from,
                  "move 'from' is stale for VM " << move.vm << ": recorded " << move.from
                                                 << ", actual " << scratch.host_of(move.vm));
    VDC_INVARIANT(move.from != move.to, "no-op move for VM " << move.vm);
    if (move.from != datacenter::kNoServer) scratch.remove(move.vm);
    scratch.place(move.vm, move.to);
    receivers.push_back(move.to);
  }
  for (const VmId vm : plan_to_check.unplaced) {
    VDC_INVARIANT(vm < snapshot.vms.size(), "unplaced list names unknown VM " << vm);
    VDC_INVARIANT(!moved[vm], "VM " << vm << " is both moved and unplaced");
    if (scratch.host_of(vm) != datacenter::kNoServer) scratch.remove(vm);
  }
  // Feasibility is a property of the final placement, so each receiving
  // server needs checking once, not once per move that landed on it.
  std::sort(receivers.begin(), receivers.end());
  receivers.erase(std::unique(receivers.begin(), receivers.end()), receivers.end());
  for (const ServerId server : receivers) server_feasible(scratch, server, constraints);
#else
  static_cast<void>(snapshot);
  static_cast<void>(plan_to_check);
  static_cast<void>(constraints);
#endif
}

/// A snapshot refreshed in place (PlanningModel::refresh) equals
/// `snapshot_of(cluster)` field for field, doubles to the bit, and its
/// cached efficiency order equals a fresh sort. Costs what the rebuild it
/// replaced cost, so it runs only in checked builds.
inline void planning_model(const DataCenterSnapshot& refreshed,
                           std::span<const ServerId> order,
                           const datacenter::Cluster& cluster) {
#if VDC_CHECKS_ENABLED
  const DataCenterSnapshot fresh = snapshot_of(cluster);
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  VDC_INVARIANT(refreshed.servers.size() == fresh.servers.size() &&
                    refreshed.vms.size() == fresh.vms.size() &&
                    refreshed.racks.size() == fresh.racks.size() &&
                    refreshed.pods.size() == fresh.pods.size(),
                "refreshed planning model has the wrong shape");
  for (std::size_t i = 0; i < fresh.servers.size(); ++i) {
    const ServerSnapshot& a = refreshed.servers[i];
    const ServerSnapshot& b = fresh.servers[i];
    VDC_INVARIANT(a.id == b.id && same(a.max_capacity_ghz, b.max_capacity_ghz) &&
                      same(a.memory_mb, b.memory_mb) && same(a.max_power_w, b.max_power_w) &&
                      same(a.idle_power_w, b.idle_power_w) &&
                      same(a.sleep_power_w, b.sleep_power_w) &&
                      same(a.power_efficiency_ghz_per_w, b.power_efficiency_ghz_per_w) &&
                      a.active == b.active && a.failed == b.failed && a.rack == b.rack &&
                      a.pod == b.pod && a.hosted == b.hosted,
                  "refreshed planning model is stale for server " << i);
  }
  for (std::size_t i = 0; i < fresh.vms.size(); ++i) {
    const VmSnapshot& a = refreshed.vms[i];
    const VmSnapshot& b = fresh.vms[i];
    VDC_INVARIANT(a.id == b.id && same(a.cpu_demand_ghz, b.cpu_demand_ghz) &&
                      same(a.memory_mb, b.memory_mb) && a.retired == b.retired,
                  "refreshed planning model is stale for VM " << i);
  }
  for (std::size_t i = 0; i < fresh.racks.size(); ++i) {
    const RackSnapshot& a = refreshed.racks[i];
    const RackSnapshot& b = fresh.racks[i];
    VDC_INVARIANT(a.id == b.id && a.pod == b.pod && same(a.shared_power_w, b.shared_power_w) &&
                      a.members == b.members,
                  "refreshed planning model is stale for rack " << i);
  }
  for (std::size_t i = 0; i < fresh.pods.size(); ++i) {
    VDC_INVARIANT(refreshed.pods[i].id == fresh.pods[i].id &&
                      same(refreshed.pods[i].shared_power_w, fresh.pods[i].shared_power_w),
                  "refreshed planning model is stale for pod " << i);
  }
  const std::vector<ServerId> sorted = servers_by_power_efficiency(fresh);
  VDC_INVARIANT(std::equal(order.begin(), order.end(), sorted.begin(), sorted.end()),
                "cached power-efficiency order differs from a fresh sort");
#else
  static_cast<void>(refreshed);
  static_cast<void>(order);
  static_cast<void>(cluster);
#endif
}

/// A Minimum Slack (Algorithm 1) selection: every selected VM is a distinct
/// candidate, and the server admits its residents plus the whole selection.
inline void min_slack_selection(const WorkingPlacement& placement, ServerId server,
                                std::span<const VmId> candidates,
                                const ConstraintSet& constraints,
                                std::span<const VmId> selected) {
#if VDC_CHECKS_ENABLED
  // This auditor runs on every Minimum Slack call — once per server PAC
  // visits — so its cost must scale with the call's *selection*, not the
  // fleet or the candidate list: fleet-sized scratch here would
  // re-quadratize the consolidation pass the fast engine exists to avoid,
  // and most calls (servers nothing fits on) select nothing at all.
  if (selected.empty()) return;
  const DataCenterSnapshot& snapshot = placement.snapshot();
  // Sort only the (small) selection and stream the candidate list through
  // it once: sorting the candidates themselves would cost O(n log n) per
  // selecting call, which breaks the scaling promise above on relief-sized
  // candidate lists.
  std::vector<VmId> sorted_selected(selected.begin(), selected.end());
  std::sort(sorted_selected.begin(), sorted_selected.end());
  for (std::size_t i = 0; i < sorted_selected.size(); ++i) {
    const VmId vm = sorted_selected[i];
    VDC_INVARIANT(vm < snapshot.vms.size(), "Minimum Slack selected unknown VM " << vm);
    VDC_INVARIANT(i == 0 || sorted_selected[i - 1] != vm,
                  "Minimum Slack selected VM " << vm << " twice");
  }
  std::size_t matched = 0;
  for (const VmId vm : candidates) {
    if (std::binary_search(sorted_selected.begin(), sorted_selected.end(), vm)) ++matched;
  }
  // Candidates are distinct (each VM appears once in a migration list), so
  // every selected VM must be matched by exactly one candidate.
  VDC_INVARIANT(matched == sorted_selected.size(),
                "Minimum Slack selected " << (sorted_selected.size() - matched)
                                          << " non-candidate VM(s)");
  // An empty selection is always legal (the server may already be
  // overloaded — relief targets are); a non-empty one must be admissible
  // together with the server's current residents.
  VDC_INVARIANT(selected.empty() || placement.admits_with(server, selected, constraints),
                "Minimum Slack selection is inadmissible on server " << server);
#else
  static_cast<void>(placement);
  static_cast<void>(server);
  static_cast<void>(candidates);
  static_cast<void>(constraints);
  static_cast<void>(selected);
#endif
}

}  // namespace vdc::consolidate::audit
