#include "consolidate/ffd.hpp"

#include <algorithm>

#include "check/consolidate_audit.hpp"
#include "consolidate/slack_index.hpp"

namespace vdc::consolidate {

namespace {

/// Below this many servers the linear first-fit scan beats building a tree.
constexpr std::size_t kIndexThreshold = 64;

}  // namespace

FfdResult first_fit_decreasing(WorkingPlacement& placement, std::span<const ServerId> servers,
                               std::span<const VmId> vms, const ConstraintSet& constraints) {
  SlackIndex index;
  return first_fit_decreasing(placement, servers, vms, constraints, index);
}

FfdResult first_fit_decreasing(WorkingPlacement& placement, std::span<const ServerId> servers,
                               std::span<const VmId> vms, const ConstraintSet& constraints,
                               SlackIndex& index) {
  const DataCenterSnapshot& snapshot = placement.snapshot();
  std::vector<VmId> order(vms.begin(), vms.end());
  std::sort(order.begin(), order.end(), [&](VmId a, VmId b) {
    const double da = snapshot.vm(a).cpu_demand_ghz;
    const double db = snapshot.vm(b).cpu_demand_ghz;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (da != db) return da > db;
    return a < b;
  });

  // First-fit has no capacity bound of its own, so slack-skipping is only
  // sound when a CpuCapacityConstraint is present: its target is <= 1, so
  // any server whose raw slack is below the VM's demand would be rejected
  // by it — skipping cannot change which server is "first". Constraint
  // sets without a CPU constraint keep the plain linear scan.
  const ConstraintSet::BuiltinProfile& profile = constraints.builtin_profile();
  const bool use_index = profile.has_cpu && servers.size() >= kIndexThreshold;
  if (use_index) {
    index.build(servers, snapshot.servers.size(),
                [&](ServerId server) { return placement.cpu_slack(server); });
  }

  FfdResult result;
  for (const VmId vm : order) {
    const double demand = snapshot.vm(vm).cpu_demand_ghz;
    const VmId extra[] = {vm};
    bool placed = false;
    if (use_index) {
      for (std::size_t pos = 0;
           (pos = index.find_first(pos, demand - 1e-9)) != SlackIndex::npos; ++pos) {
        const ServerId server = index.server_at(pos);
        if (placement.admits_with(server, extra, constraints)) {
          placement.place(vm, server);
          index.update(server, placement.cpu_slack(server));
          result.placed.push_back(vm);
          placed = true;
          break;
        }
      }
    } else {
      for (const ServerId server : servers) {
        if (placement.admits_with(server, extra, constraints)) {
          placement.place(vm, server);
          result.placed.push_back(vm);
          placed = true;
          break;
        }
      }
    }
    if (!placed) result.unplaced.push_back(vm);
  }
  for (const VmId vm : result.placed) {
    audit::server_feasible(placement, placement.host_of(vm), constraints);
  }
  return result;
}

std::vector<ServerId> servers_by_power_efficiency(const DataCenterSnapshot& snapshot) {
  std::vector<ServerId> order;
  order.reserve(snapshot.servers.size());
  for (const ServerSnapshot& server : snapshot.servers) order.push_back(server.id);
  std::sort(order.begin(), order.end(), [&](ServerId a, ServerId b) {
    const double ea = snapshot.server(a).power_efficiency_ghz_per_w;
    const double eb = snapshot.server(b).power_efficiency_ghz_per_w;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (ea != eb) return ea > eb;
    return a < b;
  });
  return order;
}

}  // namespace vdc::consolidate
