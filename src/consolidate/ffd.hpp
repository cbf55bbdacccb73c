// First-Fit Decreasing placement — the building block of the pMapper
// baseline (Verma et al.), kept separate so the packing-quality ablation
// can compare it against Minimum Slack directly.
#pragma once

#include <span>

#include "consolidate/constraints.hpp"
#include "consolidate/working_placement.hpp"

namespace vdc::consolidate {

class SlackIndex;

struct FfdResult {
  std::vector<VmId> placed;
  std::vector<VmId> unplaced;
};

/// Places `vms` (currently unplaced) onto `servers`, trying servers in the
/// given order, VMs in decreasing CPU-demand order. Mutates `placement`.
FfdResult first_fit_decreasing(WorkingPlacement& placement, std::span<const ServerId> servers,
                               std::span<const VmId> vms, const ConstraintSet& constraints);

/// The same, with the caller's SlackIndex as the first-fit search buffer
/// (a PlanningModel's, so that a warm pass allocates no index).
FfdResult first_fit_decreasing(WorkingPlacement& placement, std::span<const ServerId> servers,
                               std::span<const VmId> vms, const ConstraintSet& constraints,
                               SlackIndex& index);

/// Servers sorted by descending power efficiency (the order in which both
/// pMapper's phase 1 and PAC walk the server list).
[[nodiscard]] std::vector<ServerId> servers_by_power_efficiency(
    const DataCenterSnapshot& snapshot);

}  // namespace vdc::consolidate
