// Reference ("naive") consolidation engine: the pre-optimization
// implementations of Minimum Slack, PAC, FFD, IPAC and pMapper, retained
// verbatim as differential-testing oracles — the same strategy as
// `sim/naive.hpp` for the event loop. The fast engine in the parent
// namespace must produce move-for-move identical plans (see
// tests/test_consolidation_equivalence.cpp); `bench/perf_consolidation`
// measures the speedup against this engine.
//
// The naive engine deliberately keeps the old cost profile: per-DFS-step
// heap allocation of the resident pointer list, generic virtual-dispatch
// constraint evaluation, full-fleet power rescans each consolidation
// round, and linear target scans — so the measured ratio reflects the
// real algorithmic change, not shared-infrastructure noise.
#pragma once

#include <span>

#include "consolidate/cost_policy.hpp"
#include "consolidate/ffd.hpp"
#include "consolidate/ipac.hpp"
#include "consolidate/minimum_slack.hpp"
#include "consolidate/pac.hpp"
#include "consolidate/pmapper.hpp"
#include "consolidate/working_placement.hpp"

namespace vdc::consolidate::naive {

/// Reference fleet-power estimate: scans every server (the fast engine
/// maintains the same sum incrementally inside WorkingPlacement).
[[nodiscard]] double estimated_power_w(const WorkingPlacement& placement);

/// Algorithm 1 without branch-and-bound pruning or the O(1) builtin
/// constraint path: every DFS step materializes the resident list and
/// walks the polymorphic constraint chain.
[[nodiscard]] MinSlackResult minimum_slack(const WorkingPlacement& placement, ServerId server,
                                           std::span<const VmId> candidates,
                                           const ConstraintSet& constraints,
                                           const MinSlackOptions& options = {});

/// PAC with a full linear walk over the server order (no slack index).
PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options = {});
PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options,
                                    std::span<const ServerId> server_order);

/// FFD with the original linear first-fit scan and allocating admits.
FfdResult first_fit_decreasing(WorkingPlacement& placement, std::span<const ServerId> servers,
                               std::span<const VmId> vms, const ConstraintSet& constraints);

/// IPAC recomputing the fleet power estimate by full scan every round and
/// rebuilding the per-round target list. Mirrors the fast engine's
/// rack-aware gates (same closed-form costs, full-rescan occupancy).
[[nodiscard]] IpacReport ipac(const DataCenterSnapshot& snapshot,
                              const ConstraintSet& constraints,
                              const MigrationCostPolicy& policy = FreeMigrationPolicy(),
                              const IpacOptions& options = {},
                              const RackAwareOptions& rack = {});

/// pMapper on the naive FFD and allocating admits.
[[nodiscard]] PMapperReport pmapper(const DataCenterSnapshot& snapshot,
                                    const ConstraintSet& constraints,
                                    const RackAwareOptions& rack = {});

}  // namespace vdc::consolidate::naive
