// Incremental Power Aware Consolidation (IPAC, Section V).
//
// Each invocation:
//   1. Overload relief: pull the smallest VMs off servers that can no
//      longer host their load (workload grew since the last invocation)
//      into the migration list, and PAC-place them.
//   2. Consolidation rounds: evacuate the least power-efficient occupied
//      server into the migration list, PAC-place the list on the other
//      servers, and keep going with the next least-efficient server while
//      the number of occupied servers decreases. A round that fails to
//      place every VM — or whose migrations the cost policy rejects — is
//      rolled back and ends the loop.
//
// Only the migration list is repacked each time (hence *incremental*),
// which is what keeps IPAC cheap enough to run with Minimum Slack inside.
#pragma once

#include <cstddef>

#include "consolidate/cost_policy.hpp"
#include "consolidate/minimum_slack.hpp"
#include "consolidate/snapshot.hpp"
#include "consolidate/topology_cost.hpp"

namespace vdc::consolidate {

class PlanningModel;

struct IpacOptions {
  MinSlackOptions min_slack;
};

struct IpacReport {
  PlacementPlan plan;
  std::size_t occupied_before = 0;
  std::size_t occupied_after = 0;
  std::size_t overload_moves = 0;
  std::size_t consolidation_moves = 0;
  std::size_t rounds_attempted = 0;
  std::size_t rounds_accepted = 0;
  std::size_t rounds_rejected_by_policy = 0;
  std::size_t min_slack_steps = 0;
  // Rack-aware accounting (all 0 when RackAwareOptions is disabled):
  /// Rounds whose migration energy exceeded their net-energy benefit.
  std::size_t rounds_rejected_by_cost = 0;
  /// Rounds that would have spent past the plan's energy budget.
  std::size_t rounds_rejected_by_budget = 0;
  /// Total migration energy (J) the plan's moves cost (relief included).
  double migration_energy_j = 0.0;
  /// Racks occupied before the pass and fully evacuated by it (their
  /// shared-infrastructure draw switches off when the plan is applied).
  std::size_t racks_emptied = 0;
};

/// Pure function: computes the plan; apply it with apply_plan().
/// Overload-relief migrations bypass the cost policy (they protect SLAs);
/// consolidation migrations are submitted to it move by move.
///
/// With `rack.enabled` on a topology-carrying snapshot, the pass becomes
/// budgeted and rack-aware: donors are evacuated nearly-empty racks first
/// (completing a rack evacuation switches off its shared draw), every
/// consolidation round is scored on NET energy — stationary savings over
/// `rack.benefit_horizon_s` minus the round's distance-dependent migration
/// energy — and rounds that lose energy or overrun the plan budget are
/// rolled back (the search then continues with the next donor, since a
/// cross-pod-expensive donor says nothing about a same-rack-cheap one).
/// With the default (disabled) options, or on a flat snapshot, plans are
/// move-for-move identical to the pre-topology engine.
///
/// This entry point plans on a one-shot PlanningModel over `snapshot`.
[[nodiscard]] IpacReport ipac(const DataCenterSnapshot& snapshot,
                              const ConstraintSet& constraints,
                              const MigrationCostPolicy& policy = FreeMigrationPolicy(),
                              const IpacOptions& options = {},
                              const RackAwareOptions& rack = {});

/// The same pass on a persistent model (refreshed by the caller): the plan
/// is bit-identical to `ipac(model.snapshot(), ...)`.
[[nodiscard]] IpacReport ipac(PlanningModel& model, const ConstraintSet& constraints,
                              const MigrationCostPolicy& policy = FreeMigrationPolicy(),
                              const IpacOptions& options = {},
                              const RackAwareOptions& rack = {});

}  // namespace vdc::consolidate
