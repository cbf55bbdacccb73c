// pMapper baseline (Verma, Ahuja, Neogi — Middleware'08), reimplemented
// from the description in Section VII of the paper:
//
//   Phase 1: sort servers by power efficiency and compute a *target*
//   allocation by first-fit placing all VMs, most-efficient server first
//   (no VM actually moves in this phase).
//   Phase 2: servers whose target utilization exceeds their current one
//   are receivers; servers with lower targets are donors. Each donor
//   contributes its smallest VMs to a migration list until it is at its
//   target; the list is then placed onto the receivers with first-fit
//   decreasing.
#pragma once

#include "consolidate/constraints.hpp"
#include "consolidate/snapshot.hpp"
#include "consolidate/topology_cost.hpp"

namespace vdc::consolidate {

class PlanningModel;

struct PMapperReport {
  PlacementPlan plan;
  std::size_t occupied_before = 0;
  std::size_t occupied_after = 0;
  std::size_t moves = 0;
  /// Phase-1 target CPU demand per server (GHz), indexed by ServerId.
  std::vector<double> target_demand_ghz;
  // Rack-aware accounting (0 when RackAwareOptions is disabled):
  /// Total migration energy (J) of the accepted moves.
  double migration_energy_j = 0.0;
  /// Moves that fell back to their origin because every receiver that
  /// admitted them was vetoed by the budget or net-energy gate.
  std::size_t moves_rejected_by_budget = 0;
};

/// With `rack.enabled` on a topology-carrying snapshot, phase-2 placements
/// are gated: a receiver that a VM fits on is still refused when the move's
/// distance-dependent migration energy would overrun the plan budget or
/// exceed its net benefit (closed-form placement_delta_w at origin minus at
/// receiver, over `rack.benefit_horizon_s`). Gated VMs stay on their origin
/// — a free non-move. Receiver order is never changed, so flat plans (and
/// disabled runs) are move-for-move identical to the pre-topology engine.
[[nodiscard]] PMapperReport pmapper(const DataCenterSnapshot& snapshot,
                                    const ConstraintSet& constraints,
                                    const RackAwareOptions& rack = {});

/// The same pass on a persistent model (refreshed by the caller).
[[nodiscard]] PMapperReport pmapper(PlanningModel& model, const ConstraintSet& constraints,
                                    const RackAwareOptions& rack = {});

}  // namespace vdc::consolidate
