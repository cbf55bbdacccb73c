// Migration economics over the physical topology.
//
// A live migration is not free: the pre-copy transfer keeps source and
// destination NICs/CPUs busy for its whole duration, drawing extra power
// (Srinivasan & Bellur, "Novel Power and Completion Time Models for
// Virtualized Environments", PAPERS.md). The further the copy travels —
// same rack over the ToR switch, cross-rack over the pod fabric, cross-pod
// over the core — the less bandwidth it sees, the longer it runs, and the
// more energy it burns. A net-energy objective must charge that energy
// against the stationary power a move saves.
//
// Units, fixed here once for the whole optimizer boundary: costs and
// budgets are ENERGY in joules (J = W·s). Stationary savings are POWER in
// watts; they convert to energy by multiplying with the benefit horizon
// (how long the new placement is expected to stand, typically one
// consolidation period): benefit_j = benefit_w * benefit_horizon_s.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "consolidate/working_placement.hpp"
#include "datacenter/migration.hpp"
#include "datacenter/topology.hpp"

namespace vdc::consolidate {

/// Energy cost of moving a VM a given network distance.
struct MigrationCostModel {
  /// Transfer timing (bandwidth tiers per distance live inside).
  datacenter::MigrationModel transfer;
  /// Extra power drawn across source + destination while the pre-copy
  /// transfer runs (NICs, copy threads, dirty-page tracking).
  double migration_power_w = 25.0;

  /// Energy (J) to migrate a VM with the given memory footprint across
  /// `distance`. A same-host "move" copies nothing and costs exactly 0.
  [[nodiscard]] double energy_j(double vm_memory_mb,
                                datacenter::NetworkDistance distance) const noexcept {
    if (distance == datacenter::NetworkDistance::kSameHost) return 0.0;
    return transfer.duration_s(vm_memory_mb, distance) * migration_power_w;
  }
};

/// Opt-in knobs for budgeted, rack-aware consolidation: the one place the
/// per-plan migration-energy budget lives.
///
/// The defaults are the provable no-op: disabled, infinite budget, zero
/// effect on any engine — flat plans stay move-for-move identical. Enabling
/// makes IPAC gate whole consolidation rounds, and pMapper single moves, on
/// NET energy — server dynamic + shared-infrastructure delta minus
/// migration energy — and refuse to spend past the per-plan energy budget.
struct RackAwareOptions {
  /// Master switch. Off = today's benefit-always-wins behavior.
  bool enabled = false;
  /// Distance-dependent migration energy model.
  MigrationCostModel cost;
  /// Per-plan migration energy budget (J). Moves beyond it are rejected;
  /// overload-relief moves are exempt (correctness beats economy) but
  /// still charged against the plan's reported spend.
  double migration_energy_budget_j = std::numeric_limits<double>::infinity();
  /// How long the improved placement is expected to stand (s); converts
  /// stationary W savings into J for comparison against migration cost.
  double benefit_horizon_s = 3600.0;
};

/// Throws std::invalid_argument, naming `owner` and the field, unless the
/// budget is >= 0 (infinity is the unbudgeted default), the benefit horizon
/// is finite and >= 0, and the cost model prices every move at a finite,
/// non-negative energy: migration power finite and >= 0, bandwidth and
/// overhead finite and > 0, both tier factors in (0, 1], downtime finite
/// and >= 0. A NaN budget or cost fails every "cost > budget" and
/// "benefit < cost" test, so it would silently lift both gates.
inline void validate(const RackAwareOptions& rack, std::string_view owner) {
  const auto reject = [&](const char* what) {
    throw std::invalid_argument(std::string(owner) + ": rack." + what);
  };
  const auto finite_non_negative = [](double v) { return std::isfinite(v) && v >= 0.0; };
  const auto finite_positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto unit_fraction = [](double v) { return v > 0.0 && v <= 1.0; };
  const datacenter::MigrationModel& transfer = rack.cost.transfer;
  if (!(rack.migration_energy_budget_j >= 0.0)) reject("migration_energy_budget_j must be >= 0");
  if (!finite_non_negative(rack.benefit_horizon_s)) {
    reject("benefit_horizon_s must be finite and >= 0");
  }
  if (!finite_non_negative(rack.cost.migration_power_w)) {
    reject("cost.migration_power_w must be finite and >= 0");
  }
  if (!finite_positive(transfer.network_bandwidth_mbps)) {
    reject("cost.transfer.network_bandwidth_mbps must be finite and > 0");
  }
  if (!finite_positive(transfer.overhead_factor)) {
    reject("cost.transfer.overhead_factor must be finite and > 0");
  }
  if (!unit_fraction(transfer.cross_rack_bandwidth_factor)) {
    reject("cost.transfer.cross_rack_bandwidth_factor must be in (0, 1]");
  }
  if (!unit_fraction(transfer.cross_pod_bandwidth_factor)) {
    reject("cost.transfer.cross_pod_bandwidth_factor must be in (0, 1]");
  }
  if (!finite_non_negative(transfer.downtime_s)) {
    reject("cost.transfer.downtime_s must be finite and >= 0");
  }
}

/// Closed-form power delta (W) of adding one VM of `vm_demand_ghz` to
/// `server` in the placement's CURRENT state: linear dynamic power on the
/// server itself, plus — when the server is asleep and the last lit member
/// of its rack/pod — the shared draw its wake-up switches back on.
///
/// Gate comparisons in the fast and reference engines must evaluate THIS
/// function, not their respective fleet-power estimates: the incremental
/// compensated sum and the full rescan agree only to rounding, and a
/// last-bit disagreement across a gate threshold would desynchronize the
/// differential oracle.
[[nodiscard]] inline double placement_delta_w(const WorkingPlacement& placement,
                                              ServerId server, double vm_demand_ghz) {
  const DataCenterSnapshot& snapshot = placement.snapshot();
  const ServerSnapshot& info = snapshot.server(server);
  const auto linear_w = [&](double demand_ghz) {
    const double utilization =
        std::min(1.0, demand_ghz / std::max(1e-9, info.max_capacity_ghz));
    return info.idle_power_w + (info.max_power_w - info.idle_power_w) * utilization;
  };
  const double demand = placement.cpu_demand_ghz(server);
  const double before =
      placement.occupied(server) ? linear_w(demand) : info.sleep_power_w;
  double delta = linear_w(demand + vm_demand_ghz) - before;
  if (!placement.occupied(server) && !snapshot.racks.empty()) {
    if (info.rack != datacenter::kNoRack && placement.rack_occupied_count(info.rack) == 0) {
      delta += snapshot.racks[info.rack].shared_power_w;
    }
    if (info.pod != datacenter::kNoPod && placement.pod_occupied_count(info.pod) == 0) {
      delta += snapshot.pods[info.pod].shared_power_w;
    }
  }
  return delta;
}

}  // namespace vdc::consolidate
