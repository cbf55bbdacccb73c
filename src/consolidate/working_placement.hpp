// Mutable scratch mapping used inside the consolidation algorithms. Tracks
// which VMs sit on which server with fully incremental aggregates: per-
// server demand/memory sums, the occupied-server count, and a delta-updated
// fleet power estimate, so `cpu_demand_ghz`, `cpu_slack`, `estimated_power_w`
// and `occupied_server_count` are all O(1) and `remove` is O(1) via
// swap-and-pop slot tracking. The original-host map is captured once at
// construction (it is immutable per snapshot), so emitting the diff as a
// PlacementPlan no longer rescans the snapshot. `reset` rebuilds the same
// state in place, reusing every buffer, for planners that keep one
// placement alive across plans (see PlanningModel).
#pragma once

#include <span>
#include <vector>

#include "consolidate/constraints.hpp"
#include "consolidate/snapshot.hpp"

namespace vdc::consolidate {

class SlackIndex;

class WorkingPlacement {
 public:
  /// Where the placement starts: the snapshot's own mapping, or with every
  /// VM unplaced (a phantom fleet to plan a target allocation on).
  enum class Start { kSnapshot, kEmpty };

  WorkingPlacement() = default;
  explicit WorkingPlacement(const DataCenterSnapshot& snapshot);

  /// Rebuilds the placement over `snapshot` exactly as the constructor
  /// would — same summation order, so every aggregate is bit-identical —
  /// but in the existing buffers: once they have grown to the fleet's
  /// size, a reset allocates nothing. Detaches any slack observer.
  void reset(const DataCenterSnapshot& snapshot, Start start = Start::kSnapshot);

  [[nodiscard]] const DataCenterSnapshot& snapshot() const noexcept { return *snapshot_; }

  [[nodiscard]] ServerId host_of(VmId vm) const { return host_.at(vm); }
  /// Host in the snapshot this placement was constructed from (immutable).
  [[nodiscard]] ServerId original_host(VmId vm) const { return original_.at(vm); }
  [[nodiscard]] std::span<const VmId> hosted(ServerId server) const {
    return hosted_.at(server);
  }
  /// The same residents as `hosted`, as snapshot pointers (for constraint
  /// evaluation without per-call lookups). The pointer mirror is built
  /// lazily on first use — builtin-only constraint sets never touch it,
  /// and eagerly mirroring every server cost more than a consolidation
  /// pass saves. Like the rest of this class, not safe for concurrent use.
  [[nodiscard]] std::span<const VmSnapshot* const> hosted_snapshots(ServerId server) const {
    if (!ptrs_valid_) materialize_ptrs();
    return hosted_ptrs_.at(server);
  }
  [[nodiscard]] double cpu_demand_ghz(ServerId server) const { return demand_.at(server); }
  [[nodiscard]] double memory_used_mb(ServerId server) const { return memory_.at(server); }

  /// Detaches a VM from its host (it becomes unplaced). O(1).
  void remove(VmId vm);
  /// Attaches an unplaced VM to a server (no constraint check). O(1).
  void place(VmId vm, ServerId server);

  /// Would `server` admit its current VMs plus `extra` under `constraints`?
  /// O(extra) for builtin-only constraint sets (running sums against the
  /// cached per-server aggregates); allocation-free generic evaluation
  /// otherwise (a reused scratch vector backs the resident list).
  [[nodiscard]] bool admits_with(ServerId server, std::span<const VmId> extra,
                                 const ConstraintSet& constraints) const;
  /// Does the server satisfy the constraints with exactly its current VMs?
  [[nodiscard]] bool feasible(ServerId server, const ConstraintSet& constraints) const {
    return admits_with(server, {}, constraints);
  }

  /// Servers currently hosting at least one VM. O(1).
  [[nodiscard]] std::size_t occupied_server_count() const noexcept { return occupied_count_; }
  [[nodiscard]] bool occupied(ServerId server) const { return !hosted_.at(server).empty(); }

  /// Occupied member servers of a rack / pod, and racks with >= 1 occupied
  /// member. All O(1), maintained incrementally on place/remove so budgeted
  /// rack-aware scoring (does this move empty a rack? light one up?) never
  /// rescans the fleet. Meaningful only when the snapshot carries racks.
  [[nodiscard]] std::size_t rack_occupied_count(RackId rack) const {
    return rack_occupied_.at(rack);
  }
  [[nodiscard]] std::size_t pod_occupied_count(PodId pod) const { return pod_occupied_.at(pod); }
  [[nodiscard]] std::size_t occupied_rack_count() const noexcept { return occupied_rack_count_; }

  /// CPU slack of a server: capacity * utilization_target - demand. Uses
  /// target 1.0; Minimum Slack passes its own target through constraints.
  [[nodiscard]] double cpu_slack(ServerId server) const;

  /// Estimated total power of the placement under IPAC's model: occupied
  /// servers run at max frequency with linear-in-utilization power, empty
  /// servers sleep; when the snapshot carries a topology, each rack/pod
  /// with >= 1 occupied member additionally charges its shared-
  /// infrastructure draw (an evacuated rack switches it off). Maintained
  /// incrementally (Neumaier-compensated running sum of per-server
  /// contributions plus 0 <-> 1 rack/pod occupancy transitions), so each
  /// query is O(1); the reference full scan lives in
  /// naive::estimated_power_w. Flat snapshots never touch the rack terms,
  /// so flat results are bit-identical to the pre-topology estimate.
  [[nodiscard]] double estimated_power_w() const noexcept {
    return power_total_w_ + power_compensation_w_;
  }

  /// Registers a SlackIndex to be kept in sync: every place/remove updates
  /// the touched server's key to its new raw CPU slack. One observer at a
  /// time; pass nullptr to detach. The index is NOT seeded here.
  void set_slack_observer(SlackIndex* index) noexcept { slack_observer_ = index; }

  /// Diff against the original snapshot (placements and migrations).
  [[nodiscard]] PlacementPlan plan(std::span<const VmId> unplaced = {}) const;

 private:
  [[nodiscard]] double power_contribution_w(ServerId server) const;
  void refresh_power(ServerId server);
  void note_occupied(ServerId server);
  void note_emptied(ServerId server);
  void materialize_ptrs() const;

  const DataCenterSnapshot* snapshot_ = nullptr;
  std::vector<ServerId> host_;             // per VM
  std::vector<ServerId> original_;         // per VM, frozen at construction
  std::vector<std::uint32_t> slot_;        // per VM: index within its host list
  std::vector<std::vector<VmId>> hosted_;  // per server
  // Parallel to hosted_, built on demand (see hosted_snapshots).
  mutable std::vector<std::vector<const VmSnapshot*>> hosted_ptrs_;
  mutable bool ptrs_valid_ = false;
  std::vector<double> demand_;             // per server, GHz
  std::vector<double> memory_;             // per server, MB
  std::vector<double> power_;              // per server, cached contribution (W)
  double power_total_w_ = 0.0;               // compensated running fleet power
  double power_compensation_w_ = 0.0;
  std::size_t occupied_count_ = 0;
  std::vector<std::uint32_t> rack_occupied_;  // per rack: occupied member servers
  std::vector<std::uint32_t> pod_occupied_;   // per pod: occupied member servers
  std::size_t occupied_rack_count_ = 0;
  SlackIndex* slack_observer_ = nullptr;
  mutable std::vector<const VmSnapshot*> scratch_;  // generic admits_with
};

}  // namespace vdc::consolidate
