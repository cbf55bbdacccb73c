// Immutable snapshot of the data center handed to the consolidation
// algorithms. Decoupling them from the live Cluster keeps the algorithms
// pure functions: snapshot in, placement plan out.
#pragma once

#include <vector>

#include "datacenter/cluster.hpp"

namespace vdc::consolidate {

using datacenter::NetworkDistance;
using datacenter::PodId;
using datacenter::RackId;
using datacenter::ServerId;
using datacenter::VmId;

struct VmSnapshot {
  VmId id = 0;
  double cpu_demand_ghz = 0.0;
  double memory_mb = 0.0;
  /// Scale-in tombstone: the VM left the fleet on purpose. It keeps its
  /// positional slot in `vms` (ids are indices), but planners must neither
  /// re-place it when homeless nor migrate it.
  bool retired = false;
};

struct ServerSnapshot {
  ServerId id = 0;
  double max_capacity_ghz = 0.0;  ///< at max DVFS frequency
  double memory_mb = 0.0;
  double max_power_w = 0.0;
  double idle_power_w = 0.0;   ///< active power at min utilization, max freq
  double sleep_power_w = 0.0;
  /// The paper's metric: max total frequency / max power (GHz/W).
  double power_efficiency_ghz_per_w = 0.0;
  bool active = false;
  /// Crashed (fault injection): cannot host anything, cannot be woken.
  /// ConstraintSet::admits rejects failed servers unconditionally, so every
  /// consolidation algorithm skips them without knowing why.
  bool failed = false;
  /// Physical coordinates (kNoRack/kNoPod when the cluster is flat).
  RackId rack = datacenter::kNoRack;
  PodId pod = datacenter::kNoPod;
  std::vector<VmId> hosted;
};

/// A rack's shared infrastructure as the consolidators see it.
struct RackSnapshot {
  RackId id = 0;
  PodId pod = datacenter::kNoPod;
  double shared_power_w = 0.0;  ///< paid while >= 1 member server is occupied
  std::vector<ServerId> members;
};

struct PodSnapshot {
  PodId id = 0;
  double shared_power_w = 0.0;
};

struct DataCenterSnapshot {
  std::vector<ServerSnapshot> servers;  ///< indexed by ServerId
  std::vector<VmSnapshot> vms;          ///< indexed by VmId
  std::vector<RackSnapshot> racks;      ///< indexed by RackId; empty = flat
  std::vector<PodSnapshot> pods;        ///< indexed by PodId

  [[nodiscard]] const VmSnapshot& vm(VmId id) const { return vms.at(id); }
  [[nodiscard]] const ServerSnapshot& server(ServerId id) const { return servers.at(id); }
  /// No topology captured: the flat pre-topology world.
  [[nodiscard]] bool flat() const noexcept { return racks.empty(); }
  /// Network tier between two servers (kCrossPod when either is off-grid).
  [[nodiscard]] NetworkDistance distance(ServerId a, ServerId b) const;
  /// Host of a VM (kNoServer when unplaced). O(total hosted) — use
  /// WorkingPlacement for repeated queries.
  [[nodiscard]] ServerId host_of(VmId id) const;
};

/// Captures the current demands, capacities and mapping.
[[nodiscard]] DataCenterSnapshot snapshot_of(const datacenter::Cluster& cluster);

/// A consolidation decision: the VM moves (or initial placements) to apply.
struct Move {
  VmId vm = 0;
  ServerId from = datacenter::kNoServer;  ///< kNoServer = initial placement
  ServerId to = 0;
};

struct PlacementPlan {
  std::vector<Move> moves;
  /// VMs the algorithm could not place anywhere (capacity exhausted).
  std::vector<VmId> unplaced;
  [[nodiscard]] bool complete() const noexcept { return unplaced.empty(); }
};

/// Applies a plan to the live cluster: wakes target servers, migrates /
/// places the VMs, then puts emptied servers to sleep. A stale plan is
/// tolerated: moves of retired VMs and moves onto failed servers are
/// skipped, and a VM whose source failed after planning is placed on its
/// target.
void apply_plan(datacenter::Cluster& cluster, const PlacementPlan& plan, double now_s = 0.0);

}  // namespace vdc::consolidate
