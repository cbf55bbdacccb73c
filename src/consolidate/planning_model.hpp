// The data-center planning state that persists across consolidation plans.
//
// IPAC is incremental (it consolidates from the current placement), and a
// planner that runs every hour against the same fleet sees the same
// servers each time: only their state flags, their hosted lists and the
// VMs' demands change between plans. The model therefore keeps, for the
// lifetime of its owner (core::PowerOptimizer, which lends it to the
// overload guard and the trace simulator's initial placement):
//   * the snapshot buffers, refreshed in place from the live Cluster;
//   * the servers in descending power-efficiency order — a constant of
//     each server's spec, sorted once per fleet;
//   * the WorkingPlacement and SlackIndex buffers the planners reuse.
//
// `refresh` copies the whole dynamic state from the cluster rather than
// consuming a feed of deltas. The cluster changes through in-flight
// migrations, crashes, repairs, replica scaling, plans whose failed targets
// `apply_plan` skips and moves the backoff filter drops; a delta protocol
// would have to see every one of those paths, and one missed path would
// make every later plan silently wrong. A refresh is O(servers + VMs) and
// allocates nothing once the buffers have grown.
//
// The placement aggregates (per-server sums, the compensated fleet power,
// slack keys) are rebuilt by WorkingPlacement::reset in exactly the order a
// fresh construction uses, so plans computed on a warm model are
// bit-identical to plans computed from `snapshot_of(cluster)`.
#pragma once

#include <span>
#include <vector>

#include "consolidate/slack_index.hpp"
#include "consolidate/snapshot.hpp"
#include "consolidate/working_placement.hpp"

namespace vdc::consolidate {

class PlanningModel {
 public:
  /// Per-pass scratch lists the planners fill and discard. They live here
  /// so that a warm plan reuses their capacity.
  struct Scratch {
    std::vector<ServerId> order;    ///< a pass's server visiting order
    std::vector<ServerId> tail;     ///< a second segment of that order
    std::vector<ServerId> servers;  ///< donors, receivers or triggered servers
    std::vector<char> flags;        ///< per-rack or per-server marks
  };

  /// An empty model; `refresh` fills it from a cluster.
  PlanningModel() = default;
  /// A one-shot model over a caller-owned snapshot, which must outlive it.
  /// This is how the pure `ipac(snapshot, ...)` entry points run on the
  /// same engine as the optimizer.
  explicit PlanningModel(const DataCenterSnapshot& snapshot);

  // The placement buffers point into the snapshot: the model stays put.
  PlanningModel(const PlanningModel&) = delete;
  PlanningModel& operator=(const PlanningModel&) = delete;

  /// Brings the snapshot up to date with `cluster`. Per-server spec fields
  /// and the efficiency order are recomputed only when the fleet changes
  /// (another cluster, or a different server count); everything else is
  /// copied into the existing buffers. Under VDC_CHECKS the result is
  /// audited against `snapshot_of(cluster)`.
  void refresh(const datacenter::Cluster& cluster);

  [[nodiscard]] const DataCenterSnapshot& snapshot() const noexcept { return *view_; }
  /// Every server by descending power efficiency, ties by id: what
  /// `servers_by_power_efficiency(snapshot())` returns.
  [[nodiscard]] std::span<const ServerId> efficiency_order() const noexcept { return order_; }

  /// The placement, reset to the snapshot's mapping for one planning pass.
  [[nodiscard]] WorkingPlacement& fresh_placement();
  /// A second placement with every VM unplaced (pMapper's target fleet).
  [[nodiscard]] WorkingPlacement& fresh_phantom();
  [[nodiscard]] SlackIndex& slack_index() noexcept { return index_; }
  [[nodiscard]] Scratch& scratch() noexcept { return scratch_; }

 private:
  DataCenterSnapshot own_;                   // refreshed from a cluster
  const DataCenterSnapshot* view_ = &own_;   // own_, or a one-shot snapshot
  const datacenter::Cluster* source_ = nullptr;  // fleet the spec fields came from
  std::vector<ServerId> order_;
  WorkingPlacement placement_;
  WorkingPlacement phantom_;
  SlackIndex index_;
  Scratch scratch_;
};

}  // namespace vdc::consolidate
