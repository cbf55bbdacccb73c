// Algorithm 1 of the paper: Minimum Slack for a single server.
//
// Given a server (not necessarily empty) and a list of unallocated VMs,
// select a subset whose placement on the server leaves the least
// unallocated CPU resource — subject to arbitrary placement constraints
// (the paper's generalization of Fleszar & Hindi's Minimum Bin Slack
// heuristic). The depth-first search exits early once the slack drops
// below the tolerance epsilon; when a step budget is exhausted, epsilon is
// increased ("by one step" in the paper; a multiplicative escalation here)
// so the search always terminates in bounded time.
#pragma once

#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "consolidate/constraints.hpp"
#include "consolidate/working_placement.hpp"

namespace vdc::consolidate {

struct MinSlackOptions {
  /// Slack below which the fit is accepted immediately (GHz).
  double epsilon_ghz = 0.05;
  /// Candidate-placement attempts explored before epsilon is escalated.
  std::size_t step_budget = 20000;
  /// Multiplier applied to epsilon on each escalation.
  double epsilon_escalation = 2.0;
  /// Escalations before the search returns the best found so far.
  std::size_t max_escalations = 8;
};

/// Throws std::invalid_argument, naming `owner`, unless epsilon_ghz is
/// finite and > 0, step_budget >= 1 and epsilon_escalation is finite and
/// > 1. A NaN epsilon would fail every "slack >= epsilon" test and so skip
/// every search; a ladder that does not grow would never end a search that
/// the budget stops.
void validate(const MinSlackOptions& options, std::string_view owner);

struct MinSlackResult {
  /// Best-fitting VM subset, in selection order, which is the candidates'
  /// sorted order (largest demand first, ties by id).
  std::vector<VmId> selected;
  double slack_ghz = 0.0;      ///< remaining CPU slack with that subset
  std::size_t steps = 0;       ///< DFS nodes explored
  std::size_t escalations = 0;
};

/// The candidates of a sequence of Minimum Slack calls over one snapshot,
/// sorted once by descending demand (ties by id), with the demand and memory
/// mirrors and suffix sums the search reads, and the search's own scratch.
/// PAC builds one per call, while the snapshot cannot change, and erases
/// each selection from it; what is left is still sorted, because the sort
/// key is a total order.
class CandidateSet {
 public:
  /// Replaces the contents with `vms`, sorted, reusing the buffers' capacity.
  /// Throws std::invalid_argument when a VM is already placed.
  void assign(const WorkingPlacement& placement, std::span<const VmId> vms);
  /// Removes `selected`, which must be a subsequence of vms() — a Minimum
  /// Slack selection is — in one pass. Throws std::invalid_argument, with
  /// the set unchanged, when it is not.
  void erase(std::span<const VmId> selected);

  [[nodiscard]] std::span<const VmId> vms() const noexcept { return order_; }
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] bool empty() const noexcept { return order_.empty(); }
  /// Smallest demand and smallest memory in the set; +inf when it is empty.
  [[nodiscard]] double smallest_demand_ghz() const noexcept;
  [[nodiscard]] double smallest_memory_mb() const noexcept { return msuffix_min_.front(); }

 private:
  friend MinSlackResult minimum_slack(const WorkingPlacement&, ServerId, CandidateSet&,
                                      const ConstraintSet&, const MinSlackOptions&);
  void rebuild_suffixes();

  const DataCenterSnapshot* snapshot_ = nullptr;
  std::vector<VmId> order_;           // largest demand first
  std::vector<double> demand_of_;     // demand_of_[i] = demand of order_[i]
  std::vector<double> memory_of_;     // memory_of_[i] = memory of order_[i]
  std::vector<double> suffix_;        // suffix_[i] = total demand of order_[i..]
  std::vector<double> msuffix_;       // msuffix_[i] = total memory of order_[i..]
  // msuffix_min_[i] = smallest memory in order_[i..]; +inf past the end
  std::vector<double> msuffix_min_{std::numeric_limits<double>::infinity()};
  std::vector<char> dupfree_;         // dupfree_[i]: no equal-adjacent pair in order_[i..]
  std::vector<std::size_t> erased_;   // erase(): positions of the selection
  std::vector<std::size_t> stack_;    // search: selected candidate index per depth
  std::vector<const VmSnapshot*> resident_;  // generic search: existing + selected
  std::vector<VmId> selected_;               // generic search: current selection
};

/// Does not mutate `placement`; the caller places `selected` afterwards.
/// `candidates` must currently be unplaced VMs. Sorts them on every call.
[[nodiscard]] MinSlackResult minimum_slack(const WorkingPlacement& placement, ServerId server,
                                           std::span<const VmId> candidates,
                                           const ConstraintSet& constraints,
                                           const MinSlackOptions& options = {});

/// The same search over a set that is already sorted. The set must have
/// been built over `placement`'s snapshot, and its VMs must still be
/// unplaced: erase each selection before placing it elsewhere. The search
/// works in the set's scratch and leaves its candidates as they were.
[[nodiscard]] MinSlackResult minimum_slack(const WorkingPlacement& placement, ServerId server,
                                           CandidateSet& candidates,
                                           const ConstraintSet& constraints,
                                           const MinSlackOptions& options = {});

}  // namespace vdc::consolidate
