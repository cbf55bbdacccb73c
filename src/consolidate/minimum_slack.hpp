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

#include <span>
#include <string_view>

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
  std::vector<VmId> selected;  ///< best-fitting VM subset, in selection order
  double slack_ghz = 0.0;      ///< remaining CPU slack with that subset
  std::size_t steps = 0;       ///< DFS nodes explored
  std::size_t escalations = 0;
};

/// Does not mutate `placement`; the caller places `selected` afterwards.
/// `candidates` must currently be unplaced VMs.
[[nodiscard]] MinSlackResult minimum_slack(const WorkingPlacement& placement, ServerId server,
                                           std::span<const VmId> candidates,
                                           const ConstraintSet& constraints,
                                           const MinSlackOptions& options = {});

}  // namespace vdc::consolidate
