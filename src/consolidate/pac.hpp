// Power Aware Consolidation (PAC, Section V): walk the servers from most to
// least power-efficient; on each, run Minimum Slack over the remaining
// unallocated VMs and commit the best-fitting subset; stop when every VM is
// placed. Greedy in server order, near-optimal per server via Algorithm 1.
#pragma once

#include <span>

#include "consolidate/minimum_slack.hpp"
#include "consolidate/slack_index.hpp"
#include "consolidate/working_placement.hpp"

namespace vdc::consolidate {

struct PacResult {
  std::vector<VmId> placed;
  std::vector<VmId> unplaced;  ///< no server could take them
  std::size_t servers_used = 0;  ///< servers that received at least one VM
  std::size_t min_slack_steps = 0;  ///< total DFS work across servers
};

/// Consolidates `vms` (currently unplaced in `placement`) onto the servers.
/// Mutates `placement`. Servers already hosting VMs participate: their
/// residents count toward the constraints, exactly as in the paper ("given
/// a list of servers (some servers are possibly not empty)").
PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options = {});

/// Variant with an explicit server visiting order (IPAC uses it to exclude
/// the server being evacuated from the target list).
PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options,
                                    std::span<const ServerId> server_order);

/// Variant driven by a SlackIndex built over the visiting order: servers
/// whose raw CPU slack cannot take even the smallest remaining candidate
/// are skipped in O(log n) instead of each paying an (empty) Minimum Slack
/// call. The index must be registered as the placement's slack observer so
/// placements keep it current; masked servers (IPAC's donor) are never
/// visited. Plan-identical to the linear walk — see SlackIndex's header
/// for the argument.
PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options, const SlackIndex& index);

}  // namespace vdc::consolidate
