// Cost-aware VM migration (Section V, last paragraph). Migration cost
// "can be highly different for different data centers", so the paper
// "provide[s] an interface for data center administrators to define their
// own cost functions based on their various policies". This is that
// interface: IPAC submits each consolidation move to a MigrationCostPolicy
// and rolls the round back on the first veto. FreeMigrationPolicy (every
// move allowed) is the paper's simulation default;
// examples/custom_cost_policy.cpp writes one of its own.
//
// UNITS. `estimated_benefit_w` is steady-state POWER in watts, not energy.
// The distance-dependent migration ENERGY (J) and the per-plan energy
// budget are not the policy's business: RackAwareOptions
// (topology_cost.hpp) gates whole IPAC rounds and single pMapper moves on
// them before any proposal reaches a policy.
#pragma once

#include <string>

#include "consolidate/snapshot.hpp"

namespace vdc::consolidate {

struct MigrationProposal {
  VmId vm = 0;
  ServerId from = 0;
  ServerId to = 0;
  /// Estimated power saving attributable to this migration (W). For an
  /// evacuation round that lets a server sleep, the donor's idle power is
  /// split across the round's moves.
  double estimated_benefit_w = 0.0;
};

class MigrationCostPolicy {
 public:
  virtual ~MigrationCostPolicy() = default;
  [[nodiscard]] virtual bool allow(const DataCenterSnapshot& snapshot,
                                   const MigrationProposal& proposal) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Migrations are free: benefits always outweigh costs (the paper's
/// simulation default).
class FreeMigrationPolicy final : public MigrationCostPolicy {
 public:
  [[nodiscard]] bool allow(const DataCenterSnapshot&, const MigrationProposal&) const override {
    return true;
  }
  [[nodiscard]] std::string name() const override { return "free-migration"; }
};

}  // namespace vdc::consolidate
