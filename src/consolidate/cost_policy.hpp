// Cost-aware VM migration (Section V, last paragraph). Migration cost
// "can be highly different for different data centers", so the paper
// "provide[s] an interface for data center administrators to define their
// own cost functions based on their various policies". This is that
// interface, with the obvious built-in policies.
//
// UNITS. Every energy quantity crossing this boundary is joules (J), and
// 1 J = 1 W·s exactly: `estimated_benefit_j` is the stationary power
// saving in watts times the optimizer's benefit horizon in seconds, and
// `cost_j` is migration power times transfer duration. `estimated_benefit_w`
// stays in watts for policies (like MinBenefitPolicy) that reason about
// steady-state power rather than energy. Mixing the two is the bug this
// comment exists to prevent.
#pragma once

#include <memory>
#include <string>

#include "consolidate/snapshot.hpp"
#include "datacenter/migration.hpp"

namespace vdc::consolidate {

struct MigrationProposal {
  VmId vm = 0;
  ServerId from = 0;
  ServerId to = 0;
  /// Estimated power saving attributable to this migration (W). For an
  /// evacuation round that lets a server sleep, the donor's idle power is
  /// split across the round's moves.
  double estimated_benefit_w = 0.0;
  /// Bytes the migration moves over the network.
  double bytes = 0.0;
  /// Bytes of migrations already approved in this optimizer invocation.
  double bytes_already_approved = 0.0;
  /// Network tier the move crosses (kSameRack when the fleet is flat).
  NetworkDistance distance = NetworkDistance::kSameRack;
  /// Migration energy this move burns (J = W·s). 0 when the engine runs
  /// without a cost model.
  double cost_j = 0.0;
  /// Migration energy of moves already approved in this invocation (J).
  double cost_already_approved_j = 0.0;
  /// The benefit converted to energy over the optimizer's horizon
  /// (J = estimated_benefit_w × benefit_horizon_s). 0 when the engine runs
  /// without a cost model.
  double estimated_benefit_j = 0.0;
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

/// Caps the total bytes migrated per optimizer invocation — the paper's
/// "network bandwidth is a bottleneck" example.
class BandwidthBudgetPolicy final : public MigrationCostPolicy {
 public:
  explicit BandwidthBudgetPolicy(double max_bytes_per_invocation);
  [[nodiscard]] bool allow(const DataCenterSnapshot& snapshot,
                           const MigrationProposal& proposal) const override;
  [[nodiscard]] std::string name() const override { return "bandwidth-budget"; }

 private:
  double max_bytes_;
};

/// Requires a minimum expected power saving per migration; large-memory
/// VMs (expensive to move) can demand a higher payoff via `w_per_gb`.
class MinBenefitPolicy final : public MigrationCostPolicy {
 public:
  explicit MinBenefitPolicy(double min_benefit_w, double w_per_gb = 0.0);
  [[nodiscard]] bool allow(const DataCenterSnapshot& snapshot,
                           const MigrationProposal& proposal) const override;
  [[nodiscard]] std::string name() const override { return "min-benefit"; }

 private:
  double min_benefit_w_;
  double w_per_gb_;
};

/// Caps the total migration ENERGY (J) spent per optimizer invocation, and
/// rejects same-host proposals outright — a zero-distance move transfers
/// nothing, saves nothing, and only pollutes the plan. Requires the engine
/// to fill the energy fields (i.e. a rack-aware run); throws on proposals
/// with invalid cost.
class MigrationEnergyBudgetPolicy final : public MigrationCostPolicy {
 public:
  explicit MigrationEnergyBudgetPolicy(double budget_j);
  [[nodiscard]] bool allow(const DataCenterSnapshot& snapshot,
                           const MigrationProposal& proposal) const override;
  [[nodiscard]] std::string name() const override { return "migration-energy-budget"; }

 private:
  double budget_j_;
};

}  // namespace vdc::consolidate
