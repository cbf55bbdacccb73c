// Data-center-level power optimizer: periodically refreshes its planning
// model from the cluster, runs the configured consolidation algorithm
// (IPAC or the pMapper baseline), pushes the resulting migrations/sleep
// transitions back to the cluster, and keeps statistics. The reference
// engine it is tested against lives with the tests
// (tests/oracle/consolidate/naive.hpp).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "consolidate/constraints.hpp"
#include "consolidate/cost_policy.hpp"
#include "consolidate/ipac.hpp"
#include "consolidate/planning_model.hpp"
#include "consolidate/pmapper.hpp"
#include "datacenter/cluster.hpp"

namespace vdc::core {

enum class ConsolidationAlgorithm { kIpac, kPMapper, kNone };

[[nodiscard]] std::string to_string(ConsolidationAlgorithm algorithm);

struct OptimizerConfig {
  ConsolidationAlgorithm algorithm = ConsolidationAlgorithm::kIpac;
  /// Target utilization the CPU constraint packs to (headroom for demand
  /// growth between invocations).
  double utilization_target = 0.9;
  consolidate::IpacOptions ipac;
  /// After a live migration of a VM fails (hypervisor abort, wake failure
  /// at the target), the optimizer stops proposing moves for that VM for
  /// this long — retrying a migration that just rolled back wastes
  /// bandwidth and usually fails again while the underlying fault window
  /// is open. Re-planning continues against the *realized* placement.
  /// Must be >= 0 (0 disables the backoff); NaN or negative values are
  /// rejected at PowerOptimizer construction.
  double migration_backoff_s = 600.0;
  /// Rack-aware, migration-energy-budgeted consolidation (off by default:
  /// flat clusters and disabled runs plan move-for-move identically to the
  /// pre-topology optimizer).
  consolidate::RackAwareOptions rack;
};

struct OptimizationOutcome {
  std::size_t migrations = 0;
  std::size_t unplaced = 0;
  std::size_t active_before = 0;
  std::size_t active_after = 0;
};

class PowerOptimizer {
 public:
  /// `policy` may be null (allow-all). Additional constraints can be added
  /// through `extra_constraints` (appended to the standard CPU+memory set).
  /// Throws std::invalid_argument on an invalid backoff, `ipac.min_slack`
  /// or `rack` sub-config.
  explicit PowerOptimizer(OptimizerConfig config,
                          std::shared_ptr<consolidate::MigrationCostPolicy> policy = nullptr);

  /// Installs an administrator-defined constraint alongside CPU+memory.
  void add_constraint(std::unique_ptr<consolidate::PlacementConstraint> constraint);

  /// Computes one consolidation plan against the live cluster WITHOUT
  /// applying it. Moves of VMs still inside their failure backoff window
  /// are filtered out (the rest of the plan stands — targets only get
  /// fewer VMs, so feasibility is preserved). kNone yields an empty plan.
  [[nodiscard]] consolidate::PlacementPlan plan(const datacenter::Cluster& cluster,
                                               double now_s);

  /// Runs one optimization pass against the live cluster (plan + apply).
  OptimizationOutcome optimize(datacenter::Cluster& cluster, double now_s);

  /// Records that a migration of `vm` failed at `now_s`: the optimizer will
  /// not propose moving that VM again until `migration_backoff_s` elapses.
  void note_migration_failure(datacenter::VmId vm, double now_s);

  [[nodiscard]] const OptimizerConfig& config() const noexcept { return config_; }
  /// The planning state kept across plans. Other planners on the same
  /// cluster (the overload guard, an initial placement) may borrow it:
  /// every user refreshes it from the cluster before planning.
  [[nodiscard]] consolidate::PlanningModel& model() noexcept { return *model_; }
  /// Cumulative counters across invocations.
  [[nodiscard]] std::size_t total_migrations() const noexcept { return total_migrations_; }
  [[nodiscard]] std::size_t invocations() const noexcept { return invocations_; }
  [[nodiscard]] std::size_t migration_failures() const noexcept { return migration_failures_; }
  /// Moves dropped from plans because their VM was backing off.
  [[nodiscard]] std::size_t moves_deferred() const noexcept { return moves_deferred_; }

 private:
  OptimizerConfig config_;
  consolidate::ConstraintSet constraints_;
  std::shared_ptr<consolidate::MigrationCostPolicy> policy_;
  std::unique_ptr<consolidate::PlanningModel> model_;
  std::size_t total_migrations_ = 0;
  std::size_t invocations_ = 0;
  std::size_t migration_failures_ = 0;
  std::size_t moves_deferred_ = 0;
  /// Per-VM "do not move before" deadline (absent = no backoff).
  std::map<datacenter::VmId, double> backoff_until_;
};

}  // namespace vdc::core
