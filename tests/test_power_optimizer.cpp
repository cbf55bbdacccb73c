#include "core/power_optimizer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "consolidate/naive.hpp"
#include "consolidate/snapshot.hpp"

namespace vdc::core {
namespace {

using datacenter::Cluster;
using datacenter::Server;
using datacenter::Vm;

Cluster scattered_cluster() {
  Cluster c;
  c.add_server(Server(datacenter::quad_core_3ghz(), datacenter::power_model_quad_3ghz(),
                      32768.0));
  c.add_server(Server(datacenter::dual_core_1_5ghz(),
                      datacenter::power_model_dual_1_5ghz(), 12288.0));
  c.add_server(Server(datacenter::dual_core_1_5ghz(),
                      datacenter::power_model_dual_1_5ghz(), 12288.0));
  Vm vm;
  vm.cpu_demand_ghz = 1.0;
  vm.memory_mb = 512.0;
  c.add_vm(vm, 1);
  c.add_vm(vm, 2);
  return c;
}

OptimizerConfig make_config(ConsolidationAlgorithm algorithm, double target = 0.9) {
  OptimizerConfig config;
  config.algorithm = algorithm;
  config.utilization_target = target;
  return config;
}

TEST(PowerOptimizer, ToStringNames) {
  EXPECT_EQ(to_string(ConsolidationAlgorithm::kIpac), "IPAC");
  EXPECT_EQ(to_string(ConsolidationAlgorithm::kPMapper), "pMapper");
  EXPECT_EQ(to_string(ConsolidationAlgorithm::kNone), "none");
}

TEST(PowerOptimizer, IpacConsolidatesAndSleeps) {
  Cluster c = scattered_cluster();
  PowerOptimizer optimizer(make_config(ConsolidationAlgorithm::kIpac, 1.0));
  const OptimizationOutcome outcome = optimizer.optimize(c, 0.0);
  EXPECT_EQ(outcome.active_before, 3u);
  EXPECT_EQ(outcome.active_after, 1u);
  EXPECT_EQ(outcome.migrations, 2u);
  EXPECT_EQ(outcome.unplaced, 0u);
  EXPECT_EQ(optimizer.total_migrations(), 2u);
  EXPECT_EQ(optimizer.invocations(), 1u);
  EXPECT_EQ(c.vms_on(0).size(), 2u);
}

TEST(PowerOptimizer, PMapperAlsoConsolidates) {
  Cluster c = scattered_cluster();
  PowerOptimizer optimizer(make_config(ConsolidationAlgorithm::kPMapper, 1.0));
  const OptimizationOutcome outcome = optimizer.optimize(c, 0.0);
  EXPECT_EQ(outcome.active_after, 1u);
  EXPECT_EQ(c.vms_on(0).size(), 2u);
}

TEST(PowerOptimizer, NoneOnlySleepsIdleServers) {
  Cluster c = scattered_cluster();
  PowerOptimizer optimizer(make_config(ConsolidationAlgorithm::kNone));
  const OptimizationOutcome outcome = optimizer.optimize(c, 0.0);
  EXPECT_EQ(outcome.migrations, 0u);
  EXPECT_EQ(outcome.active_after, 2u);  // the empty quad went to sleep
}

TEST(PowerOptimizer, CustomConstraintIsEnforced) {
  Cluster c = scattered_cluster();
  PowerOptimizer optimizer(make_config(ConsolidationAlgorithm::kIpac, 1.0));
  // Forbid any server from hosting more than one VM.
  optimizer.add_constraint(std::make_unique<consolidate::CustomConstraint>(
      "one-vm-per-server",
      [](const consolidate::ServerSnapshot&,
         std::span<const consolidate::VmSnapshot* const> vms) { return vms.size() <= 1; }));
  const OptimizationOutcome outcome = optimizer.optimize(c, 0.0);
  EXPECT_EQ(outcome.active_after, 2u);  // cannot merge the two VMs
}

TEST(PowerOptimizer, CostPolicyShared) {
  Cluster c = scattered_cluster();
  // A policy that vetoes every consolidation round.
  class VetoPolicy final : public consolidate::MigrationCostPolicy {
   public:
    [[nodiscard]] bool allow(const consolidate::DataCenterSnapshot&,
                             const consolidate::MigrationProposal&) const override {
      return false;
    }
    [[nodiscard]] std::string name() const override { return "veto"; }
  };
  PowerOptimizer optimizer(make_config(ConsolidationAlgorithm::kIpac, 1.0),
                           std::make_shared<VetoPolicy>());
  const OptimizationOutcome outcome = optimizer.optimize(c, 0.0);
  EXPECT_EQ(outcome.migrations, 0u);
}

TEST(PowerOptimizer, RepeatedInvocationsAreQuiescent) {
  Cluster c = scattered_cluster();
  PowerOptimizer optimizer(make_config(ConsolidationAlgorithm::kIpac, 1.0));
  (void)optimizer.optimize(c, 0.0);
  const OptimizationOutcome second = optimizer.optimize(c, 3600.0);
  EXPECT_EQ(second.migrations, 0u);
  EXPECT_EQ(second.active_before, second.active_after);
}

// ---- migration failure backoff (fault injection) ----------------------------

TEST(PowerOptimizer, FailedMigrationsBackOffBeforeRetrying) {
  Cluster c = scattered_cluster();
  OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac, 1.0);
  config.migration_backoff_s = 300.0;
  PowerOptimizer optimizer(config);

  // The plan wants to consolidate both scattered VMs.
  const consolidate::PlacementPlan first = optimizer.plan(c, 0.0);
  ASSERT_FALSE(first.moves.empty());

  // Both migrations fail: every move is deferred until the backoff expires.
  for (const consolidate::Move& move : first.moves) {
    optimizer.note_migration_failure(move.vm, 0.0);
  }
  EXPECT_EQ(optimizer.migration_failures(), first.moves.size());

  const consolidate::PlacementPlan during = optimizer.plan(c, 100.0);
  EXPECT_TRUE(during.moves.empty());
  EXPECT_EQ(optimizer.moves_deferred(), first.moves.size());

  // Past the deadline the same moves are proposed again.
  const consolidate::PlacementPlan after = optimizer.plan(c, 300.0);
  EXPECT_EQ(after.moves.size(), first.moves.size());
}

TEST(PowerOptimizer, BackoffNeverDefersHomelessVmPlacements) {
  Cluster c = scattered_cluster();
  Vm vm;
  vm.cpu_demand_ghz = 0.5;
  vm.memory_mb = 256.0;
  const datacenter::VmId homeless = c.add_vm(vm);  // no host: starts homeless

  OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac, 1.0);
  config.migration_backoff_s = 1000.0;
  PowerOptimizer optimizer(config);
  optimizer.note_migration_failure(homeless, 0.0);  // e.g. its restart target died

  // A homeless VM gets no CPU at all, so re-placing it always beats
  // waiting out the backoff.
  const consolidate::PlacementPlan plan = optimizer.plan(c, 10.0);
  bool placed = false;
  for (const consolidate::Move& move : plan.moves) {
    if (move.vm == homeless) {
      EXPECT_EQ(move.from, datacenter::kNoServer);
      placed = true;
    }
  }
  EXPECT_TRUE(placed);
}

TEST(PowerOptimizer, BackoffAndHomelessPlansIdenticalAcrossEngines) {
  // The backoff machinery (defer moves for recently failed VMs, but never
  // defer a homeless re-placement) filters and re-plans around whatever the
  // consolidation engine proposes. The unfiltered first plan must be
  // move-for-move the reference engine's, and the fault sequence after it
  // must defer, re-place and retry exactly as documented.
  Cluster c = scattered_cluster();
  Vm vm;
  vm.cpu_demand_ghz = 0.5;
  vm.memory_mb = 256.0;
  const datacenter::VmId homeless = c.add_vm(vm);  // no host: starts homeless

  OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac, 1.0);
  config.migration_backoff_s = 300.0;
  PowerOptimizer optimizer(config);

  const consolidate::PlacementPlan first = optimizer.plan(c, 0.0);
  const consolidate::PlacementPlan ref =
      consolidate::naive::ipac(consolidate::snapshot_of(c),
                               consolidate::ConstraintSet::standard(config.utilization_target),
                               consolidate::FreeMigrationPolicy(), config.ipac, config.rack)
          .plan;
  ASSERT_EQ(first.moves.size(), ref.moves.size());
  for (std::size_t m = 0; m < first.moves.size(); ++m) {
    EXPECT_EQ(first.moves[m].vm, ref.moves[m].vm) << "move " << m;
    EXPECT_EQ(first.moves[m].from, ref.moves[m].from) << "move " << m;
    EXPECT_EQ(first.moves[m].to, ref.moves[m].to) << "move " << m;
  }
  EXPECT_EQ(first.unplaced, ref.unplaced);

  // Every proposed migration fails, including the homeless placement's
  // restart target: the next plan may only re-place the homeless VM.
  for (const consolidate::Move& move : first.moves) {
    optimizer.note_migration_failure(move.vm, 0.0);
  }
  optimizer.note_migration_failure(homeless, 0.0);
  const consolidate::PlacementPlan deferred = optimizer.plan(c, 100.0);  // window open
  const consolidate::PlacementPlan retried = optimizer.plan(c, 400.0);   // expired

  // The sequence exercised what it claims: moves proposed, then a deferral
  // window with only the homeless re-placement allowed, then a retry.
  ASSERT_FALSE(first.moves.empty());
  for (const consolidate::Move& move : deferred.moves) {
    EXPECT_EQ(move.from, datacenter::kNoServer);
  }
  ASSERT_FALSE(retried.moves.empty());
}

TEST(PowerOptimizer, RejectsUtilizationTargetOutsideUnitInterval) {
  for (const double target : {0.0, -0.5, 1.01, std::numeric_limits<double>::quiet_NaN()}) {
    OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac);
    config.utilization_target = target;
    EXPECT_THROW(PowerOptimizer{config}, std::invalid_argument) << "target " << target;
  }
}

TEST(PowerOptimizer, RejectsNaNMigrationBackoff) {
  OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac);
  config.migration_backoff_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PowerOptimizer{config}, std::invalid_argument);
}

TEST(PowerOptimizer, RejectsNegativeMigrationBackoff) {
  OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac);
  config.migration_backoff_s = -1.0;
  EXPECT_THROW(PowerOptimizer{config}, std::invalid_argument);
}

// One rejection test per validated consolidation sub-config field; the
// message names the optimizer and the field.
template <typename Mutate>
void expect_optimizer_rejects(Mutate mutate, const std::string& field) {
  OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac);
  mutate(config);
  try {
    PowerOptimizer optimizer(config);
    ADD_FAILURE() << "config accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("PowerOptimizer: " + field, 0), 0u) << e.what();
  }
}

TEST(PowerOptimizer, RejectsBadMinSlackEpsilon) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, 0.0, -0.05, kInf}) {
    expect_optimizer_rejects([bad](OptimizerConfig& c) { c.ipac.min_slack.epsilon_ghz = bad; },
                             "min_slack.epsilon_ghz");
  }
}

TEST(PowerOptimizer, RejectsZeroMinSlackStepBudget) {
  expect_optimizer_rejects([](OptimizerConfig& c) { c.ipac.min_slack.step_budget = 0; },
                           "min_slack.step_budget");
}

TEST(PowerOptimizer, RejectsMinSlackEscalationNotAboveOne) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, 1.0, 0.5, kInf}) {
    expect_optimizer_rejects(
        [bad](OptimizerConfig& c) { c.ipac.min_slack.epsilon_escalation = bad; },
        "min_slack.epsilon_escalation");
  }
}

TEST(PowerOptimizer, RejectsBadRackBudget) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    expect_optimizer_rejects(
        [bad](OptimizerConfig& c) { c.rack.migration_energy_budget_j = bad; },
        "rack.migration_energy_budget_j");
  }
}

TEST(PowerOptimizer, RejectsBadRackBenefitHorizon) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    expect_optimizer_rejects([bad](OptimizerConfig& c) { c.rack.benefit_horizon_s = bad; },
                             "rack.benefit_horizon_s");
  }
}

// The migration cost model prices every rack-aware gate; a NaN or negative
// price would make every "cost > budget" and "benefit < cost" test false.
TEST(PowerOptimizer, RejectsBadRackMigrationPower) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    expect_optimizer_rejects([bad](OptimizerConfig& c) { c.rack.cost.migration_power_w = bad; },
                             "rack.cost.migration_power_w");
  }
}

TEST(PowerOptimizer, RejectsBadRackNetworkBandwidth) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0, -1000.0,
                           std::numeric_limits<double>::infinity()}) {
    expect_optimizer_rejects(
        [bad](OptimizerConfig& c) { c.rack.cost.transfer.network_bandwidth_mbps = bad; },
        "rack.cost.transfer.network_bandwidth_mbps");
  }
}

TEST(PowerOptimizer, RejectsBadRackOverheadFactor) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0, -1.3,
                           std::numeric_limits<double>::infinity()}) {
    expect_optimizer_rejects(
        [bad](OptimizerConfig& c) { c.rack.cost.transfer.overhead_factor = bad; },
        "rack.cost.transfer.overhead_factor");
  }
}

TEST(PowerOptimizer, RejectsBadRackCrossRackBandwidthFactor) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.5, 1.5}) {
    expect_optimizer_rejects(
        [bad](OptimizerConfig& c) { c.rack.cost.transfer.cross_rack_bandwidth_factor = bad; },
        "rack.cost.transfer.cross_rack_bandwidth_factor");
  }
}

TEST(PowerOptimizer, RejectsBadRackCrossPodBandwidthFactor) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.25,
                           std::numeric_limits<double>::infinity()}) {
    expect_optimizer_rejects(
        [bad](OptimizerConfig& c) { c.rack.cost.transfer.cross_pod_bandwidth_factor = bad; },
        "rack.cost.transfer.cross_pod_bandwidth_factor");
  }
}

TEST(PowerOptimizer, RejectsBadRackDowntime) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -0.5,
                           std::numeric_limits<double>::infinity()}) {
    expect_optimizer_rejects([bad](OptimizerConfig& c) { c.rack.cost.transfer.downtime_s = bad; },
                             "rack.cost.transfer.downtime_s");
  }
}

TEST(PowerOptimizer, AcceptsBoundarySubConfigs) {
  OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac);
  config.ipac.min_slack.step_budget = 1;
  config.ipac.min_slack.epsilon_escalation = 1.0001;
  config.rack.migration_energy_budget_j = 0.0;
  config.rack.benefit_horizon_s = 0.0;
  config.rack.cost.migration_power_w = 0.0;  // free moves stay legal
  config.rack.cost.transfer.downtime_s = 0.0;
  config.rack.cost.transfer.cross_rack_bandwidth_factor = 1.0;
  config.rack.cost.transfer.cross_pod_bandwidth_factor = 1e-3;
  EXPECT_NO_THROW(PowerOptimizer{config});
  config.rack.migration_energy_budget_j = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(PowerOptimizer{config});
}

TEST(PowerOptimizer, ZeroMigrationBackoffDisablesDeferral) {
  Cluster c = scattered_cluster();
  OptimizerConfig config = make_config(ConsolidationAlgorithm::kIpac, 1.0);
  config.migration_backoff_s = 0.0;
  PowerOptimizer optimizer(config);
  const consolidate::PlacementPlan first = optimizer.plan(c, 0.0);
  ASSERT_FALSE(first.moves.empty());
  for (const consolidate::Move& move : first.moves) {
    optimizer.note_migration_failure(move.vm, 0.0);
  }
  EXPECT_EQ(optimizer.plan(c, 0.0).moves.size(), first.moves.size());
  EXPECT_EQ(optimizer.moves_deferred(), 0u);
}

TEST(PowerOptimizer, PlanSkipsFailedServers) {
  Cluster c = scattered_cluster();
  // Kill the efficient quad the consolidation would otherwise target.
  (void)c.fail_server(0);
  PowerOptimizer optimizer(make_config(ConsolidationAlgorithm::kIpac, 1.0));
  const consolidate::PlacementPlan plan = optimizer.plan(c, 0.0);
  for (const consolidate::Move& move : plan.moves) {
    EXPECT_NE(move.to, 0u) << "planned a move onto a crashed server";
  }
}

}  // namespace
}  // namespace vdc::core
