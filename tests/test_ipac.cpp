#include "consolidate/ipac.hpp"

#include <gtest/gtest.h>

#include "datacenter/cluster.hpp"

namespace vdc::consolidate {
namespace {

using datacenter::Cluster;
using datacenter::Server;
using datacenter::Vm;

Cluster heterogeneous_cluster() {
  Cluster c;
  // Server 0: efficient quad; servers 1-2: inefficient duals.
  c.add_server(Server(datacenter::quad_core_3ghz(), datacenter::power_model_quad_3ghz(),
                      32768.0));
  c.add_server(Server(datacenter::dual_core_1_5ghz(),
                      datacenter::power_model_dual_1_5ghz(), 12288.0));
  c.add_server(Server(datacenter::dual_core_1_5ghz(),
                      datacenter::power_model_dual_1_5ghz(), 12288.0));
  return c;
}

Vm make_vm(double demand, double memory = 512.0) {
  Vm vm;
  vm.cpu_demand_ghz = demand;
  vm.memory_mb = memory;
  return vm;
}

TEST(Ipac, ConsolidatesScatteredVmsOntoEfficientServer) {
  Cluster c = heterogeneous_cluster();
  (void)c.add_vm(make_vm(1.0), 1);
  (void)c.add_vm(make_vm(1.0), 2);
  (void)c.add_vm(make_vm(0.5), 1);
  const DataCenterSnapshot snap = snapshot_of(c);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const IpacReport report = ipac(snap, constraints);
  EXPECT_TRUE(report.plan.complete());
  EXPECT_EQ(report.occupied_before, 2u);
  EXPECT_EQ(report.occupied_after, 1u);
  EXPECT_GT(report.consolidation_moves, 0u);
  apply_plan(c, report.plan, 0.0);
  EXPECT_EQ(c.vms_on(0).size(), 3u);  // everything on the quad
  EXPECT_EQ(c.active_server_count(), 1u);
}

TEST(Ipac, ResolvesOverloadByEvictingSmallestVms) {
  Cluster c = heterogeneous_cluster();
  // Dual-1.5GHz server (3 GHz capacity) carrying 4.3 GHz of demand.
  (void)c.add_vm(make_vm(2.5), 1);
  (void)c.add_vm(make_vm(1.0), 1);
  (void)c.add_vm(make_vm(0.8), 1);
  ASSERT_TRUE(c.overloaded(1));
  const DataCenterSnapshot snap = snapshot_of(c);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const IpacReport report = ipac(snap, constraints);
  EXPECT_GT(report.overload_moves, 0u);
  apply_plan(c, report.plan, 0.0);
  EXPECT_TRUE(c.overloaded_servers().empty());
}

TEST(Ipac, NoChangeOnAlreadyOptimalLayout) {
  Cluster c = heterogeneous_cluster();
  (void)c.add_vm(make_vm(1.0), 0);
  (void)c.add_vm(make_vm(1.0), 0);
  c.sleep_idle_servers();
  const DataCenterSnapshot snap = snapshot_of(c);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const IpacReport report = ipac(snap, constraints);
  EXPECT_TRUE(report.plan.moves.empty());
  EXPECT_EQ(report.occupied_before, report.occupied_after);
}

TEST(Ipac, CostPolicyVetoRollsBackRound) {
  Cluster c = heterogeneous_cluster();
  (void)c.add_vm(make_vm(1.0), 1);
  (void)c.add_vm(make_vm(1.0), 2);
  const DataCenterSnapshot snap = snapshot_of(c);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);

  // A policy that rejects every consolidation migration.
  class VetoPolicy final : public MigrationCostPolicy {
   public:
    [[nodiscard]] bool allow(const DataCenterSnapshot&, const MigrationProposal&) const override {
      return false;
    }
    [[nodiscard]] std::string name() const override { return "veto"; }
  };
  const IpacReport report = ipac(snap, constraints, VetoPolicy());
  EXPECT_TRUE(report.plan.moves.empty());
  EXPECT_GT(report.rounds_rejected_by_policy, 0u);
  EXPECT_EQ(report.occupied_after, report.occupied_before);
}

TEST(Ipac, StopsWhenEvacuationDoesNotShrink) {
  Cluster c = heterogeneous_cluster();
  // Fill every server so nothing can be emptied.
  (void)c.add_vm(make_vm(11.0, 30000.0), 0);
  (void)c.add_vm(make_vm(2.8, 12000.0), 1);
  (void)c.add_vm(make_vm(2.8, 12000.0), 2);
  const DataCenterSnapshot snap = snapshot_of(c);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const IpacReport report = ipac(snap, constraints);
  EXPECT_TRUE(report.plan.moves.empty());
  EXPECT_EQ(report.occupied_after, 3u);
  EXPECT_LE(report.rounds_accepted, 0u);
}

TEST(Ipac, IncrementalSecondInvocationIsQuiescent) {
  Cluster c = heterogeneous_cluster();
  (void)c.add_vm(make_vm(1.0), 1);
  (void)c.add_vm(make_vm(1.0), 2);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const IpacReport first = ipac(snapshot_of(c), constraints);
  apply_plan(c, first.plan, 0.0);
  const IpacReport second = ipac(snapshot_of(c), constraints);
  EXPECT_TRUE(second.plan.moves.empty());
}

TEST(Ipac, WakesSleepingEfficientServerWhenNeeded) {
  Cluster c = heterogeneous_cluster();
  // Overload an inefficient server while the quad sleeps; relief must be
  // able to wake the quad.
  (void)c.add_vm(make_vm(2.0), 1);
  (void)c.add_vm(make_vm(2.0), 1);
  c.sleep_idle_servers();
  ASSERT_TRUE(c.wake(2));
  const DataCenterSnapshot snap = snapshot_of(c);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const IpacReport report = ipac(snap, constraints);
  apply_plan(c, report.plan, 0.0);
  EXPECT_TRUE(c.overloaded_servers().empty());
}

// ---- rack-aware gating edges ------------------------------------------------

/// 1 pod, 2 racks x 2 servers with a 30 W rack switch each. The efficient
/// quad (server 0) anchors the consolidation target; single-VM inefficient
/// donors make every round a single move, so the budget arithmetic below is
/// exact.
Cluster racked_mixed() {
  Cluster c;
  c.add_server(Server(datacenter::quad_core_3ghz(), datacenter::power_model_quad_3ghz(),
                      32768.0));
  for (int i = 0; i < 3; ++i) {
    c.add_server(Server(datacenter::dual_core_1_5ghz(),
                        datacenter::power_model_dual_1_5ghz(), 12288.0));
  }
  c.set_topology(datacenter::Topology::uniform(1, 2, 2, 30.0));
  return c;
}

TEST(Ipac, BudgetExactlyExhaustedMidPlanStopsFurtherRounds) {
  Cluster c = racked_mixed();
  (void)c.add_vm(make_vm(3.0, 1024.0), 0);
  (void)c.add_vm(make_vm(0.5, 1024.0), 1);
  (void)c.add_vm(make_vm(0.5, 1024.0), 2);
  (void)c.add_vm(make_vm(0.5, 1024.0), 3);
  const DataCenterSnapshot snap = snapshot_of(c);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);

  RackAwareOptions rack;
  rack.enabled = true;
  rack.benefit_horizon_s = 3600.0;  // long horizon: every round is net-positive
  const IpacReport unbounded = ipac(snap, constraints, FreeMigrationPolicy(), {}, rack);
  ASSERT_GE(unbounded.plan.moves.size(), 2u);
  EXPECT_EQ(unbounded.rounds_rejected_by_budget, 0u);

  // Price the budget at EXACTLY the first move's migration energy: round 1
  // fits to the joule, every later round overruns and is rolled back.
  const Move& first = unbounded.plan.moves.front();
  rack.migration_energy_budget_j =
      rack.cost.energy_j(snap.vm(first.vm).memory_mb, snap.distance(first.from, first.to));
  const IpacReport capped = ipac(snap, constraints, FreeMigrationPolicy(), {}, rack);
  ASSERT_EQ(capped.plan.moves.size(), 1u);
  EXPECT_EQ(capped.plan.moves.front().vm, first.vm);
  EXPECT_EQ(capped.plan.moves.front().to, first.to);
  EXPECT_DOUBLE_EQ(capped.migration_energy_j, rack.migration_energy_budget_j);
  EXPECT_GT(capped.rounds_rejected_by_budget, 0u);
  EXPECT_LT(capped.plan.moves.size(), unbounded.plan.moves.size());
}

TEST(Ipac, CrossPodCostExceedingRackSwitchOffBenefitIsRejected) {
  // 2 pods x 1 rack x 1 server: the only consolidation move is cross-pod.
  // A huge VM over the starved core tier burns far more migration energy
  // than the emptied server + rack switch save over a short horizon.
  Cluster c;
  c.add_server(Server(datacenter::quad_core_3ghz(), datacenter::power_model_quad_3ghz(),
                      32768.0));
  c.add_server(Server(datacenter::quad_core_3ghz(), datacenter::power_model_quad_3ghz(),
                      32768.0));
  c.set_topology(datacenter::Topology::uniform(2, 1, 1, 5.0));
  (void)c.add_vm(make_vm(0.5, 16384.0), 0);
  (void)c.add_vm(make_vm(2.0, 1024.0), 1);
  const DataCenterSnapshot snap = snapshot_of(c);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);

  RackAwareOptions rack;
  rack.enabled = true;
  rack.cost.transfer.cross_pod_bandwidth_factor = 0.1;  // starved core tier
  rack.benefit_horizon_s = 10.0;
  const IpacReport gated = ipac(snap, constraints, FreeMigrationPolicy(), {}, rack);
  EXPECT_TRUE(gated.plan.moves.empty());
  EXPECT_GT(gated.rounds_rejected_by_cost, 0u);
  EXPECT_EQ(gated.occupied_after, gated.occupied_before);
  EXPECT_EQ(gated.racks_emptied, 0u);

  // Sanity check the economics, not just the verdict: the flat engine (and
  // a long enough horizon) both take the move, so the veto above really is
  // the distance-dependent cost speaking.
  const IpacReport flat = ipac(snap, constraints);
  EXPECT_FALSE(flat.plan.moves.empty());
  rack.benefit_horizon_s = 1e6;
  const IpacReport patient = ipac(snap, constraints, FreeMigrationPolicy(), {}, rack);
  EXPECT_FALSE(patient.plan.moves.empty());
  EXPECT_EQ(patient.racks_emptied, 1u);
  EXPECT_GT(patient.migration_energy_j, 0.0);
}

}  // namespace
}  // namespace vdc::consolidate
