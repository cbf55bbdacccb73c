#include "consolidate/cost_policy.hpp"

#include <gtest/gtest.h>

namespace vdc::consolidate {
namespace {

DataCenterSnapshot one_vm_snapshot(double memory_mb) {
  DataCenterSnapshot snap;
  snap.vms.push_back(VmSnapshot{0, 1.0, memory_mb});
  return snap;
}

MigrationProposal proposal(double benefit, double bytes, double approved) {
  MigrationProposal p;
  p.vm = 0;
  p.estimated_benefit_w = benefit;
  p.bytes = bytes;
  p.bytes_already_approved = approved;
  return p;
}

TEST(FreeMigration, AlwaysTrue) {
  const FreeMigrationPolicy policy;
  EXPECT_TRUE(policy.allow(one_vm_snapshot(1024.0), proposal(0.0, 1e12, 1e12)));
  EXPECT_EQ(policy.name(), "free-migration");
}

TEST(MigrationEnergyBudget, EnforcesCumulativeEnergyCap) {
  const MigrationEnergyBudgetPolicy policy(500.0);
  const DataCenterSnapshot snap = one_vm_snapshot(1024.0);
  MigrationProposal p = proposal(1.0, 100.0, 0.0);
  p.from = 0;
  p.to = 1;
  p.cost_j = 300.0;
  EXPECT_TRUE(policy.allow(snap, p));
  p.cost_already_approved_j = 300.0;
  p.cost_j = 200.0;
  EXPECT_TRUE(policy.allow(snap, p));  // lands exactly on the budget
  p.cost_j = 201.0;
  EXPECT_FALSE(policy.allow(snap, p));
  EXPECT_THROW(MigrationEnergyBudgetPolicy(0.0), std::invalid_argument);
}

TEST(MigrationEnergyBudget, RejectsSameHostNoOp) {
  const MigrationEnergyBudgetPolicy policy(1e9);
  const DataCenterSnapshot snap = one_vm_snapshot(1024.0);
  MigrationProposal p = proposal(100.0, 100.0, 0.0);
  p.from = 3;
  p.to = 3;
  p.cost_j = 0.0;
  EXPECT_FALSE(policy.allow(snap, p));
  p.to = 4;
  p.distance = NetworkDistance::kSameHost;
  EXPECT_FALSE(policy.allow(snap, p));
}

TEST(MigrationEnergyBudget, ThrowsOnMissingCost) {
  const MigrationEnergyBudgetPolicy policy(1e9);
  const DataCenterSnapshot snap = one_vm_snapshot(1024.0);
  MigrationProposal p = proposal(1.0, 100.0, 0.0);
  p.from = 0;
  p.to = 1;
  p.cost_j = -1.0;
  EXPECT_THROW(static_cast<void>(policy.allow(snap, p)), std::invalid_argument);
}

TEST(BandwidthBudget, EnforcesCumulativeCap) {
  const BandwidthBudgetPolicy policy(1000.0);
  const DataCenterSnapshot snap = one_vm_snapshot(1024.0);
  EXPECT_TRUE(policy.allow(snap, proposal(0.0, 600.0, 0.0)));
  EXPECT_TRUE(policy.allow(snap, proposal(0.0, 400.0, 600.0)));
  EXPECT_FALSE(policy.allow(snap, proposal(0.0, 401.0, 600.0)));
  EXPECT_THROW(BandwidthBudgetPolicy(0.0), std::invalid_argument);
}

TEST(MinBenefit, FlatThreshold) {
  const MinBenefitPolicy policy(10.0);
  const DataCenterSnapshot snap = one_vm_snapshot(1024.0);
  EXPECT_TRUE(policy.allow(snap, proposal(10.0, 0.0, 0.0)));
  EXPECT_FALSE(policy.allow(snap, proposal(9.9, 0.0, 0.0)));
}

TEST(MinBenefit, MemoryScaledThreshold) {
  // Threshold = 5 W + 2 W/GB; a 4 GB VM needs >= 13 W of benefit.
  const MinBenefitPolicy policy(5.0, 2.0);
  const DataCenterSnapshot snap = one_vm_snapshot(4096.0);
  EXPECT_TRUE(policy.allow(snap, proposal(13.0, 0.0, 0.0)));
  EXPECT_FALSE(policy.allow(snap, proposal(12.9, 0.0, 0.0)));
  EXPECT_THROW(MinBenefitPolicy(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace vdc::consolidate
