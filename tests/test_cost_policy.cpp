#include "consolidate/cost_policy.hpp"

#include <gtest/gtest.h>

namespace vdc::consolidate {
namespace {

TEST(FreeMigration, AlwaysTrue) {
  const FreeMigrationPolicy policy;
  DataCenterSnapshot snap;
  snap.vms.push_back(VmSnapshot{0, 1.0, 1024.0});
  const MigrationProposal proposal{.vm = 0, .from = 0, .to = 1, .estimated_benefit_w = 0.0};
  EXPECT_TRUE(policy.allow(snap, proposal));
  EXPECT_EQ(policy.name(), "free-migration");
}

}  // namespace
}  // namespace vdc::consolidate
