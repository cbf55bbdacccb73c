#include "consolidate/pac.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "consolidate/ffd.hpp"
#include "util/rng.hpp"

namespace vdc::consolidate {
namespace {

struct ServerSpec {
  double capacity;
  double efficiency;
};

DataCenterSnapshot make_instance(std::vector<ServerSpec> servers,
                                 std::vector<double> demands) {
  DataCenterSnapshot snap;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    ServerSnapshot s;
    s.id = static_cast<ServerId>(i);
    s.max_capacity_ghz = servers[i].capacity;
    s.memory_mb = 1e6;
    s.max_power_w = 200.0;
    s.idle_power_w = 100.0;
    s.sleep_power_w = 5.0;
    s.power_efficiency_ghz_per_w = servers[i].efficiency;
    s.active = true;
    snap.servers.push_back(s);
  }
  for (std::size_t i = 0; i < demands.size(); ++i) {
    snap.vms.push_back(VmSnapshot{static_cast<VmId>(i), demands[i], 1.0});
  }
  return snap;
}

std::vector<VmId> all_vms(const DataCenterSnapshot& snap) {
  std::vector<VmId> ids(snap.vms.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(Pac, PrefersMostEfficientServer) {
  const DataCenterSnapshot snap = make_instance(
      {{4.0, 0.01}, {4.0, 0.05}}, {1.0, 1.0});
  WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const PacResult r = power_aware_consolidation(wp, all_vms(snap), constraints);
  EXPECT_TRUE(r.unplaced.empty());
  EXPECT_EQ(wp.hosted(1).size(), 2u);  // the efficient one takes everything
  EXPECT_TRUE(wp.hosted(0).empty());
  EXPECT_EQ(r.servers_used, 1u);
}

TEST(Pac, SpillsToNextServerWhenFull) {
  const DataCenterSnapshot snap = make_instance(
      {{2.0, 0.05}, {2.0, 0.01}}, {1.5, 1.5});
  WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const PacResult r = power_aware_consolidation(wp, all_vms(snap), constraints);
  EXPECT_TRUE(r.unplaced.empty());
  EXPECT_EQ(wp.hosted(0).size(), 1u);
  EXPECT_EQ(wp.hosted(1).size(), 1u);
  EXPECT_EQ(r.servers_used, 2u);
}

TEST(Pac, PacksBetterThanFfdOnSubsetSumInstance) {
  // One efficient 10 GHz server; FFD (5,4,...) strands capacity, Minimum
  // Slack fills it exactly: {5,3,2}.
  const DataCenterSnapshot snap = make_instance(
      {{10.0, 0.05}, {10.0, 0.01}}, {5.0, 4.0, 3.0, 2.0});
  const ConstraintSet constraints = ConstraintSet::standard(1.0);

  WorkingPlacement pac_wp(snap);
  (void)power_aware_consolidation(pac_wp, all_vms(snap), constraints);
  EXPECT_DOUBLE_EQ(pac_wp.cpu_demand_ghz(0), 10.0);

  WorkingPlacement ffd_wp(snap);
  const std::vector<ServerId> order = servers_by_power_efficiency(snap);
  (void)first_fit_decreasing(ffd_wp, order, all_vms(snap), constraints);
  EXPECT_LT(ffd_wp.cpu_demand_ghz(0), 10.0);  // 5 + 4 = 9
}

TEST(Pac, ReportsUnplacedWhenCapacityExhausted) {
  const DataCenterSnapshot snap = make_instance({{1.0, 0.05}}, {0.8, 0.8});
  WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const PacResult r = power_aware_consolidation(wp, all_vms(snap), constraints);
  EXPECT_EQ(r.placed.size(), 1u);
  EXPECT_EQ(r.unplaced.size(), 1u);
}

TEST(Pac, EmptyVmListIsNoop) {
  const DataCenterSnapshot snap = make_instance({{1.0, 0.05}}, {});
  WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const PacResult r = power_aware_consolidation(wp, {}, constraints);
  EXPECT_TRUE(r.placed.empty());
  EXPECT_EQ(r.servers_used, 0u);
}

TEST(Pac, ExplicitServerOrderRespected) {
  const DataCenterSnapshot snap = make_instance(
      {{4.0, 0.05}, {4.0, 0.01}}, {1.0});
  WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const ServerId order[] = {1};  // exclude the efficient server
  const PacResult r =
      power_aware_consolidation(wp, all_vms(snap), constraints, MinSlackOptions{}, order);
  EXPECT_TRUE(r.unplaced.empty());
  EXPECT_EQ(wp.hosted(1).size(), 1u);
  EXPECT_TRUE(wp.hosted(0).empty());
}

TEST(Pac, AccountsForExistingResidents) {
  DataCenterSnapshot snap = make_instance({{4.0, 0.05}}, {3.0, 2.0});
  snap.servers[0].hosted = {0};  // VM 0 (3.0 GHz) already there
  WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> rest = {1};
  const PacResult r = power_aware_consolidation(wp, rest, constraints);
  // Only 1 GHz of room left: the 2 GHz VM cannot land.
  EXPECT_EQ(r.unplaced, (std::vector<VmId>{1}));
}

// PAC skips the Minimum Slack call on a server whose free memory or CPU
// limit cannot take even the smallest candidate, and adds the steps that
// call would have counted. A walk that makes every call (skipping only the
// servers whose raw slack cannot take the smallest candidate, as PAC does)
// must place the same VMs on the same servers and count the same steps,
// with a budget that the skipped calls could not reach and with one they
// could.
TEST(Pac, GatedVisitsCountTheStepsOfTheCallsTheySkip) {
  for (const std::size_t budget : {std::size_t{20000}, std::size_t{6}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      util::Rng rng(seed);
      std::vector<ServerSpec> servers;
      for (int i = 0; i < 10; ++i) servers.push_back({8.0, rng.uniform(0.01, 0.06)});
      std::vector<double> demands;
      for (int i = 0; i < 10; ++i) demands.push_back(rng.uniform(5.0, 6.3));  // residents
      for (int i = 0; i < 12; ++i) demands.push_back(rng.uniform(0.2, 1.2));  // candidates
      DataCenterSnapshot snap = make_instance(servers, demands);
      for (ServerId s = 0; s < 10; ++s) {
        snap.servers[s].hosted = {s};
        snap.servers[s].memory_mb = rng.uniform(1.0, 8.0);  // some cannot take one more
      }
      std::vector<VmId> candidates;
      for (VmId vm = 10; vm < 22; ++vm) candidates.push_back(vm);
      const ConstraintSet constraints = ConstraintSet::standard(0.8);
      MinSlackOptions options;
      options.step_budget = budget;
      const std::vector<ServerId> order = servers_by_power_efficiency(snap);

      WorkingPlacement gated(snap);
      const PacResult r = power_aware_consolidation(gated, candidates, constraints, options, order);

      WorkingPlacement walked(snap);
      std::vector<VmId> remaining = candidates;
      std::size_t steps = 0;
      for (const ServerId server : order) {
        if (remaining.empty()) break;
        double smallest = 1e300;
        for (const VmId vm : remaining) smallest = std::min(smallest, snap.vm(vm).cpu_demand_ghz);
        if (walked.cpu_slack(server) + 1e-9 < smallest) continue;
        const MinSlackResult fit = minimum_slack(walked, server, remaining, constraints, options);
        steps += fit.steps;
        for (const VmId vm : fit.selected) {
          walked.place(vm, server);
          std::erase(remaining, vm);
        }
      }
      SCOPED_TRACE("budget " + std::to_string(budget) + ", seed " + std::to_string(seed));
      EXPECT_EQ(r.min_slack_steps, steps);
      EXPECT_EQ(r.unplaced.size(), remaining.size());
      for (VmId vm = 0; vm < snap.vms.size(); ++vm) {
        EXPECT_EQ(gated.host_of(vm), walked.host_of(vm)) << "VM " << vm;
      }
    }
  }
}

class PacRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(PacRandomSweep, NeverViolatesConstraintsAndPlacesAllWhenLoose) {
  util::Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  std::vector<ServerSpec> servers;
  for (int i = 0; i < 12; ++i) {
    servers.push_back({rng.uniform(2.0, 8.0), rng.uniform(0.01, 0.06)});
  }
  std::vector<double> demands;
  for (int i = 0; i < 25; ++i) demands.push_back(rng.uniform(0.1, 1.0));
  const DataCenterSnapshot snap = make_instance(servers, demands);
  WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const PacResult r = power_aware_consolidation(wp, all_vms(snap), constraints);
  EXPECT_TRUE(r.unplaced.empty());  // 25 GHz total capacity >> 14 max demand
  for (ServerId s = 0; s < snap.servers.size(); ++s) {
    EXPECT_LE(wp.cpu_demand_ghz(s), snap.server(s).max_capacity_ghz + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacRandomSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace vdc::consolidate
