#include "consolidate/minimum_slack.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "consolidate/naive.hpp"
#include "datacenter/cluster.hpp"
#include "util/rng.hpp"

namespace vdc::consolidate {
namespace {

/// Builds a snapshot with one server of the given capacity and unplaced VMs
/// with the given demands (memory is ample unless specified).
DataCenterSnapshot make_instance(double capacity_ghz, std::vector<double> demands,
                                 double server_memory = 1e6,
                                 std::vector<double> memories = {}) {
  DataCenterSnapshot snap;
  ServerSnapshot server;
  server.id = 0;
  server.max_capacity_ghz = capacity_ghz;
  server.memory_mb = server_memory;
  server.max_power_w = 200.0;
  server.power_efficiency_ghz_per_w = capacity_ghz / 200.0;
  server.active = true;
  snap.servers.push_back(server);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    VmSnapshot vm;
    vm.id = static_cast<VmId>(i);
    vm.cpu_demand_ghz = demands[i];
    vm.memory_mb = memories.empty() ? 1.0 : memories[i];
    snap.vms.push_back(vm);
  }
  return snap;
}

std::vector<VmId> all_ids(const DataCenterSnapshot& snap) {
  std::vector<VmId> ids(snap.vms.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

double demand_of(const DataCenterSnapshot& snap, const std::vector<VmId>& vms) {
  double total = 0.0;
  for (const VmId vm : vms) total += snap.vm(vm).cpu_demand_ghz;
  return total;
}

TEST(MinimumSlack, FindsPerfectFill) {
  // Subset {3, 2.5, 0.5} fills the 6 GHz server exactly.
  const DataCenterSnapshot snap = make_instance(6.0, {3.0, 2.5, 2.0, 0.5});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0, 1, 2, 3};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_NEAR(r.slack_ghz, 0.0, 1e-9);
  EXPECT_NEAR(demand_of(snap, r.selected), 6.0, 1e-9);
}

TEST(MinimumSlack, BeatsGreedyOnClassicInstance) {
  // Greedy (largest-first) fills 5+3 = 8 of 10; optimal is 5+3+2 = 10.
  const DataCenterSnapshot snap = make_instance(10.0, {5.0, 4.0, 3.0, 2.0});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0, 1, 2, 3};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_NEAR(demand_of(snap, r.selected), 10.0, 1e-9);
}

TEST(MinimumSlack, RespectsExistingResidents) {
  DataCenterSnapshot snap = make_instance(6.0, {3.0, 2.0, 1.0});
  snap.servers[0].hosted = {0};  // VM 0 already on the server
  snap.vms[0].cpu_demand_ghz = 3.0;
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {1, 2};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  // Room is 3: takes both VM 1 (2.0) and VM 2 (1.0).
  EXPECT_NEAR(r.slack_ghz, 0.0, 1e-9);
  EXPECT_EQ(r.selected.size(), 2u);
}

TEST(MinimumSlack, HonorsMemoryConstraint) {
  // CPU-wise both fit; memory admits only one.
  const DataCenterSnapshot snap =
      make_instance(10.0, {2.0, 2.0}, /*server_memory=*/1024.0,
                    /*memories=*/{800.0, 800.0});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0, 1};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_EQ(r.selected.size(), 1u);
}

TEST(MinimumSlack, HonorsCustomConstraint) {
  const DataCenterSnapshot snap = make_instance(10.0, {1.0, 1.0, 1.0, 1.0});
  const WorkingPlacement wp(snap);
  ConstraintSet constraints;
  constraints.add(std::make_unique<CustomConstraint>(
      "max-two", [](const ServerSnapshot&, std::span<const VmSnapshot* const> vms) {
        return vms.size() <= 2;
      }));
  const std::vector<VmId> candidates = {0, 1, 2, 3};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_EQ(r.selected.size(), 2u);
}

TEST(MinimumSlack, EpsilonAcceptsGoodEnoughFit) {
  const DataCenterSnapshot snap = make_instance(6.0, {5.95, 3.0, 2.9});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  MinSlackOptions options;
  options.epsilon_ghz = 0.1;
  const std::vector<VmId> candidates = {0, 1, 2};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints, options);
  // 5.95 leaves slack 0.05 < 0.1: accepted immediately, search stops.
  EXPECT_NEAR(r.slack_ghz, 0.05, 1e-9);
  EXPECT_EQ(r.selected, (std::vector<VmId>{0}));
}

TEST(MinimumSlack, EmptyCandidatesKeepBaseline) {
  const DataCenterSnapshot snap = make_instance(6.0, {});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const MinSlackResult r = minimum_slack(wp, 0, {}, constraints);
  EXPECT_TRUE(r.selected.empty());
  EXPECT_DOUBLE_EQ(r.slack_ghz, 6.0);
}

TEST(MinimumSlack, OversizedCandidatesIgnored) {
  const DataCenterSnapshot snap = make_instance(2.0, {5.0, 1.5});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0, 1};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_EQ(r.selected, (std::vector<VmId>{1}));
}

TEST(MinimumSlack, RejectsPlacedCandidates) {
  DataCenterSnapshot snap = make_instance(6.0, {1.0});
  snap.servers[0].hosted = {0};
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0};
  EXPECT_THROW(minimum_slack(wp, 0, candidates, constraints), std::invalid_argument);
}

TEST(MinimumSlack, StepBudgetEscalationTerminates) {
  // 24 identical-ish items force a big search tree; a tiny budget must
  // still terminate and produce a sane (feasible) answer.
  std::vector<double> demands;
  for (int i = 0; i < 24; ++i) demands.push_back(0.37 + 0.001 * i);
  const DataCenterSnapshot snap = make_instance(4.0, demands);
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-6;  // practically unreachable
  options.step_budget = 50;
  options.max_escalations = 3;
  const MinSlackResult r = minimum_slack(wp, 0, all_ids(snap), constraints, options);
  EXPECT_LE(demand_of(snap, r.selected), 4.0 + 1e-9);
  EXPECT_GT(r.escalations, 0u);
}

TEST(MinimumSlack, BudgetExhaustedExactlyAtEscalationBoundary) {
  // Ten candidates, none of which fit the server: the search touches each
  // once (one counted step apiece) and selects nothing, so the total step
  // count is exactly n. With step_budget == n the final touch lands exactly
  // on the escalation threshold — one escalation must fire, and the fast
  // engine's bulk-counted skip must land on the same boundary the naive
  // per-step walk does.
  const DataCenterSnapshot snap = make_instance(4.0, std::vector<double>(10, 5.0));
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-6;
  options.step_budget = 10;
  options.max_escalations = 3;
  const MinSlackResult fast = minimum_slack(wp, 0, all_ids(snap), constraints, options);
  const MinSlackResult ref = naive::minimum_slack(wp, 0, all_ids(snap), constraints, options);
  EXPECT_TRUE(fast.selected.empty());
  EXPECT_EQ(fast.steps, 10u);
  EXPECT_EQ(fast.escalations, 1u);
  EXPECT_EQ(ref.steps, fast.steps);
  EXPECT_EQ(ref.escalations, fast.escalations);

  // One more unit of budget and the boundary is never reached: same empty
  // selection, zero escalations, in both engines.
  options.step_budget = 11;
  const MinSlackResult under = minimum_slack(wp, 0, all_ids(snap), constraints, options);
  const MinSlackResult under_ref =
      naive::minimum_slack(wp, 0, all_ids(snap), constraints, options);
  EXPECT_EQ(under.steps, 10u);
  EXPECT_EQ(under.escalations, 0u);
  EXPECT_EQ(under_ref.steps, under.steps);
  EXPECT_EQ(under_ref.escalations, under.escalations);
}

TEST(MinimumSlack, MaxEscalationsExhaustionMatchesNaive) {
  // A 2^24-node tree against a 40-step budget and two permitted
  // escalations: the search terminates by exhausting max_escalations, and
  // the fast engine must stop at the same logical step with the same
  // incumbent as the reference (branch-and-bound stays disarmed when the
  // budget can bind, so even the step accounting is required to be exact).
  std::vector<double> demands;
  for (int i = 0; i < 24; ++i) demands.push_back(0.37 + 0.001 * i);
  const DataCenterSnapshot snap = make_instance(4.0, demands);
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-9;  // unreachable: termination is by escalation
  options.step_budget = 40;
  options.max_escalations = 2;
  const MinSlackResult fast = minimum_slack(wp, 0, all_ids(snap), constraints, options);
  const MinSlackResult ref = naive::minimum_slack(wp, 0, all_ids(snap), constraints, options);
  EXPECT_EQ(fast.escalations, 2u);
  EXPECT_EQ(fast.selected, ref.selected);
  EXPECT_EQ(fast.steps, ref.steps);
  EXPECT_EQ(fast.escalations, ref.escalations);
  EXPECT_DOUBLE_EQ(fast.slack_ghz, ref.slack_ghz);
  // The budget bound: steps never exceed (escalations + 1) * step_budget.
  EXPECT_LE(fast.steps, (options.max_escalations + 1) * options.step_budget);
}

TEST(MinimumSlack, SortedOrderReuseMatchesNaiveAcrossCallSequences) {
  // The engine reuses the previous call's sorted order when the new
  // candidates are a subsequence of the old ones (PAC drops its selections
  // in place), and must re-sort when they are not, or when the snapshot's
  // demands changed underneath the cache. Every call of this sequence must
  // match the reference exactly, at the paper's 0.8 target under a binding
  // budget, where steps and escalations are compared too.
  util::Rng rng(17);
  std::vector<double> demands;
  for (int i = 0; i < 30; ++i) demands.push_back(rng.uniform(0.2, 1.4));
  DataCenterSnapshot snap = make_instance(8.0, demands);
  const ConstraintSet constraints = ConstraintSet::standard(0.8);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-6;
  options.step_budget = 60;
  options.max_escalations = 3;
  const auto expect_matches_naive = [&](const std::vector<VmId>& candidates, const char* what) {
    const WorkingPlacement wp(snap);
    const MinSlackResult fast = minimum_slack(wp, 0, candidates, constraints, options);
    const MinSlackResult ref = naive::minimum_slack(wp, 0, candidates, constraints, options);
    EXPECT_EQ(fast.selected, ref.selected) << what;
    EXPECT_EQ(fast.steps, ref.steps) << what;
    EXPECT_EQ(fast.escalations, ref.escalations) << what;
    EXPECT_DOUBLE_EQ(fast.slack_ghz, ref.slack_ghz) << what;
  };
  std::vector<VmId> list = all_ids(snap);
  std::swap(list[3], list[17]);  // a list order that is not the sorted order
  expect_matches_naive(list, "full list");
  expect_matches_naive(list, "same list again");
  list.erase(list.begin() + 20);
  list.erase(list.begin());
  list.pop_back();
  expect_matches_naive(list, "subsequence");
  std::swap(list[0], list[1]);
  expect_matches_naive(list, "reordered, not a subsequence");
  list.push_back(29);
  expect_matches_naive(list, "grown list");
  snap.vms[list[5]].cpu_demand_ghz += 0.5;  // same snapshot object, new demand
  expect_matches_naive(list, "mutated demand");
  snap.vms[list[6]].memory_mb += 1.0;
  list.erase(list.begin() + 2);
  expect_matches_naive(list, "mutated memory, subsequence");
}

class MinSlackOptimalitySweep : public ::testing::TestWithParam<int> {};

TEST_P(MinSlackOptimalitySweep, MatchesBruteForceOnSmallInstances) {
  util::Rng rng(static_cast<std::uint64_t>(700 + GetParam()));
  const std::size_t n = 8;
  std::vector<double> demands(n);
  for (double& d : demands) d = rng.uniform(0.3, 2.0);
  const double capacity = 4.0;
  const DataCenterSnapshot snap = make_instance(capacity, demands);
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);

  // Brute force best subset by slack.
  double best = capacity;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) total += demands[i];
    }
    if (total <= capacity + 1e-12) best = std::min(best, capacity - total);
  }

  std::vector<VmId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-9;
  const MinSlackResult r = minimum_slack(wp, 0, ids, constraints, options);
  EXPECT_NEAR(r.slack_ghz, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinSlackOptimalitySweep, ::testing::Range(0, 15));

}  // namespace
}  // namespace vdc::consolidate
