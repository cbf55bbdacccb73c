// Differential tests: the fast consolidation engine (incremental
// WorkingPlacement aggregates, SlackIndex target selection, plan-exact
// Minimum Slack pruning) against the retained naive oracles in
// consolidate/naive.hpp — the same strategy as test_eventloop_equivalence
// for the event loop. The fast engine is required to be *plan-exact*: for
// every seeded fleet, including ones where the Minimum Slack step budget
// binds and epsilon escalates mid-search, the two engines must produce
// move-for-move identical plans. Only reported step counts may differ
// (armed branch-and-bound skips counted work), and only when the budget
// provably cannot bind.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "consolidate/ipac.hpp"
#include "consolidate/naive.hpp"
#include "consolidate/pmapper.hpp"
#include "util/rng.hpp"

namespace vdc::consolidate {
namespace {

/// Heterogeneous 100-server fleet in the bench's mold: capacities 3-12 GHz,
/// VMs 0.1-1.5 GHz round-robin over the awake servers. Every 10th server
/// starts asleep (a wake target); small servers can start overloaded
/// (exercises relief).
DataCenterSnapshot random_fleet(std::size_t servers, std::size_t vms, std::uint64_t seed) {
  util::Rng rng(seed);
  DataCenterSnapshot snap;
  std::vector<ServerId> awake;
  for (std::size_t i = 0; i < servers; ++i) {
    ServerSnapshot s;
    s.id = static_cast<ServerId>(i);
    s.max_capacity_ghz = rng.uniform(3.0, 12.0);
    s.memory_mb = rng.uniform(8000.0, 32000.0);
    s.max_power_w = 150.0 + s.max_capacity_ghz * 15.0;
    s.idle_power_w = 0.55 * s.max_power_w;
    s.sleep_power_w = 6.0;
    s.power_efficiency_ghz_per_w = s.max_capacity_ghz / s.max_power_w;
    s.active = i % 10 != 9;
    if (s.active) awake.push_back(s.id);
    snap.servers.push_back(s);
  }
  for (std::size_t i = 0; i < vms; ++i) {
    VmSnapshot vm;
    vm.id = static_cast<VmId>(i);
    vm.cpu_demand_ghz = rng.uniform(0.1, 1.5);
    vm.memory_mb = rng.uniform(400.0, 2000.0);
    snap.vms.push_back(vm);
    snap.servers[awake[i % awake.size()]].hosted.push_back(vm.id);
  }
  return snap;
}

/// The same fleet after a demand surge: every VM's demand grows by 30 %, so
/// at the 0.8 target most awake servers start overloaded and IPAC's Step 1
/// (overload relief) makes nearly every move. Relief runs PAC over one long
/// migration list, where Minimum Slack's step budget binds on most calls.
DataCenterSnapshot surged_fleet(std::uint64_t seed) {
  DataCenterSnapshot snap = random_fleet(100, 500, seed);
  for (VmSnapshot& vm : snap.vms) vm.cpu_demand_ghz *= 1.3;
  return snap;
}

/// The same fleet with physical coordinates: racks of 5 servers, pods of 4
/// racks, non-trivial shared draws, and bandwidth tiers that slow distant
/// copies. Exercises every rack-aware branch of both engines.
DataCenterSnapshot racked_fleet(std::size_t servers, std::size_t vms, std::uint64_t seed) {
  DataCenterSnapshot snap = random_fleet(servers, vms, seed);
  constexpr std::size_t kPerRack = 5;
  constexpr std::size_t kRacksPerPod = 4;
  for (ServerSnapshot& s : snap.servers) {
    const auto rack = static_cast<RackId>(s.id / kPerRack);
    s.rack = rack;
    s.pod = static_cast<PodId>(rack / kRacksPerPod);
    if (rack >= snap.racks.size()) {
      snap.racks.push_back(RackSnapshot{
          .id = rack, .pod = s.pod, .shared_power_w = 40.0, .members = {}});
    }
    snap.racks[rack].members.push_back(s.id);
    if (s.pod >= snap.pods.size()) {
      snap.pods.push_back(PodSnapshot{.id = s.pod, .shared_power_w = 90.0});
    }
  }
  return snap;
}

/// Rack-aware knobs tuned so BOTH gates actually fire on the 100-server
/// fleets: a short horizon makes cross-pod moves lose net energy, and the
/// budget is small enough to exhaust mid-plan on most seeds.
RackAwareOptions binding_rack_options() {
  RackAwareOptions rack;
  rack.enabled = true;
  rack.cost.transfer.cross_rack_bandwidth_factor = 0.5;
  rack.cost.transfer.cross_pod_bandwidth_factor = 0.25;
  rack.migration_energy_budget_j = 20000.0;
  rack.benefit_horizon_s = 120.0;
  return rack;
}

void expect_same_plan(const PlacementPlan& fast, const PlacementPlan& ref,
                      std::uint64_t seed) {
  ASSERT_EQ(fast.moves.size(), ref.moves.size()) << "seed " << seed;
  for (std::size_t i = 0; i < fast.moves.size(); ++i) {
    EXPECT_EQ(fast.moves[i].vm, ref.moves[i].vm) << "seed " << seed << " move " << i;
    EXPECT_EQ(fast.moves[i].from, ref.moves[i].from) << "seed " << seed << " move " << i;
    EXPECT_EQ(fast.moves[i].to, ref.moves[i].to) << "seed " << seed << " move " << i;
  }
  EXPECT_EQ(fast.unplaced, ref.unplaced) << "seed " << seed;
}

class ConsolidationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ConsolidationEquivalence, IpacPlansIdenticalUnderHugeBudget) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const DataCenterSnapshot snap = random_fleet(100, 500, seed);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  // A budget the search can never exhaust: escalation is off the table and
  // both engines must agree on every report field except step counts
  // (branch-and-bound arms on small calls and skips counted work).
  IpacOptions options;
  options.min_slack.step_budget = 1u << 30;
  const IpacReport fast = ipac(snap, constraints, FreeMigrationPolicy(), options);
  const IpacReport ref = naive::ipac(snap, constraints, FreeMigrationPolicy(), options);
  expect_same_plan(fast.plan, ref.plan, seed);
  EXPECT_EQ(fast.rounds_accepted, ref.rounds_accepted) << "seed " << seed;
  EXPECT_EQ(fast.occupied_after, ref.occupied_after) << "seed " << seed;
}

/// Default options: relief-sized candidate lists exhaust the per-call step
/// budget and escalate epsilon mid-search. Plan exactness must hold anyway
/// — the fast engine replicates the reference's escalation ladder step for
/// step through its bulk-counted skips.
void expect_ipac_identical_under_default_budget(std::uint64_t seed, double target) {
  const DataCenterSnapshot snap = random_fleet(100, 500, seed);
  const ConstraintSet constraints = ConstraintSet::standard(target);
  const IpacReport fast = ipac(snap, constraints);
  const IpacReport ref = naive::ipac(snap, constraints);
  expect_same_plan(fast.plan, ref.plan, seed);
  EXPECT_EQ(fast.rounds_accepted, ref.rounds_accepted) << "seed " << seed;
  EXPECT_EQ(fast.occupied_after, ref.occupied_after) << "seed " << seed;
}

void expect_pmapper_identical(std::uint64_t seed, double target) {
  const DataCenterSnapshot snap = random_fleet(100, 500, seed);
  const ConstraintSet constraints = ConstraintSet::standard(target);
  const PMapperReport fast = pmapper(snap, constraints);
  const PMapperReport ref = naive::pmapper(snap, constraints);
  expect_same_plan(fast.plan, ref.plan, seed);
  EXPECT_EQ(fast.occupied_after, ref.occupied_after) << "seed " << seed;
  EXPECT_EQ(fast.target_demand_ghz, ref.target_demand_ghz) << "seed " << seed;
}

TEST_P(ConsolidationEquivalence, IpacPlansIdenticalUnderDefaultBudget) {
  expect_ipac_identical_under_default_budget(static_cast<std::uint64_t>(GetParam()), 1.0);
}

// The paper's utilisation target: the CPU limit sits below raw capacity, so
// Minimum Slack meets candidates that fit the server but not the target —
// a band that is empty at 1.0.
TEST_P(ConsolidationEquivalence, IpacPlansIdenticalUnderDefaultBudgetAtTarget08) {
  expect_ipac_identical_under_default_budget(static_cast<std::uint64_t>(GetParam()), 0.8);
}

TEST_P(ConsolidationEquivalence, PMapperPlansIdentical) {
  expect_pmapper_identical(static_cast<std::uint64_t>(GetParam()), 1.0);
}

TEST_P(ConsolidationEquivalence, PMapperPlansIdenticalAtTarget08) {
  expect_pmapper_identical(static_cast<std::uint64_t>(GetParam()), 0.8);
}

TEST_P(ConsolidationEquivalence, PowerEstimateMatchesNaiveScanAfterAPass) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const DataCenterSnapshot snap = random_fleet(100, 500, seed);
  WorkingPlacement placement(snap);
  // Churn the placement (evacuate a third of the servers onto the rest),
  // then compare the incrementally maintained power estimate against the
  // naive full scan: the compensated sum must match to near round-off.
  for (ServerId server = 0; server < 100; server += 3) {
    const std::vector<VmId> residents(placement.hosted(server).begin(),
                                      placement.hosted(server).end());
    for (const VmId vm : residents) {
      placement.remove(vm);
      placement.place(vm, (server + 1) % 100);
    }
  }
  EXPECT_NEAR(placement.estimated_power_w(), naive::estimated_power_w(placement), 1e-6)
      << "seed " << seed;
}

TEST_P(ConsolidationEquivalence, RackAwareIpacPlansIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const DataCenterSnapshot snap = racked_fleet(100, 500, seed);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const RackAwareOptions rack = binding_rack_options();
  const IpacReport fast = ipac(snap, constraints, FreeMigrationPolicy(), {}, rack);
  const IpacReport ref = naive::ipac(snap, constraints, FreeMigrationPolicy(), {}, rack);
  expect_same_plan(fast.plan, ref.plan, seed);
  EXPECT_EQ(fast.rounds_accepted, ref.rounds_accepted) << "seed " << seed;
  EXPECT_EQ(fast.rounds_rejected_by_cost, ref.rounds_rejected_by_cost) << "seed " << seed;
  EXPECT_EQ(fast.rounds_rejected_by_budget, ref.rounds_rejected_by_budget)
      << "seed " << seed;
  EXPECT_EQ(fast.racks_emptied, ref.racks_emptied) << "seed " << seed;
  EXPECT_EQ(fast.occupied_after, ref.occupied_after) << "seed " << seed;
  // Both engines charge the identical moves in the identical order: the
  // energy ledgers must agree to the bit, not just to rounding.
  EXPECT_EQ(fast.migration_energy_j, ref.migration_energy_j) << "seed " << seed;
  // Relief moves are budget-exempt yet still charged to the ledger, so the
  // total can exceed the budget on fleets that start overloaded; the strict
  // within-budget property is asserted by the overload-free cost-edge tests.
  EXPECT_GT(fast.migration_energy_j, 0.0) << "seed " << seed;
}

TEST_P(ConsolidationEquivalence, RackAwarePMapperPlansIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const DataCenterSnapshot snap = racked_fleet(100, 500, seed);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const RackAwareOptions rack = binding_rack_options();
  const PMapperReport fast = pmapper(snap, constraints, rack);
  const PMapperReport ref = naive::pmapper(snap, constraints, rack);
  expect_same_plan(fast.plan, ref.plan, seed);
  EXPECT_EQ(fast.moves_rejected_by_budget, ref.moves_rejected_by_budget) << "seed " << seed;
  EXPECT_EQ(fast.occupied_after, ref.occupied_after) << "seed " << seed;
  EXPECT_EQ(fast.migration_energy_j, ref.migration_energy_j) << "seed " << seed;
}

TEST_P(ConsolidationEquivalence, DegenerateTopologyReproducesFlatPlans) {
  // 1-rack-per-server with zero shared draw, a free cost model and a zero
  // benefit horizon: every rack-aware tie-break and gate provably reduces
  // to the flat baseline, so enabling the machinery must not move a single
  // decision.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  DataCenterSnapshot snap = random_fleet(100, 500, seed);
  for (ServerSnapshot& s : snap.servers) {
    s.rack = static_cast<RackId>(s.id);
    s.pod = 0;
    snap.racks.push_back(RackSnapshot{
        .id = s.rack, .pod = 0, .shared_power_w = 0.0, .members = {s.id}});
  }
  snap.pods.push_back(PodSnapshot{.id = 0, .shared_power_w = 0.0});
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  RackAwareOptions degenerate;
  degenerate.enabled = true;
  degenerate.cost.migration_power_w = 0.0;  // every move is free
  degenerate.benefit_horizon_s = 0.0;       // and claims zero benefit
  DataCenterSnapshot flat = snap;
  flat.racks.clear();
  flat.pods.clear();
  expect_same_plan(ipac(snap, constraints, FreeMigrationPolicy(), {}, degenerate).plan,
                   ipac(flat, constraints).plan, seed);
  expect_same_plan(pmapper(snap, constraints, degenerate).plan,
                   pmapper(flat, constraints).plan, seed);
}

TEST_P(ConsolidationEquivalence, IpacPlansIdenticalAfterSurgeAtTarget08) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const DataCenterSnapshot snap = surged_fleet(seed);
  const ConstraintSet constraints = ConstraintSet::standard(0.8);
  const IpacReport fast = ipac(snap, constraints);
  const IpacReport ref = naive::ipac(snap, constraints);
  expect_same_plan(fast.plan, ref.plan, seed);
  EXPECT_EQ(fast.overload_moves, ref.overload_moves) << "seed " << seed;
  EXPECT_GT(fast.overload_moves, fast.consolidation_moves) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsolidationEquivalence, ::testing::Range(1, 11));

// Minimum Slack head-to-head under a *binding* budget: with 24 candidates
// the 2^24-sized tree dwarfs the 50-step budget, so branch-and-bound stays
// disarmed and the fast engine must mirror the reference exactly — same
// selection, same counted steps, same escalations.
void expect_min_slack_exact_under_binding_budget(double target) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed);
    DataCenterSnapshot snap;
    ServerSnapshot server;
    server.id = 0;
    server.max_capacity_ghz = 8.0;
    server.memory_mb = 4000.0;
    server.max_power_w = 200.0;
    server.power_efficiency_ghz_per_w = 8.0 / 200.0;
    server.active = true;
    snap.servers.push_back(server);
    std::vector<VmId> candidates;
    for (std::size_t i = 0; i < 24; ++i) {
      VmSnapshot vm;
      vm.id = static_cast<VmId>(i);
      vm.cpu_demand_ghz = rng.uniform(0.2, 1.2);
      vm.memory_mb = rng.uniform(100.0, 600.0);
      snap.vms.push_back(vm);
      candidates.push_back(vm.id);
    }
    const WorkingPlacement placement(snap);
    const ConstraintSet constraints = ConstraintSet::standard(target);
    MinSlackOptions options;
    options.epsilon_ghz = 1e-6;  // practically unreachable: budget governs
    options.step_budget = 50;
    options.max_escalations = 4;
    const MinSlackResult fast = minimum_slack(placement, 0, candidates, constraints, options);
    const MinSlackResult ref =
        naive::minimum_slack(placement, 0, candidates, constraints, options);
    EXPECT_EQ(fast.selected, ref.selected) << "seed " << seed;
    EXPECT_EQ(fast.steps, ref.steps) << "seed " << seed;
    EXPECT_EQ(fast.escalations, ref.escalations) << "seed " << seed;
    EXPECT_DOUBLE_EQ(fast.slack_ghz, ref.slack_ghz) << "seed " << seed;
  }
}

TEST(ConsolidationEquivalence, MinimumSlackExactUnderBindingBudget) {
  expect_min_slack_exact_under_binding_budget(1.0);
}

// At the paper's 0.8 target the 8 GHz server admits 6.4 GHz: every deep
// node meets a run of candidates that fit the raw slack but not the target,
// and the fast engine's bulk skip over that run must land on the same
// escalation steps as the reference's one-by-one rejections.
TEST(ConsolidationEquivalence, MinimumSlackExactUnderBindingBudgetAtTarget08) {
  expect_min_slack_exact_under_binding_budget(0.8);
}

// Step accounting pinned at values recorded from the engine before the
// target-band skip and the sorted-order reuse went in. The oracle tests
// compare counted steps only where the budget binds; here branch-and-bound
// is armed on the small calls (it skips counted work the reference pays),
// so the fast engine's own reported total must not drift either.
TEST(ConsolidationEquivalence, IpacStepAccountingPinnedAtTarget08) {
  struct Pinned {
    std::uint64_t seed;
    std::size_t moves;
    std::uint64_t plan_hash;
    std::size_t rounds_accepted;
    std::size_t min_slack_steps;
  };
  const Pinned pinned[] = {
      {1, 183, 0x2229329a24f9faf6ull, 33, 1018663},
      {2, 273, 0x9141b3d05056d1d3ull, 49, 920601},
      {3, 190, 0xdd69b71df07ef081ull, 32, 1237963},
  };
  const ConstraintSet constraints = ConstraintSet::standard(0.8);
  for (const Pinned& p : pinned) {
    const IpacReport report = ipac(random_fleet(100, 500, p.seed), constraints);
    std::uint64_t hash = 14695981039346656037ull;  // FNV-1a over (vm, from, to)
    for (const Move& move : report.plan.moves) {
      for (const std::uint64_t v : {std::uint64_t{move.vm}, std::uint64_t{move.from},
                                    std::uint64_t{move.to}}) {
        hash = (hash ^ v) * 1099511628211ull;
      }
    }
    EXPECT_EQ(report.plan.moves.size(), p.moves) << "seed " << p.seed;
    EXPECT_EQ(hash, p.plan_hash) << "seed " << p.seed;
    EXPECT_TRUE(report.plan.unplaced.empty()) << "seed " << p.seed;
    EXPECT_EQ(report.rounds_accepted, p.rounds_accepted) << "seed " << p.seed;
    EXPECT_EQ(report.min_slack_steps, p.min_slack_steps) << "seed " << p.seed;
  }
}

// The same pin where Step 1 dominates: after a 30 % demand surge, overload
// relief makes nearly every move, and its PAC walk over one long migration
// list counts nearly every step. Recorded from the engine before Minimum
// Slack took dead runs in one pass and PAC kept one sorted candidate set.
TEST(ConsolidationEquivalence, IpacReliefPinnedAfterSurgeAtTarget08) {
  struct Pinned {
    std::uint64_t seed;
    std::size_t moves;
    std::uint64_t plan_hash;
    std::size_t overload_moves;
    std::size_t min_slack_steps;
  };
  const Pinned pinned[] = {
      {1, 130, 0x5e085a55c5f806d1ull, 129, 2112965},
      {2, 137, 0x9c0a802f96cc80bfull, 135, 2267724},
      {3, 140, 0xc2d812e98cc1b631ull, 139, 1648162},
  };
  const ConstraintSet constraints = ConstraintSet::standard(0.8);
  for (const Pinned& p : pinned) {
    const IpacReport report = ipac(surged_fleet(p.seed), constraints);
    std::uint64_t hash = 14695981039346656037ull;  // FNV-1a over (vm, from, to)
    for (const Move& move : report.plan.moves) {
      for (const std::uint64_t v : {std::uint64_t{move.vm}, std::uint64_t{move.from},
                                    std::uint64_t{move.to}}) {
        hash = (hash ^ v) * 1099511628211ull;
      }
    }
    EXPECT_EQ(report.plan.moves.size(), p.moves) << "seed " << p.seed;
    EXPECT_EQ(hash, p.plan_hash) << "seed " << p.seed;
    EXPECT_TRUE(report.plan.unplaced.empty()) << "seed " << p.seed;
    EXPECT_EQ(report.overload_moves, p.overload_moves) << "seed " << p.seed;
    EXPECT_EQ(report.min_slack_steps, p.min_slack_steps) << "seed " << p.seed;
  }
}

}  // namespace
}  // namespace vdc::consolidate
