#include "consolidate/minimum_slack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

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

/// Selection, steps and escalations equal, and the slack equal to the bit.
void expect_same_search(const MinSlackResult& fast, const MinSlackResult& ref,
                        const std::string& what) {
  EXPECT_EQ(fast.selected, ref.selected) << what;
  EXPECT_EQ(fast.steps, ref.steps) << what;
  EXPECT_EQ(fast.escalations, ref.escalations) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.slack_ghz),
            std::bit_cast<std::uint64_t>(ref.slack_ghz))
      << what << ": " << fast.slack_ghz << " vs " << ref.slack_ghz;
}

/// A relief target at the paper's 0.8 utilisation target: an 8 GHz server
/// (6.4 GHz admissible) already holding `resident_ghz` of demand in two VMs,
/// and `count` unplaced candidates drawn from [lo, hi) GHz and [mem_lo,
/// mem_hi) MB. Near the target most selections leave no room for even the
/// smallest candidate, so the search is mostly long runs of dead leaves.
///
/// Two more candidates are one VM twice, at the smallest demand `lo` and
/// memory `mem_lo`. That equal pair at the end of the sorted order keeps
/// the all-fits tail collapse off (it needs a tail with no equal pair):
/// the collapse replays its first descent but not the selection-sum drift
/// of the 2^m - 1 - m attempts it counts in bulk, so after one the fast
/// engine's slack can differ from the reference's by ulps, and these cases
/// compare the slack to the bit.
struct ReliefInstance {
  DataCenterSnapshot snap;
  std::vector<VmId> candidates;
};

ReliefInstance relief_instance(std::uint64_t seed, std::size_t count, double resident_ghz,
                               double lo, double hi, double server_memory = 1e6,
                               double mem_lo = 1.0, double mem_hi = 1.0) {
  util::Rng rng(seed);
  ReliefInstance r;
  r.snap = make_instance(8.0, {}, server_memory);
  for (std::size_t i = 0; i < count + 4; ++i) {
    VmSnapshot vm;
    vm.id = static_cast<VmId>(i);
    const bool twin = i >= count + 2;
    vm.cpu_demand_ghz = i < 2 ? resident_ghz / 2.0 : twin ? lo : rng.uniform(lo, hi);
    vm.memory_mb = i < 2 ? 1.0 : twin ? mem_lo : rng.uniform(mem_lo, mem_hi);
    r.snap.vms.push_back(vm);
    if (i < 2) {
      r.snap.servers[0].hosted.push_back(vm.id);
    } else {
      r.candidates.push_back(vm.id);
    }
  }
  return r;
}

MinSlackOptions binding_options(std::size_t step_budget, std::size_t max_escalations) {
  MinSlackOptions options;
  options.epsilon_ghz = 1e-6;  // practically unreachable: the budget governs
  options.step_budget = step_budget;
  options.max_escalations = max_escalations;
  return options;
}

void expect_matches_naive(const ReliefInstance& r, const MinSlackOptions& options,
                          const std::string& what) {
  const WorkingPlacement wp(r.snap);
  const ConstraintSet constraints = ConstraintSet::standard(0.8);
  const MinSlackResult fast = minimum_slack(wp, 0, r.candidates, constraints, options);
  const MinSlackResult ref = naive::minimum_slack(wp, 0, r.candidates, constraints, options);
  expect_same_search(fast, ref, what);
}

// Relief-sized lists near the target: after the first selection only the
// largest siblings leave the level below dead, and each run of them is
// taken in one pass. Budgets small and large, so the search ends by
// escalating out as well as by exhausting the ladder.
TEST(MinimumSlack, LongDeadRunsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ReliefInstance r = relief_instance(seed, 150, 4.0 + 0.1 * static_cast<double>(seed),
                                             0.6, 1.3);
    for (const std::size_t budget : {700u, 5000u, 20000u}) {
      expect_matches_naive(r, binding_options(budget, 4),
                           "seed " + std::to_string(seed) + " budget " + std::to_string(budget));
    }
  }
}

// Every budget from 1 to 400 over one instance: the escalation thresholds
// fall at every offset of every dead run, including the step that ends the
// search inside a run, and one bulk consume must land on each of them.
// Epsilon starts at 0.01 GHz and triples per escalation, so a search ends
// where an escalated epsilon first passes the incumbent: a run that counts
// its steps wrongly ends the search elsewhere, with another selection.
TEST(MinimumSlack, EscalationThresholdInsideADeadRunMatchesTheReference) {
  const ReliefInstance r = relief_instance(21, 24, 4.4, 0.55, 1.3);
  std::size_t escalated = 0;
  for (std::size_t budget = 1; budget <= 400; ++budget) {
    MinSlackOptions options = binding_options(budget, 3);
    options.epsilon_ghz = 0.01;
    options.epsilon_escalation = 3.0;
    expect_matches_naive(r, options, "budget " + std::to_string(budget));
    const WorkingPlacement wp(r.snap);
    escalated += minimum_slack(wp, 0, r.candidates, ConstraintSet::standard(0.8), options)
                     .escalations > 0;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(escalated, 300u);
}

// Candidates in pairs of equal demand: one pair member differs in memory
// (not a symmetry skip, so the run selects it), the other pair is an exact
// copy (a symmetry skip, one step inside the run).
TEST(MinimumSlack, EqualDemandNeighboursMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ReliefInstance r = relief_instance(seed + 40, 80, 4.2, 0.6, 1.3, 6000.0, 100.0, 400.0);
    for (std::size_t k = 2; k + 1 < r.snap.vms.size(); k += 2) {
      VmSnapshot& twin = r.snap.vms[k + 1];
      twin.cpu_demand_ghz = r.snap.vms[k].cpu_demand_ghz;
      if (k % 4 == 0) twin.memory_mb = r.snap.vms[k].memory_mb;  // exact copy
    }
    for (const std::size_t budget : {300u, 4000u}) {
      expect_matches_naive(r, binding_options(budget, 4),
                           "seed " + std::to_string(seed) + " budget " + std::to_string(budget));
    }
  }
}

// Memory that binds part-way through runs: the server's free memory takes
// about three candidates, so some siblings of a dead leaf are memory
// rejects (one step), others are selections whose level below is dead on
// memory rather than on CPU. Epsilon escalates fourfold from 0.002 GHz, so
// where the search stops depends on its exact step count.
TEST(MinimumSlack, MemoryRoomBindingInsideARunMatchesTheReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ReliefInstance r =
        relief_instance(seed + 80, 90, 3.0, 0.3, 1.1, 3000.0, 300.0, 1400.0);
    for (const std::size_t budget : {500u, 2000u, 6000u}) {
      MinSlackOptions options = binding_options(budget, 4);
      options.epsilon_ghz = 0.002;
      options.epsilon_escalation = 4.0;
      expect_matches_naive(r, options,
                           "seed " + std::to_string(seed) + " budget " + std::to_string(budget));
    }
  }
}

// Demands with full 53-bit mantissas on a resident base that is not a
// short binary fraction: restoring a selection sum with (s + d) - d moves
// it by an ulp for a good share of the pairs, and every slack the search
// computes after a run depends on the sum the run left behind.
TEST(MinimumSlack, DriftingSelectionSumsMatchTheReferenceToTheBit) {
  std::size_t drifting = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ReliefInstance r = relief_instance(seed + 120, 60, 4.0 / 3.0, 0.9, 1.7);
    for (std::size_t a = 2; a < r.snap.vms.size(); ++a) {
      for (std::size_t b = a + 1; b < r.snap.vms.size(); ++b) {
        const double s = r.snap.vms[a].cpu_demand_ghz;
        const double d = r.snap.vms[b].cpu_demand_ghz;
        // vdc-lint: float-eq-ok counts the pairs whose restored sum is not bitwise the original
        drifting += (s + d) - d != s;
      }
    }
    for (const std::size_t budget : {400u, 3000u, 20000u}) {
      expect_matches_naive(r, binding_options(budget, 5),
                           "seed " + std::to_string(seed) + " budget " + std::to_string(budget));
    }
  }
  EXPECT_GT(drifting, 1000u);  // the instances do drift
}

// PAC's candidate set across a selection sequence: sorted once, each
// selection erased by position and placed, and every call on what is left
// matches the reference run on the caller's (unsorted) remaining list.
TEST(MinimumSlack, CandidateSetMatchesTheReferenceAcrossASelectionSequence) {
  util::Rng rng(17);
  DataCenterSnapshot snap;
  for (std::size_t i = 0; i < 6; ++i) {
    ServerSnapshot server;
    server.id = static_cast<ServerId>(i);
    server.max_capacity_ghz = rng.uniform(4.0, 9.0);
    server.memory_mb = rng.uniform(2500.0, 6000.0);
    server.max_power_w = 200.0;
    server.active = true;
    snap.servers.push_back(server);
  }
  std::vector<VmId> remaining;
  for (std::size_t i = 0; i < 40; ++i) {
    VmSnapshot vm;
    vm.id = static_cast<VmId>(i);
    vm.cpu_demand_ghz = rng.uniform(0.2, 1.4);
    vm.memory_mb = rng.uniform(200.0, 900.0);
    if (i % 7 == 3) vm.cpu_demand_ghz = snap.vms.back().cpu_demand_ghz;  // equal demands
    snap.vms.push_back(vm);
    remaining.push_back(vm.id);
  }
  std::swap(remaining[3], remaining[17]);  // a caller order that is not the sorted one
  WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(0.8);
  const MinSlackOptions options = binding_options(60, 3);
  CandidateSet set;
  set.assign(wp, remaining);
  std::size_t selections = 0;
  for (ServerId server = 0; server < snap.servers.size(); ++server) {
    const std::string what = "server " + std::to_string(server);
    const MinSlackResult fast = minimum_slack(wp, server, set, constraints, options);
    // The set gives what sorting the remaining list afresh gives, to the bit.
    expect_same_search(fast, minimum_slack(wp, server, remaining, constraints, options), what);
    // And the reference's selection and step accounting (its slack to a few
    // ulps: this list lets the tail collapse fire).
    const MinSlackResult ref = naive::minimum_slack(wp, server, remaining, constraints, options);
    EXPECT_EQ(fast.selected, ref.selected) << what;
    EXPECT_EQ(fast.steps, ref.steps) << what;
    EXPECT_EQ(fast.escalations, ref.escalations) << what;
    EXPECT_DOUBLE_EQ(fast.slack_ghz, ref.slack_ghz) << what;

    set.erase(fast.selected);
    for (const VmId vm : fast.selected) {
      wp.place(vm, server);
      std::erase(remaining, vm);
    }
    selections += fast.selected.empty() ? 0 : 1;
    // What is left is the remaining list in sorted order, and its smallest
    // demand and memory are the remaining list's.
    std::vector<VmId> sorted = remaining;
    std::sort(sorted.begin(), sorted.end(), [&](VmId a, VmId b) {
      const double da = snap.vm(a).cpu_demand_ghz;
      const double db = snap.vm(b).cpu_demand_ghz;
      // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator
      return da != db ? da > db : a < b;
    });
    EXPECT_TRUE(std::ranges::equal(set.vms(), sorted)) << what;
    double smallest = std::numeric_limits<double>::infinity();
    double smallest_memory = std::numeric_limits<double>::infinity();
    for (const VmId vm : remaining) {
      smallest = std::min(smallest, snap.vm(vm).cpu_demand_ghz);
      smallest_memory = std::min(smallest_memory, snap.vm(vm).memory_mb);
    }
    EXPECT_EQ(set.smallest_demand_ghz(), smallest) << what;
    EXPECT_EQ(set.smallest_memory_mb(), smallest_memory) << what;
  }
  EXPECT_GE(selections, 4u);

  // A list that is not a subsequence of the set is refused, and the set is
  // left as it was.
  ASSERT_GE(set.size(), 2u);
  const std::vector<VmId> before(set.vms().begin(), set.vms().end());
  const std::vector<VmId> reversed{before[1], before[0]};
  EXPECT_THROW(set.erase(reversed), std::invalid_argument);
  EXPECT_TRUE(std::ranges::equal(set.vms(), before));
  // And a set built over another snapshot is refused by the search.
  const DataCenterSnapshot other = snap;
  const WorkingPlacement other_wp(other);
  EXPECT_THROW((void)minimum_slack(other_wp, 0, set, constraints, options),
               std::invalid_argument);
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
