// The persistent planning model must plan exactly like a snapshot taken
// from scratch: after any sequence of cluster mutations, a warm model's
// IPAC and pMapper plans (moves, unplaced VMs, step counts, energy
// accounting) equal those computed from `snapshot_of(cluster)`, and a
// cold optimizer's first plan equals a warm one's.
#include "consolidate/planning_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "consolidate/ffd.hpp"
#include "consolidate/ipac.hpp"
#include "consolidate/pmapper.hpp"
#include "core/power_optimizer.hpp"
#include "util/rng.hpp"

namespace vdc::consolidate {
namespace {

using datacenter::Cluster;
using datacenter::Server;
using datacenter::Vm;

constexpr std::size_t kServers = 48;
constexpr std::size_t kVms = 120;

Cluster make_cluster(std::uint64_t seed, bool racked) {
  util::Rng rng(seed);
  Cluster c;
  for (std::size_t s = 0; s < kServers; ++s) {
    switch (rng.index(3)) {
      case 0:
        c.add_server(Server(datacenter::quad_core_3ghz(), datacenter::power_model_quad_3ghz(),
                            32768.0));
        break;
      case 1:
        c.add_server(Server(datacenter::dual_core_2ghz(), datacenter::power_model_dual_2ghz(),
                            16384.0));
        break;
      default:
        c.add_server(Server(datacenter::dual_core_1_5ghz(),
                            datacenter::power_model_dual_1_5ghz(), 12288.0));
        break;
    }
  }
  if (racked) c.set_topology(datacenter::Topology::uniform(2, 3, kServers / 6, 150.0, 400.0));
  for (std::size_t v = 0; v < kVms; ++v) {
    Vm vm;
    vm.cpu_demand_ghz = rng.uniform(0.1, 2.0);
    vm.memory_mb = 512.0 * static_cast<double>(1 + rng.index(4));
    c.add_vm(vm, static_cast<datacenter::ServerId>(rng.index(kServers / 2)));
  }
  c.sleep_idle_servers();
  return c;
}

RackAwareOptions rack_options(bool racked) {
  RackAwareOptions rack;
  rack.enabled = racked;
  rack.migration_energy_budget_j = 60000.0;
  rack.benefit_horizon_s = 1800.0;
  return rack;
}

void expect_same_plan(const PlacementPlan& warm, const PlacementPlan& fresh) {
  ASSERT_EQ(warm.moves.size(), fresh.moves.size());
  for (std::size_t m = 0; m < warm.moves.size(); ++m) {
    EXPECT_EQ(warm.moves[m].vm, fresh.moves[m].vm) << "move " << m;
    EXPECT_EQ(warm.moves[m].from, fresh.moves[m].from) << "move " << m;
    EXPECT_EQ(warm.moves[m].to, fresh.moves[m].to) << "move " << m;
  }
  EXPECT_EQ(warm.unplaced, fresh.unplaced);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

datacenter::ServerId random_server(util::Rng& rng) {
  return static_cast<datacenter::ServerId>(rng.index(kServers));
}

/// One random mutation of the kinds the Testbed and the trace simulator
/// make between plans.
void mutate(Cluster& c, core::PowerOptimizer& optimizer, util::Rng& rng, double now) {
  switch (rng.index(7)) {
    case 0:  // demands drift
      for (datacenter::VmId v = 0; v < c.vm_count(); ++v) {
        if (!c.vm_retired(v) && rng.uniform() < 0.3) {
          c.vm(v).cpu_demand_ghz = rng.uniform(0.05, 2.5);
        }
      }
      break;
    case 1:  // a crash evicts its VMs, which stay homeless
      (void)c.fail_server(random_server(rng));
      break;
    case 2:  // a repair
      for (datacenter::ServerId s = 0; s < c.server_count(); ++s) {
        if (c.server(s).failed()) {
          c.repair_server(s);
          break;
        }
      }
      break;
    case 3: {  // scale-out: a new VM, placed or not
      Vm vm;
      vm.cpu_demand_ghz = rng.uniform(0.1, 1.5);
      vm.memory_mb = 1024.0;
      const datacenter::VmId id = c.add_vm(vm);
      const datacenter::ServerId host = random_server(rng);
      if (rng.uniform() < 0.5 && !c.server(host).failed()) {
        (void)c.wake(host);
        c.place(id, host);
      }
      break;
    }
    case 4:  // scale-in
      c.retire_vm(static_cast<datacenter::VmId>(rng.index(c.vm_count())));
      break;
    case 5: {  // failed migrations: the backoff filter drops their retries
      const PlacementPlan proposed = optimizer.plan(c, now);
      for (const Move& move : proposed.moves) {
        if (rng.uniform() < 0.5) optimizer.note_migration_failure(move.vm, now);
      }
      (void)optimizer.optimize(c, now);
      break;
    }
    default: {  // a server of the plan fails after planning: a stale plan
      const PlacementPlan proposed = optimizer.plan(c, now);
      if (!proposed.moves.empty()) {
        const Move& move = proposed.moves[rng.index(proposed.moves.size())];
        // A failed target's moves are skipped; a failed source's VMs are
        // placed on their targets.
        const datacenter::ServerId victim =
            move.from != datacenter::kNoServer && rng.uniform() < 0.5 ? move.from : move.to;
        (void)c.fail_server(victim);
      }
      apply_plan(c, proposed, now);
      break;
    }
  }
}

class WarmModelDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(WarmModelDifferential, WarmPlansEqualFreshPlansAfterRandomMutations) {
  const bool racked = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Cluster c = make_cluster(seed, racked);
    util::Rng rng(seed * 7919);
    core::OptimizerConfig config;
    config.utilization_target = 0.8;
    config.migration_backoff_s = 100.0;
    config.rack = rack_options(racked);
    core::PowerOptimizer optimizer(config);
    const ConstraintSet constraints = ConstraintSet::standard(config.utilization_target);
    PlanningModel model;  // a second warm model, for the full reports
    std::size_t moves_compared = 0;

    double now = 0.0;
    for (int round = 0; round < 12; ++round) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", round " + std::to_string(round));
      now += 1000.0;
      const std::size_t ops = 1 + rng.index(3);
      for (std::size_t op = 0; op < ops; ++op) mutate(c, optimizer, rng, now);
      const double t = now + 500.0;  // past every backoff window

      const DataCenterSnapshot fresh = snapshot_of(c);
      const IpacReport ref = ipac(fresh, constraints, FreeMigrationPolicy(), config.ipac,
                                  config.rack);
      expect_same_plan(optimizer.plan(c, t), ref.plan);

      model.refresh(c);
      const IpacReport warm = ipac(model, constraints, FreeMigrationPolicy(), config.ipac,
                                   config.rack);
      expect_same_plan(warm.plan, ref.plan);
      moves_compared += ref.plan.moves.size();
      EXPECT_EQ(warm.min_slack_steps, ref.min_slack_steps);
      EXPECT_EQ(warm.rounds_accepted, ref.rounds_accepted);
      EXPECT_EQ(warm.occupied_before, ref.occupied_before);
      EXPECT_EQ(warm.occupied_after, ref.occupied_after);
      EXPECT_EQ(warm.racks_emptied, ref.racks_emptied);
      EXPECT_EQ(bits(warm.migration_energy_j), bits(ref.migration_energy_j));

      const PMapperReport pm_ref = pmapper(fresh, constraints, config.rack);
      const PMapperReport pm_warm = pmapper(model, constraints, config.rack);
      expect_same_plan(pm_warm.plan, pm_ref.plan);
      EXPECT_EQ(pm_warm.target_demand_ghz, pm_ref.target_demand_ghz);
      EXPECT_EQ(bits(pm_warm.migration_energy_j), bits(pm_ref.migration_energy_j));

      if (rng.uniform() < 0.5) (void)optimizer.optimize(c, t);
    }
    EXPECT_GT(moves_compared, 0u) << "seed " << seed << " never planned a move";
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, WarmModelDifferential, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& layout) {
                           return layout.param ? std::string("Racked") : std::string("Flat");
                         });

TEST(PlanningModel, ApplyPlanPlacesTheVmOfASourceThatFailedAfterPlanning) {
  // A stale plan: a server that is the source of a move crashes between
  // planning and applying. Its VM is homeless, and is placed on the target
  // as a restart is, instead of reaching Cluster::migrate.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Cluster c = make_cluster(seed, false);
    core::PowerOptimizer optimizer(core::OptimizerConfig{});
    const PlacementPlan plan = optimizer.plan(c, 0.0);
    const auto from_live = std::find_if(plan.moves.begin(), plan.moves.end(), [](const Move& m) {
      return m.from != datacenter::kNoServer;
    });
    ASSERT_NE(from_live, plan.moves.end());
    const Move move = *from_live;
    (void)c.fail_server(move.from);
    ASSERT_EQ(c.host_of(move.vm), datacenter::kNoServer);
    EXPECT_NO_THROW(apply_plan(c, plan, 0.0));
    EXPECT_EQ(c.host_of(move.vm), move.to);
  }
}

TEST(PlanningModel, ColdOptimizerFirstPlanEqualsWarmPlan) {
  // perfbench replays each plan on a freshly built optimizer: its first,
  // cold plan must be the warm optimizer's plan for the same cluster.
  Cluster c = make_cluster(11, false);
  util::Rng rng(11);
  core::OptimizerConfig config;
  config.utilization_target = 0.8;
  config.migration_backoff_s = 0.0;
  core::PowerOptimizer warm(config);
  double now = 0.0;
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    now += 600.0;
    mutate(c, warm, rng, now);
    core::PowerOptimizer cold(config);
    expect_same_plan(cold.plan(c, now), warm.plan(c, now));
    (void)warm.optimize(c, now);
  }
}

TEST(PlanningModel, RefreshMatchesSnapshotOfAndSortsOncePerFleet) {
  Cluster c = make_cluster(3, true);
  PlanningModel model;
  model.refresh(c);
  const ServerId* order_buffer = model.efficiency_order().data();
  util::Rng rng(3);
  core::PowerOptimizer optimizer(core::OptimizerConfig{});
  for (int round = 0; round < 10; ++round) {
    mutate(c, optimizer, rng, 1000.0 * round);
    model.refresh(c);
    const DataCenterSnapshot fresh = snapshot_of(c);
    const DataCenterSnapshot& refreshed = model.snapshot();
    ASSERT_EQ(refreshed.servers.size(), fresh.servers.size());
    for (std::size_t s = 0; s < fresh.servers.size(); ++s) {
      EXPECT_EQ(refreshed.servers[s].active, fresh.servers[s].active);
      EXPECT_EQ(refreshed.servers[s].failed, fresh.servers[s].failed);
      EXPECT_EQ(refreshed.servers[s].hosted, fresh.servers[s].hosted);
      EXPECT_EQ(refreshed.servers[s].rack, fresh.servers[s].rack);
    }
    ASSERT_EQ(refreshed.vms.size(), fresh.vms.size());
    for (std::size_t v = 0; v < fresh.vms.size(); ++v) {
      EXPECT_EQ(bits(refreshed.vms[v].cpu_demand_ghz), bits(fresh.vms[v].cpu_demand_ghz));
      EXPECT_EQ(refreshed.vms[v].retired, fresh.vms[v].retired);
    }
    const std::vector<ServerId> sorted = servers_by_power_efficiency(fresh);
    EXPECT_TRUE(std::equal(sorted.begin(), sorted.end(), model.efficiency_order().begin(),
                           model.efficiency_order().end()));
    // Same fleet: the order was neither re-sorted nor reallocated.
    EXPECT_EQ(model.efficiency_order().data(), order_buffer);
  }

  // A grown fleet is a new fleet: its order is recomputed.
  c.add_server(Server(datacenter::quad_core_3ghz(), datacenter::power_model_quad_3ghz(),
                      32768.0));
  model.refresh(c);
  const std::vector<ServerId> sorted = servers_by_power_efficiency(snapshot_of(c));
  EXPECT_TRUE(std::equal(sorted.begin(), sorted.end(), model.efficiency_order().begin(),
                         model.efficiency_order().end()));
}

TEST(PlanningModel, OneShotModelPlansOnTheCallersSnapshot) {
  Cluster c = make_cluster(5, false);
  const DataCenterSnapshot snap = snapshot_of(c);
  PlanningModel one_shot(snap);
  EXPECT_EQ(&one_shot.snapshot(), &snap);
  PlanningModel warm;
  warm.refresh(c);
  const ConstraintSet constraints = ConstraintSet::standard(0.8);
  expect_same_plan(ipac(one_shot, constraints).plan, ipac(warm, constraints).plan);
}

}  // namespace
}  // namespace vdc::consolidate
