// Tier replica sets: the dispatcher, the boot/drain state machine, request
// conservation across scaling churn, and the single-replica equivalence
// contract (scaling machinery must not perturb an app that never has a
// second serving replica).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app/multi_tier_app.hpp"

namespace vdc::app {
namespace {

AppConfig replicated_app(std::uint64_t seed, std::size_t concurrency,
                         std::size_t replicas, double boot_delay_s = 0.0) {
  AppConfig config = default_two_tier_app("rep", seed, concurrency);
  for (TierConfig& tier : config.tiers) {
    tier.initial_replicas = replicas;
    tier.max_replicas = 8;
    tier.boot_delay_s = boot_delay_s;
  }
  return config;
}

TEST(Replication, ConfigValidation) {
  sim::Simulation sim;
  AppConfig config = replicated_app(1, 10, 1);
  config.tiers[0].initial_replicas = 0;
  EXPECT_THROW(MultiTierApp(sim, config), std::invalid_argument);
  config = replicated_app(1, 10, 4);
  config.tiers[0].max_replicas = 2;  // < initial
  EXPECT_THROW(MultiTierApp(sim, config), std::invalid_argument);
  config = replicated_app(1, 10, 1);
  config.tiers[1].boot_delay_s = -1.0;
  EXPECT_THROW(MultiTierApp(sim, config), std::invalid_argument);
}

TEST(Replication, InitialReplicasServeImmediately) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(2, 40, 3, /*boot_delay_s=*/30.0));
  const ReplicaSetStatus status = app.replica_status(0);
  EXPECT_EQ(status.target, 3u);
  EXPECT_EQ(status.serving, 3u);  // initial replicas skip the boot delay
  EXPECT_EQ(status.booting, 0u);
  app.start();
  sim.run_until(60.0);
  // The dispatcher spreads work across every serving replica.
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_GT(app.replica_work_done_gcycles(0, r), 0.0) << "replica " << r;
    EXPECT_GT(app.replica_work_done_gcycles(1, r), 0.0) << "replica " << r;
  }
  EXPECT_GT(app.completed_requests(), 100u);
}

TEST(Replication, DeterministicForSameSeed) {
  const auto run = [] {
    sim::Simulation sim;
    MultiTierApp app(sim, replicated_app(7, 30, 3));
    app.start();
    sim.run_until(100.0);
    std::vector<double> work;
    for (std::size_t r = 0; r < 3; ++r) work.push_back(app.replica_work_done_gcycles(1, r));
    return std::pair{app.completed_requests(), work};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);  // identical dispatch, bit for bit
}

TEST(Replication, MoreReplicasLowerResponseTimeWhenSaturated) {
  const auto mean_rt = [](std::size_t replicas) {
    sim::Simulation sim;
    MultiTierApp app(sim, replicated_app(4, 120, replicas));
    double sum = 0.0;
    std::size_t n = 0;
    app.set_response_callback([&](double, double rt) {
      sum += rt;
      ++n;
    });
    app.set_allocations(std::vector<double>(2, 0.8));  // per-replica cap
    app.start();
    sim.run_until(300.0);
    return sum / static_cast<double>(n);
  };
  // 120 clients saturate one 0.8 GHz replica per tier; three replicas triple
  // the tier capacity, so response time collapses.
  EXPECT_GT(mean_rt(1), 2.0 * mean_rt(3));
}

TEST(Replication, BootDelayGatesServing) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(5, 40, 1, /*boot_delay_s=*/30.0));
  app.start();
  sim.run_until(20.0);
  const std::size_t slot = app.scale_out(0);
  EXPECT_EQ(slot, 1u);
  ReplicaSetStatus status = app.replica_status(0);
  EXPECT_EQ(status.target, 2u);
  EXPECT_EQ(status.serving, 1u);
  EXPECT_EQ(status.booting, 1u);
  sim.run_until(45.0);  // boot (20 + 30 = 50) not elapsed yet
  EXPECT_EQ(app.replica_status(0).booting, 1u);
  EXPECT_DOUBLE_EQ(app.replica_work_done_gcycles(0, slot), 0.0);  // serves nothing
  sim.run_until(80.0);
  status = app.replica_status(0);
  EXPECT_EQ(status.serving, 2u);
  EXPECT_EQ(status.booting, 0u);
  EXPECT_GT(app.replica_work_done_gcycles(0, slot), 0.0);
}

TEST(Replication, ScaleInDrainsThenRetires) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(6, 60, 2));
  std::vector<std::pair<std::size_t, std::size_t>> retired;
  app.set_replica_retired_callback(
      [&](std::size_t tier, std::size_t slot) { retired.emplace_back(tier, slot); });
  app.start();
  sim.run_until(50.0);
  const std::size_t victim = app.scale_in(0);
  // Draining (or already retired, if the victim happened to be empty).
  const ReplicaSetStatus status = app.replica_status(0);
  EXPECT_EQ(status.target, 1u);
  sim.run_until(100.0);  // residue completes
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], (std::pair{std::size_t{0}, victim}));
  EXPECT_FALSE(app.replica_active(0, victim));
  EXPECT_EQ(app.replica_status(0).serving, 1u);
  // The app keeps running on the surviving replica.
  const auto before = app.completed_requests();
  sim.run_until(160.0);
  EXPECT_GT(app.completed_requests(), before);
}

TEST(Replication, ScaleInPrefersBootingVictim) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(8, 40, 1, /*boot_delay_s=*/60.0));
  app.start();
  sim.run_until(10.0);
  const std::size_t slot = app.scale_out(0);
  const std::size_t victim = app.scale_in(0);  // cancels the boot, immediately
  EXPECT_EQ(victim, slot);
  EXPECT_FALSE(app.replica_active(0, slot));
  const ReplicaSetStatus status = app.replica_status(0);
  EXPECT_EQ(status.target, 1u);
  EXPECT_EQ(status.booting, 0u);
  EXPECT_EQ(status.draining, 0u);
  sim.run_until(200.0);  // the cancelled boot event must never fire
  EXPECT_FALSE(app.replica_active(0, slot));
}

TEST(Replication, ScaleInBelowOneThrows) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(9, 10, 1));
  EXPECT_THROW(app.scale_in(0), std::logic_error);
}

TEST(Replication, ScaleOutBeyondMaxThrows) {
  sim::Simulation sim;
  AppConfig config = replicated_app(10, 10, 1);
  config.tiers[0].max_replicas = 2;
  MultiTierApp app(sim, config);
  app.scale_out(0);
  EXPECT_THROW(app.scale_out(0), std::logic_error);
}

TEST(Replication, RetiredSlotsReusedLowestFirst) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(11, 20, 1, /*boot_delay_s=*/0.0));
  app.start();
  sim.run_until(10.0);
  const std::size_t first = app.scale_out(0);
  EXPECT_EQ(first, 1u);
  app.scale_in(0);
  sim.run_until(60.0);  // drains, slot 1 frees
  ASSERT_FALSE(app.replica_active(0, 1));
  const std::size_t reused = app.scale_out(0);
  EXPECT_EQ(reused, 1u);  // lowest free slot, not a new one
  EXPECT_EQ(app.replica_slots(0), 2u);
}

TEST(Replication, SetReplicasDrivesTarget) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(12, 30, 1));
  app.start();
  sim.run_until(10.0);
  app.set_replicas(1, 3);
  EXPECT_EQ(app.replica_status(1).target, 3u);
  EXPECT_EQ(app.scale_out_count(), 2u);
  app.set_replicas(1, 1);
  EXPECT_EQ(app.replica_status(1).target, 1u);
  EXPECT_EQ(app.scale_in_count(), 2u);
}

TEST(Replication, RequestConservationAcrossChurn) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(13, 80, 2));
  app.start();
  // Alternate scale-out and scale-in under load; the per-replica job counts,
  // tier resident counters, and request table must stay consistent (the
  // VDC_CHECKS audits fire on every scaling event in checked builds).
  for (int round = 1; round <= 6; ++round) {
    sim.run_until(30.0 * round);
    if (round % 2 == 1) {
      app.scale_out(round % 2);
      app.scale_out(1 - round % 2);
    } else if (app.replica_status(0).target > 1) {
      app.scale_in(0);
      app.scale_in(1);
    }
  }
  // Quiesce: retire the client population and let residue drain.
  app.set_concurrency(0);
  sim.drain_until(2000.0);
  EXPECT_EQ(app.requests_in_flight(), 0u);
  EXPECT_EQ(app.issued_requests(), app.completed_requests());
  std::size_t outstanding = 0;
  for (std::size_t j = 0; j < app.tier_count(); ++j) {
    for (std::size_t r = 0; r < app.replica_slots(j); ++r) {
      outstanding += app.replica_outstanding(j, r);
    }
  }
  EXPECT_EQ(outstanding, 0u);
}

TEST(Replication, ScalingMachineryDoesNotPerturbSingleServingReplica) {
  // The equivalence contract: an app where a second replica boots and is
  // cancelled before ever serving completes the exact same requests at the
  // exact same times as one that never scaled. (The dispatcher only draws
  // from its tie-break RNG with >= 2 serving replicas, and the workload
  // stream is a separate RNG.)
  const auto run = [](bool churn) {
    sim::Simulation sim;
    MultiTierApp app(sim, replicated_app(14, 25, 1, /*boot_delay_s=*/50.0));
    std::vector<double> completions;
    app.set_response_callback([&](double t, double) { completions.push_back(t); });
    app.start();
    if (churn) {
      sim.run_until(40.0);
      app.scale_out(0);  // boots at t = 90
      app.scale_out(1);
      sim.run_until(60.0);
      app.scale_in(0);  // cancelled while still booting
      app.scale_in(1);
    }
    sim.run_until(300.0);
    return completions;
  };
  EXPECT_EQ(run(false), run(true));
}

// Requests in flight, summed over every replica slot of every tier: each
// in-flight request is resident in exactly one replica queue.
std::size_t resident_everywhere(const MultiTierApp& app) {
  std::size_t total = 0;
  for (std::size_t j = 0; j < app.tier_count(); ++j) {
    for (std::size_t r = 0; r < app.replica_slots(j); ++r) total += app.replica_outstanding(j, r);
  }
  return total;
}

TEST(Replication, RequestSlabConservesAcrossScaleOutDrainScaleInAndSlotReuse) {
  sim::Simulation sim;
  MultiTierApp app(sim, replicated_app(17, 60, 2));
  app.start();
  const auto check = [&](const char* when) {
    EXPECT_EQ(app.issued_requests(), app.completed_requests() + app.requests_in_flight())
        << when;
    EXPECT_EQ(resident_everywhere(app), app.requests_in_flight()) << when;
  };
  sim.run_until(20.0);
  check("warm");
  // Scale out to three replicas per tier.
  app.scale_out(0);
  app.scale_out(1);
  sim.run_until(40.0);
  check("scaled out");
  // Drain one replica per tier; check while the drain is in progress.
  const std::size_t victim0 = app.scale_in(0);
  const std::size_t victim1 = app.scale_in(1);
  sim.run_until(40.05);
  check("draining");
  sim.run_until(80.0);
  check("drained");
  EXPECT_EQ(app.replica_status(0).target, 2u);
  EXPECT_FALSE(app.replica_active(0, victim0));
  EXPECT_FALSE(app.replica_active(1, victim1));
  EXPECT_EQ(app.replica_outstanding(0, victim0), 0u);
  // Shrink the population (request slots go back to the free list), then
  // grow it past the old size (reused slots plus fresh ones), scaling out
  // into the retired replica slots meanwhile.
  app.set_concurrency(10);
  sim.run_until(120.0);
  check("shrunk");
  EXPECT_LE(app.requests_in_flight(), 10u);
  EXPECT_EQ(app.scale_out(0), victim0);
  EXPECT_EQ(app.scale_out(1), victim1);
  app.set_concurrency(90);
  sim.run_until(160.0);
  check("regrown");
  EXPECT_GT(app.replica_work_done_gcycles(0, victim0), 0.0);
  // Quiesce: every slot drains and the tables empty out.
  app.set_concurrency(0);
  sim.drain_until(3000.0);
  check("quiesced");
  EXPECT_EQ(app.requests_in_flight(), 0u);
  EXPECT_EQ(resident_everywhere(app), 0u);
  EXPECT_GT(app.completed_requests(), 1000u);
}

TEST(Replication, ThreeWayTiedDispatchSequenceIsPinned) {
  // Three serving replicas per tier with little work each, so most
  // dispatches break a 3-way tie through the seeded tie-break stream. The
  // resident counts at fixed times and each replica's exact work total pin
  // the whole dispatch sequence. The resident counts were recorded with the
  // dispatcher that collected tied slots into a vector and indexed it with
  // the same draw; the request count and work totals, which also depend on
  // the PS queues' completion times, with the virtual-time queue.
  sim::Simulation sim;
  AppConfig config = replicated_app(21, 30, 3);
  for (TierConfig& tier : config.tiers) tier.initial_allocation_ghz = 0.25;
  MultiTierApp app(sim, config);
  app.start();
  std::string trace;
  for (int k = 1; k <= 32; ++k) {
    sim.run_until(0.5 * k);
    for (std::size_t j = 0; j < 2; ++j) {
      for (std::size_t r = 0; r < 3; ++r) {
        trace += std::to_string(app.replica_outstanding(j, r));
        trace += r == 2 ? (j == 0 ? "/" : "") : ",";
      }
    }
    trace += k % 8 == 0 ? "\n" : " ";
  }
  EXPECT_EQ(trace,
            "0,0,0/1,1,1 0,0,1/1,1,1 0,1,0/1,1,1 1,0,0/0,0,0 0,0,0/1,0,0 0,0,0/1,1,1 "
            "0,0,0/1,0,0 2,0,0/1,0,1\n"
            "1,0,0/1,0,0 0,1,0/0,0,0 1,0,0/0,0,0 0,0,0/1,0,1 0,0,0/0,1,0 1,0,0/1,0,0 "
            "1,0,0/1,1,1 0,1,0/0,1,0\n"
            "0,0,0/1,1,0 0,1,0/1,0,0 2,0,1/0,1,0 1,0,0/0,1,1 0,1,1/0,1,0 0,0,0/1,1,0 "
            "1,0,0/2,1,0 0,0,0/0,0,0\n"
            "0,0,0/0,1,1 0,0,1/2,0,2 0,0,1/0,0,0 0,0,0/0,0,0 1,1,0/0,0,0 1,1,1/0,0,1 "
            "0,1,1/1,2,2 1,0,1/0,0,0\n");
  sim.run_until(200.0);
  EXPECT_EQ(app.completed_requests(), 5469u);
  const double work[2][3] = {{0x1.db4f99cacd3fap+3, 0x1.d303e70326592p+3, 0x1.d16722191ed94p+3},
                             {0x1.59933ddee8811p+4, 0x1.5eddbd89a0b5bp+4, 0x1.6169599b25157p+4}};
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(app.replica_work_done_gcycles(j, r), work[j][r]) << "tier " << j << " slot " << r;
    }
  }
}

}  // namespace
}  // namespace vdc::app
