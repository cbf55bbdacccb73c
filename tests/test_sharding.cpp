// Sharded-engine equivalence suite (the differential oracle of the
// sharding work).
//
// The sharded engine partitions the applications into N shards, each with
// its own event loop, telemetry recorder, and sensor-fault stream, advanced
// concurrently between control-period barriers. The contract is strict
// determinism: a run at ANY shard count and ANY thread count must be
// bit-identical to one shard advanced on one thread (shards = 1,
// threads = 1) — same telemetry bytes, same consolidation decisions, same
// fault counters. The committed tests/golden/testbed.csv pins that
// reference itself (test_flat_golden).
// These tests enforce that contract over the healthy optimizer path, a
// chaos plan touching every shard-relevant fault family, and horizontal
// replication (whose retire callbacks cross the shard boundary).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/sysid_experiment.hpp"
#include "fault/plan.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulation.hpp"
#include "telemetry/export.hpp"

namespace vdc {
namespace {

// ---- ShardedEngine unit behavior --------------------------------------------

TEST(ShardedEngine, RejectsZeroShards) {
  EXPECT_THROW(sim::ShardedEngine(0, 1), std::invalid_argument);
}

TEST(ShardedEngine, RunUntilRejectsNonFiniteTime) {
  sim::ShardedEngine engine(2, 1);
  int ticks = 0;
  // A self-rescheduling spine event, like the Testbed's control tick.
  std::function<void()> tick = [&] {
    ++ticks;
    engine.spine().schedule_after(1.0, [&] { tick(); });
  };
  engine.spine().schedule(1.0, [&] { tick(); });
  EXPECT_THROW(engine.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(engine.run_until(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(ticks, 0);
  engine.run_until(3.0);
  EXPECT_EQ(ticks, 3);
}

TEST(ShardedEngine, ShardsAreDistinctLoops) {
  sim::ShardedEngine engine(3, 1);
  EXPECT_EQ(engine.shard_count(), 3u);
  EXPECT_NE(&engine.shard(0), &engine.spine());
  EXPECT_NE(&engine.shard(0), &engine.shard(1));
  EXPECT_NE(&engine.shard(1), &engine.shard(2));
}

TEST(ShardedEngine, BarrierOrderRunsShardEventsBeforeSpineAtEqualTime) {
  // The tie-break policy: at a barrier time T, every shard is advanced
  // through T before the spine executes its own events at T. A spine event
  // at T must therefore observe the effects of shard events at T.
  sim::ShardedEngine engine(2, 1);
  std::vector<int> order;
  engine.shard(0).schedule(10.0, [&] { order.push_back(0); });
  engine.shard(1).schedule(10.0, [&] { order.push_back(1); });
  engine.spine().schedule(10.0, [&] { order.push_back(2); });
  engine.run_until(20.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GE(engine.barriers(), 1u);
}

TEST(ShardedEngine, SpineEventsChainAcrossBarriers) {
  // A spine event that schedules a follow-up spawns a new barrier; shard
  // work in between must be drained up to each barrier time in turn.
  sim::ShardedEngine engine(2, 1);
  std::vector<double> shard_times;
  for (double t = 1.0; t < 10.0; t += 1.0) {
    engine.shard(0).schedule(t, [&, t] { shard_times.push_back(t); });
  }
  int ticks = 0;
  std::function<void()> tick = [&] {
    // Every shard event at or before this barrier has already run.
    EXPECT_EQ(shard_times.size(), static_cast<std::size_t>(ticks) * 3 + 3);
    ++ticks;
    if (ticks < 3) engine.spine().schedule_after(3.0, tick);
  };
  engine.spine().schedule(3.0, tick);
  engine.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(shard_times.size(), 9u);
  EXPECT_EQ(engine.barriers(), 3u);
}

TEST(ShardedEngine, CountersAggregateAcrossLoops) {
  sim::ShardedEngine engine(2, 1);
  engine.shard(0).schedule(1.0, [] {});
  engine.shard(1).schedule(2.0, [] {});
  engine.spine().schedule(3.0, [] {});
  EXPECT_EQ(engine.pending_events(), 3u);
  engine.run_until(5.0);
  EXPECT_EQ(engine.events_executed(), 3u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(ShardedEngine, NextEventTimeSkipsCancelledEntries) {
  sim::Simulation sim;
  const sim::EventId early = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), 1.0);
  sim.cancel(early);
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), 2.0);
  sim.run_until(3.0);
  EXPECT_FALSE(sim.next_event_time().has_value());
}

// ---- Testbed equivalence: any layout == one shard on one thread ------------
// ("Legacy" in the test names below is that one-shard, one-thread reference.)

/// One identification run shared by every scenario below (the controllers
/// are instances of the same benchmark app, as on the paper's testbed).
const control::ArxModel& shared_model() {
  static const core::SysIdExperimentResult identified = [] {
    core::SysIdExperimentConfig sysid;
    sysid.periods = 120;
    return core::identify_app_model(app::default_two_tier_app("shard", 2001, 40), sysid);
  }();
  return identified.model;
}

core::ScenarioSpec base_spec() {
  core::ScenarioSpec spec;
  spec.name = "shard-equivalence";
  spec.engine = core::ScenarioSpec::Engine::kTestbed;
  spec.testbed.num_apps = 4;
  spec.testbed.num_servers = 3;
  spec.testbed.enable_optimizer = true;
  spec.testbed.optimizer_period_s = 120.0;
  spec.model = shared_model();
  spec.seed = 7;
  spec.duration_s = 400.0;
  return spec;
}

struct RunDigest {
  std::string csv;
  std::size_t migrations = 0;
  std::size_t optimizer_invocations = 0;
  std::size_t failed_migrations = 0;
  std::uint64_t scale_outs = 0;
  std::uint64_t scale_ins = 0;
  std::size_t fault_total = 0;
  core::ScenarioResult result;
};

RunDigest run_with(core::ScenarioSpec spec, std::size_t shards, std::size_t threads) {
  spec.testbed.shards = shards;
  spec.testbed.shard_threads = threads;
  RunDigest digest;
  digest.result = core::ScenarioRunner().run(spec);
  digest.csv = telemetry::to_csv(digest.result.recorder);
  digest.migrations = digest.result.completed_migrations;
  digest.optimizer_invocations = digest.result.optimizer_invocations;
  digest.failed_migrations = digest.result.failed_migrations;
  digest.scale_outs = digest.result.scale_outs;
  digest.scale_ins = digest.result.scale_ins;
  digest.fault_total = digest.result.faults.total();
  return digest;
}

void expect_equivalent(const RunDigest& oracle, const RunDigest& sharded,
                       const std::string& label) {
  EXPECT_EQ(oracle.csv, sharded.csv) << label << ": telemetry CSV diverged";
  EXPECT_TRUE(oracle.result.recorder == sharded.result.recorder)
      << label << ": recorder contents diverged";
  EXPECT_EQ(oracle.migrations, sharded.migrations) << label;
  EXPECT_EQ(oracle.optimizer_invocations, sharded.optimizer_invocations) << label;
  EXPECT_EQ(oracle.failed_migrations, sharded.failed_migrations) << label;
  EXPECT_EQ(oracle.scale_outs, sharded.scale_outs) << label;
  EXPECT_EQ(oracle.scale_ins, sharded.scale_ins) << label;
  EXPECT_EQ(oracle.fault_total, sharded.fault_total) << label;
}

TEST(ShardingEquivalence, OptimizerRunMatchesLegacyAtEveryShardAndThreadCount) {
  const RunDigest oracle = run_with(base_spec(), 1, 1);
  ASSERT_FALSE(oracle.csv.empty());
  EXPECT_GT(oracle.optimizer_invocations, 0u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const RunDigest sharded = run_with(base_spec(), shards, threads);
      expect_equivalent(oracle, sharded,
                        "shards=" + std::to_string(shards) +
                            " threads=" + std::to_string(threads));
    }
  }
}

TEST(ShardingEquivalence, ChaosRunMatchesLegacyAcrossShardCounts) {
  // Every shard-relevant fault family at once: per-app sensor streams
  // (drop/spike/stale draw from splitmix64-derived per-app RNGs, so the
  // sequences cannot depend on the shard layout), plus spine-serial dc
  // faults (crash, DVFS pin, migration aborts) that must interleave with
  // the shard barriers exactly as with one shard.
  core::ScenarioSpec spec = base_spec();
  spec.name = "shard-chaos";
  spec.faults.seed = 99;
  spec.faults.sensor_dropout(40.0, 200.0, 0.2, 1);
  spec.faults.sensor_spikes(80.0, 240.0, 3.0, 0.15, 2);
  spec.faults.sensor_stale(120.0, 160.0, 0);
  spec.faults.server_crash(1, 150.0, 260.0);
  spec.faults.dvfs_pin(0, 1.2, 60.0, 300.0);
  spec.faults.migration_aborts(0.0, 400.0, 0.5);

  const RunDigest oracle = run_with(spec, 1, 1);
  EXPECT_GT(oracle.fault_total, 0u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const RunDigest sharded = run_with(spec, shards, 4);
    expect_equivalent(oracle, sharded, "chaos shards=" + std::to_string(shards));
    EXPECT_EQ(oracle.result.faults.sensor_drops, sharded.result.faults.sensor_drops);
    EXPECT_EQ(oracle.result.faults.sensor_spikes, sharded.result.faults.sensor_spikes);
    EXPECT_EQ(oracle.result.faults.stale_periods, sharded.result.faults.stale_periods);
    EXPECT_EQ(oracle.result.faults.server_crashes, sharded.result.faults.server_crashes);
    EXPECT_EQ(oracle.result.faults.dvfs_pins, sharded.result.faults.dvfs_pins);
  }
}

TEST(ShardingEquivalence, ReplicatedRunMatchesLegacy) {
  // initial_replicas > 1 activates the replica telemetry and the
  // cross-shard retire path (drained replicas tombstone their cluster VM
  // from inside the shard advance, under the testbed's retire mutex).
  core::ScenarioSpec spec = base_spec();
  spec.name = "shard-replication";
  spec.testbed.initial_replicas = 2;
  spec.testbed.supervisor.enabled = true;

  const RunDigest oracle = run_with(spec, 1, 1);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const RunDigest sharded = run_with(spec, shards, 4);
    expect_equivalent(oracle, sharded, "replication shards=" + std::to_string(shards));
  }
}

TEST(ShardingEquivalence, ScheduleEventsLandInTheSerialPhase) {
  // External setpoint/concurrency schedules go to the spine; at a shard
  // count that splits the apps they must still produce the oracle's bytes.
  core::ScenarioSpec spec = base_spec();
  spec.name = "shard-schedules";
  spec.setpoint_schedule.push_back({200.0, 1, 0.6});
  spec.concurrency_schedule.push_back({240.0, 3, 60});

  const RunDigest oracle = run_with(spec, 1, 1);
  const RunDigest sharded = run_with(spec, 3, 2);
  expect_equivalent(oracle, sharded, "schedules shards=3");
}

TEST(ShardingEquivalence, ShardCountAboveAppCountIsHarmless) {
  // More shards than apps leaves some shards empty; empty loops must not
  // disturb the barrier protocol or the recorder layout.
  const RunDigest oracle = run_with(base_spec(), 1, 1);
  const RunDigest sharded = run_with(base_spec(), 8, 2);
  expect_equivalent(oracle, sharded, "shards=8 apps=4");
}

}  // namespace
}  // namespace vdc
