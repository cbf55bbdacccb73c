// End-to-end chaos tests: a fault window opens mid-run, the two-level
// controller degrades *gracefully* (stale-hold MPC, migration backoff,
// crash re-planning), and once the window clears the SLO is re-attained —
// all under the full auditor wall (any VDC_ASSERT/VDC_INVARIANT firing
// fails the test). Every scenario is deterministic: same spec, same faults,
// bit-identical telemetry on every rerun.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/scenario.hpp"
#include "core/sysid_experiment.hpp"
#include "fault/plan.hpp"
#include "telemetry/export.hpp"

namespace vdc::core {
namespace {

/// One cheap identification shared by every spec in this file.
const control::ArxModel& shared_model() {
  static const SysIdExperimentResult identified = [] {
    SysIdExperimentConfig sysid;
    sysid.periods = 120;
    return identify_app_model(app::default_two_tier_app("staging", 1001, 40), sysid);
  }();
  return identified.model;
}

ScenarioSpec standalone_spec(const char* name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.stack.app = app::default_two_tier_app("a", 1, 40);
  spec.model = shared_model();
  spec.seed = 7;
  spec.duration_s = 800.0;
  return spec;
}

ScenarioSpec testbed_spec(const char* name, std::size_t apps, std::size_t servers) {
  ScenarioSpec spec;
  spec.name = name;
  spec.engine = ScenarioSpec::Engine::kTestbed;
  spec.testbed.num_apps = apps;
  spec.testbed.num_servers = servers;
  spec.model = shared_model();
  spec.seed = 7;
  spec.duration_s = 800.0;
  return spec;
}

// ---- sensor faults: the MPC degrades and recovers ---------------------------

TEST(ChaosScenarios, SensorDropoutDegradesThenSloIsReattained) {
  ScenarioSpec spec = standalone_spec("dropout");
  spec.faults.sensor_dropout(200.0, 400.0, 0.9);
  const ScenarioResult run = ScenarioRunner().run(spec);

  EXPECT_GT(run.faults.sensor_drops, 0u);
  // After the window clears the controller re-converges onto the SLA.
  const util::RunningStats late = run.response_stats_after(0, 600.0);
  EXPECT_NEAR(late.mean(), spec.stack.mpc.setpoint, 0.3);
}

TEST(ChaosScenarios, StaleSensorTriggersMpcHoldAndRecovery) {
  ScenarioSpec spec = standalone_spec("stale");
  spec.faults.sensor_stale(200.0, 300.0);
  const ScenarioResult run = ScenarioRunner().run(spec);

  // Every control period inside [200, 300) held: 100 s / 4 s = 25 periods.
  EXPECT_EQ(run.stale_holds, 25u);
  // Holds mean frozen allocations: the decided demand must not move while
  // the pipeline is wedged. The tick at time t records series index
  // t/4 - 1, so the stale ticks at t = 200..296 are indices 49..73 and
  // must all equal the last fresh decision at index 48 (t = 196).
  const auto& allocs = run.allocation_series(0);
  const std::size_t last_fresh = 200 / 4 - 2;
  for (std::size_t k = last_fresh + 1; k <= last_fresh + 25; ++k) {
    EXPECT_TRUE(std::ranges::equal(allocs[k], allocs[last_fresh]))
        << "allocation moved during hold, tick " << k;
  }
  // And it recovers: post-window response returns to the set point.
  EXPECT_NEAR(run.response_stats_after(0, 600.0).mean(), spec.stack.mpc.setpoint, 0.3);
}

TEST(ChaosScenarios, SensorSpikesDoNotDestabilizeTheController) {
  ScenarioSpec spec = standalone_spec("spikes");
  spec.faults.sensor_spikes(200.0, 400.0, 10.0, 0.2);
  const ScenarioResult run = ScenarioRunner().run(spec);

  EXPECT_GT(run.faults.sensor_spikes, 0u);
  EXPECT_NEAR(run.response_stats_after(0, 600.0).mean(), spec.stack.mpc.setpoint, 0.3);
  // The corrupted measurements are *measurements*, not reality: the p90
  // the monitor reported during the window includes the spikes, but the
  // allocations stay inside the MPC's actuator bounds throughout.
  for (const std::span<const double> a : run.allocation_series(0)) {
    for (const double ghz : a) {
      EXPECT_GE(ghz, 0.0);
      EXPECT_LE(ghz, spec.stack.mpc.c_max[0] + 1e-9);
    }
  }
}

// ---- datacenter faults: optimizer robustness --------------------------------

TEST(ChaosScenarios, MigrationAbortsAreRetriedAfterBackoff) {
  ScenarioSpec spec = testbed_spec("aborts", 3, 6);
  spec.testbed.enable_optimizer = true;
  spec.testbed.optimizer_period_s = 120.0;
  spec.testbed.optimizer_migration_backoff_s = 150.0;
  spec.duration_s = 900.0;
  // Every migration attempted before t = 300 rolls back at end-of-copy.
  spec.faults.migration_aborts(0.0, 300.0, 1.0);
  const ScenarioResult run = ScenarioRunner().run(spec);

  EXPECT_GT(run.failed_migrations, 0u);
  EXPECT_GT(run.faults.migration_aborts, 0u);
  // Once the window clears, the retried migrations land and consolidation
  // still happens: fewer active servers than the scattered start.
  EXPECT_GT(run.completed_migrations, 0u);
  const auto& active = run.recorder.values(kActiveServersSeries);
  ASSERT_FALSE(active.empty());
  EXPECT_LT(active.back(), 6.0);
  // SLOs survived the chaos (skip settling + the churn window).
  for (std::size_t i = 0; i < run.app_count; ++i) {
    EXPECT_NEAR(run.response_stats_after(i, 500.0).mean(), 1.0, 0.35) << "app " << i;
  }
}

TEST(ChaosScenarios, MigrationSlowdownDelaysButDoesNotPreventConsolidation) {
  ScenarioSpec spec = testbed_spec("slow", 3, 6);
  spec.testbed.enable_optimizer = true;
  spec.testbed.optimizer_period_s = 120.0;
  spec.duration_s = 900.0;
  spec.faults.migration_slowdown(0.0, 900.0, 5.0);
  const ScenarioResult run = ScenarioRunner().run(spec);

  EXPECT_GT(run.faults.migration_slowdowns, 0u);
  EXPECT_GT(run.completed_migrations, 0u);
  const auto& active = run.recorder.values(kActiveServersSeries);
  EXPECT_LT(active.back(), 6.0);
}

TEST(ChaosScenarios, ServerCrashEvictsRestartsAndReattainsSlo) {
  ScenarioSpec spec = testbed_spec("crash", 3, 4);
  spec.testbed.enable_optimizer = true;
  spec.testbed.optimizer_period_s = 120.0;
  spec.duration_s = 900.0;
  // Server 0 hosts app0-web and app2-web at t=0; it dies at t=60, before
  // the first optimizer pass (t=120) gets a chance to empty it, so the
  // crash is guaranteed to evict running VMs.
  spec.faults.server_crash(0, 60.0, 300.0);
  const ScenarioResult run = ScenarioRunner().run(spec);

  EXPECT_EQ(run.faults.server_crashes, 1u);
  // The evicted VMs were re-placed: restarts happened, nobody is homeless
  // at the end, and the controllers re-attained the SLA.
  EXPECT_GT(run.vm_restarts, 0u);
  for (std::size_t i = 0; i < run.app_count; ++i) {
    EXPECT_NEAR(run.response_stats_after(i, 650.0).mean(), 1.0, 0.35) << "app " << i;
  }
  // The crash and the recovery actions are visible in the annotations.
  bool saw_crash = false;
  bool saw_restart = false;
  bool saw_repair = false;
  for (const telemetry::Annotation& a : run.recorder.annotations()) {
    saw_crash |= a.label.find("server-crash srv0") != std::string::npos;
    saw_restart |= a.label.find("vm-restart") != std::string::npos;
    saw_repair |= a.label.find("server-repair srv0") != std::string::npos;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_restart);
  EXPECT_TRUE(saw_repair);
}

TEST(ChaosScenarios, RackFailureEvictsWholeRackAndReplacesOffRack) {
  // 1 pod of 3 racks x 2 servers; rack 0 (servers 0-1) loses its PDU at
  // t=60 — before the first optimizer pass (t=120) could have emptied it —
  // and comes back at t=300. Both members crash together, so every VM the
  // rack hosted must be restarted on another rack's servers.
  TestbedConfig config;
  config.num_apps = 3;
  config.num_servers = 6;
  config.model = shared_model();
  config.seed = 7;
  config.enable_optimizer = true;
  config.optimizer_period_s = 120.0;
  config.topology = datacenter::Topology::uniform(1, 3, 2, 40.0);
  config.faults.rack_failure(0, 60.0, 300.0);
  Testbed bed(config);

  // Mid-window: the whole rack is dark, hosts nothing, and the evicted VMs
  // were re-placed onto the surviving racks (nobody is homeless).
  bed.run_until(200.0);
  const datacenter::Cluster& cluster = bed.cluster();
  for (const datacenter::ServerId s : cluster.topology().servers_in(0)) {
    EXPECT_TRUE(cluster.server(s).failed()) << "srv" << s;
    EXPECT_TRUE(cluster.vms_on(s).empty()) << "srv" << s;
  }
  EXPECT_GT(bed.vm_restarts(), 0u);
  EXPECT_TRUE(cluster.unplaced_vms().empty());

  bed.run_until(900.0);
  // One correlated failure injected, both member crashes visible through
  // the same counterset the per-server path uses.
  EXPECT_EQ(bed.fault_injector().counters().rack_failures, 1u);
  for (const datacenter::ServerId s : cluster.topology().servers_in(0)) {
    EXPECT_FALSE(cluster.server(s).failed()) << "srv" << s << " not repaired";
  }
  // SLOs re-attained once the dust settles.
  for (std::size_t i = 0; i < bed.app_count(); ++i) {
    EXPECT_NEAR(bed.response_stats_after(i, 650.0).mean(), 1.0, 0.35) << "app " << i;
  }
  // The failure and the repair are visible in the annotations.
  bool saw_failure = false;
  bool saw_repair = false;
  bool saw_restart = false;
  for (const telemetry::Annotation& a : bed.recorder().annotations()) {
    saw_failure |= a.label.find("rack-failure rack0") != std::string::npos;
    saw_repair |= a.label.find("rack-repair rack0") != std::string::npos;
    saw_restart |= a.label.find("vm-restart") != std::string::npos;
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_repair);
  EXPECT_TRUE(saw_restart);
}

TEST(ChaosScenarios, DvfsPinIsAbsorbedByTheGrantRescale) {
  ScenarioSpec spec = testbed_spec("pin", 2, 2);
  // DVFS off => servers nominally run at their max frequency (2 GHz), so a
  // pin at the 1 GHz floor is a visible actuator fault. (With DVFS on the
  // arbitrator already sits at the floor under light load and a low pin
  // would be indistinguishable from normal operation.)
  spec.testbed.dvfs = false;
  spec.faults.dvfs_pin(0, 1.0, 200.0, 400.0);
  const ScenarioResult run = ScenarioRunner().run(spec);

  EXPECT_GT(run.faults.dvfs_pins, 0u);
  // Pinned at the low step, mean cluster frequency dips during the window.
  const auto& freq = run.recorder.values(kFrequencySeries);
  ASSERT_GT(freq.size(), 110u);
  double during = 0.0;
  double after = 0.0;
  for (std::size_t k = 55; k < 95; ++k) during += freq[k];   // t in (220, 380)
  for (std::size_t k = freq.size() - 40; k < freq.size(); ++k) after += freq[k];
  EXPECT_LT(during / 40.0, after / 40.0);
  // And the controllers recover once the actuator unsticks.
  for (std::size_t i = 0; i < run.app_count; ++i) {
    EXPECT_NEAR(run.response_stats_after(i, 600.0).mean(), 1.0, 0.35) << "app " << i;
  }
}

// ---- everything at once -----------------------------------------------------

TEST(ChaosScenarios, ChaosSoupRunsToCompletionDeterministically) {
  const auto soup = [] {
    ScenarioSpec spec = testbed_spec("soup", 3, 5);
    spec.testbed.enable_optimizer = true;
    spec.testbed.optimizer_period_s = 120.0;
    spec.testbed.optimizer_migration_backoff_s = 150.0;
    spec.duration_s = 900.0;
    spec.faults.migration_aborts(0.0, 400.0, 0.5)
        .migration_slowdown(0.0, 900.0, 2.0, 0.5)
        .wake_failures(0.0, 900.0, 0.5)
        .server_crash(1, 300.0, 500.0)
        .sensor_dropout(100.0, 300.0, 0.3)
        .sensor_spikes(400.0, 600.0, 5.0, 0.1)
        .sensor_stale(600.0, 650.0, 0)
        .dvfs_pin(2, 1.0, 200.0, 400.0);
    return spec;
  };
  const ScenarioResult a = ScenarioRunner().run(soup());
  const ScenarioResult b = ScenarioRunner().run(soup());

  EXPECT_GT(a.faults.total(), 0u);
  EXPECT_EQ(a.faults.server_crashes, 1u);
  EXPECT_GT(a.stale_holds, 0u);
  // Deterministic chaos: the rerun produced the identical world — every
  // recorded series, every annotation, every counter.
  EXPECT_EQ(a.recorder, b.recorder);
  EXPECT_EQ(telemetry::to_csv(a.recorder), telemetry::to_csv(b.recorder));
  EXPECT_EQ(telemetry::annotations_csv(a.recorder), telemetry::annotations_csv(b.recorder));
  EXPECT_EQ(a.faults.total(), b.faults.total());
  EXPECT_EQ(a.failed_migrations, b.failed_migrations);
  EXPECT_EQ(a.vm_restarts, b.vm_restarts);
  EXPECT_EQ(a.stale_holds, b.stale_holds);
}

TEST(ChaosScenarios, EmptyFaultPlanLeavesTestbedRunByteIdentical) {
  // The hooks must be invisible when idle: a spec with no fault windows
  // produces the same telemetry as one that never mentions faults.
  ScenarioSpec plain = testbed_spec("plain", 2, 2);
  plain.duration_s = 400.0;
  ScenarioSpec wired = plain;
  wired.faults = fault::FaultPlan{};  // explicit empty plan

  const ScenarioResult a = ScenarioRunner().run(plain);
  const ScenarioResult b = ScenarioRunner().run(wired);
  EXPECT_EQ(a.recorder, b.recorder);
  EXPECT_TRUE(a.recorder.annotations().empty());
  EXPECT_EQ(a.faults.total(), 0u);
}

}  // namespace
}  // namespace vdc::core
