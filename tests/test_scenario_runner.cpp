#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/app_stack.hpp"
#include "core/response_time_controller.hpp"
#include "core/sysid_experiment.hpp"
#include "sim/simulation.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/export.hpp"

namespace vdc::core {
namespace {

/// One cheap identification shared by every MPC spec in this file.
const control::ArxModel& shared_model() {
  static const SysIdExperimentResult identified = [] {
    SysIdExperimentConfig sysid;
    sysid.periods = 120;
    return identify_app_model(app::default_two_tier_app("staging", 1001, 40),
                              sysid);
  }();
  return identified.model;
}

/// A short (40-period) MPC-controlled standalone scenario.
ScenarioSpec mpc_spec(const char* name, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.stack.app = app::default_two_tier_app("a", 1, 40);
  spec.model = shared_model();
  spec.seed = seed;
  spec.duration_s = 160.0;
  return spec;
}

ScenarioSpec static_spec(const char* name, std::uint64_t seed, double alloc) {
  ScenarioSpec spec;
  spec.name = name;
  spec.stack.app = app::default_two_tier_app("s", 1, 40);
  spec.policy = [alloc](const std::optional<app::PeriodStats>&) {
    return std::vector<double>(2, alloc);
  };
  spec.seed = seed;
  spec.duration_s = 160.0;
  return spec;
}

TEST(ScenarioRunner, RecordsOneSamplePerControlPeriod) {
  const ScenarioResult run = ScenarioRunner().run(mpc_spec("solo", 5));
  EXPECT_EQ(run.name, "solo");
  EXPECT_EQ(run.app_count, 1u);
  EXPECT_EQ(run.response_series(0).size(), 40u);  // 160 s / 4 s
  EXPECT_EQ(run.allocation_series(0).size(), 40u);
  EXPECT_EQ(run.allocation_series(0)[0].size(), 2u);
}

TEST(ScenarioRunner, ParallelMatchesSerialBitExactly) {
  std::vector<ScenarioSpec> specs;
  specs.push_back(mpc_spec("a", 11));
  specs.push_back(mpc_spec("b", 22));
  specs.push_back(static_spec("c", 33, 0.5));
  specs.push_back(mpc_spec("d", 44));

  const std::vector<ScenarioResult> serial = ScenarioRunner(1).run_all(specs);
  const std::vector<ScenarioResult> parallel4 = ScenarioRunner(4).run_all(specs);
  const std::vector<ScenarioResult> parallel2 = ScenarioRunner(2).run_all(specs);

  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel4.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].name, specs[i].name);      // spec order preserved
    EXPECT_EQ(parallel4[i].name, specs[i].name);
    EXPECT_TRUE(serial[i].recorder == parallel4[i].recorder) << specs[i].name;
    EXPECT_TRUE(serial[i].recorder == parallel2[i].recorder) << specs[i].name;
  }
}

TEST(ScenarioRunner, RepeatedRunsAreDeterministic) {
  const ScenarioSpec spec = mpc_spec("repeat", 7);
  const ScenarioResult first = ScenarioRunner().run(spec);
  const ScenarioResult second = ScenarioRunner().run(spec);
  EXPECT_TRUE(first.recorder == second.recorder);
}

// A row holding a NaN, appended after the run to two identical results, is
// rejected like a NaN sample: the determinism check still sees the two
// recorders, and each recorder and its copy, as equal.
TEST(ScenarioRunner, DeterminismCheckSurvivesANaNRow) {
  const ScenarioSpec spec = mpc_spec("nan-row", 7);
  ScenarioResult first = ScenarioRunner().run(spec);
  ScenarioResult second = ScenarioRunner().run(spec);
  const std::string allocation = allocation_series_name(0);
  const std::size_t rows = first.recorder.size(allocation);
  const std::vector<double> row{0.5, std::numeric_limits<double>::quiet_NaN()};
  first.recorder.append(allocation, row);
  second.recorder.append(allocation, row);
  EXPECT_EQ(first.recorder.size(allocation), rows);
  EXPECT_TRUE(first.recorder == second.recorder);
  const telemetry::Recorder copy = first.recorder;
  EXPECT_TRUE(copy == first.recorder);
}

TEST(ScenarioRunner, SeedOverrideChangesTheRun) {
  const ScenarioResult a = ScenarioRunner().run(mpc_spec("x", 100));
  const ScenarioResult b = ScenarioRunner().run(mpc_spec("x", 200));
  EXPECT_FALSE(a.recorder == b.recorder);
}

TEST(ScenarioRunner, ConcurrencyScheduleFiresDuringTheRun) {
  ScenarioSpec calm = static_spec("calm", 9, 0.5);
  ScenarioSpec surged = static_spec("surged", 9, 0.5);
  surged.concurrency_schedule = {{.time_s = 80.0, .app = 0, .concurrency = 80}};
  const ScenarioResult a = ScenarioRunner().run(calm);
  const ScenarioResult b = ScenarioRunner().run(surged);
  // Identical until the event fires, different after it.
  EXPECT_EQ(a.response_series(0)[10], b.response_series(0)[10]);  // t = 44 s
  const util::RunningStats calm_tail = a.response_stats_after(0, 100.0);
  const util::RunningStats surge_tail = b.response_stats_after(0, 100.0);
  EXPECT_GT(surge_tail.mean(), calm_tail.mean());
}

TEST(ScenarioRunner, TestbedEngineRunsAndExposesClusterSeries) {
  ScenarioSpec spec;
  spec.name = "cluster";
  spec.engine = ScenarioSpec::Engine::kTestbed;
  spec.testbed.num_apps = 2;
  spec.testbed.num_servers = 2;
  spec.testbed.model = shared_model();  // skip the sysid experiment
  spec.duration_s = 80.0;
  spec.seed = 3;

  const ScenarioResult serial = ScenarioRunner(1).run(spec);
  EXPECT_EQ(serial.app_count, 2u);
  EXPECT_DOUBLE_EQ(serial.model_r_squared, 1.0);
  EXPECT_EQ(serial.response_series(1).size(), 20u);
  EXPECT_FALSE(serial.power_series().empty());

  const std::vector<ScenarioSpec> specs{spec, spec};
  const std::vector<ScenarioResult> parallel = ScenarioRunner(2).run_all(specs);
  EXPECT_TRUE(parallel[0].recorder == serial.recorder);
  EXPECT_TRUE(parallel[1].recorder == serial.recorder);
}

TEST(ScenarioRunner, TestbedEngineKeepsItsTelemetryConfig) {
  // A retention budget on the Testbed's own telemetry config bounds what
  // the scenario's recorder retains: 20 control periods into 2 pages of 4.
  ScenarioSpec spec;
  spec.name = "bounded";
  spec.engine = ScenarioSpec::Engine::kTestbed;
  spec.testbed.num_apps = 2;
  spec.testbed.num_servers = 2;
  spec.testbed.model = shared_model();
  spec.testbed.telemetry.page_samples = 4;
  spec.testbed.telemetry.max_pages = 2;
  spec.duration_s = 80.0;
  spec.seed = 3;

  const ScenarioResult run = ScenarioRunner(1).run(spec);
  EXPECT_EQ(run.recorder.config().page_samples, 4u);
  EXPECT_EQ(run.recorder.config().max_pages, 2u);
  EXPECT_GT(run.power_series().size(), 0u);
  EXPECT_LE(run.power_series().size(), 8u);
}

TEST(ScenarioRunner, ChaosTelemetryIsByteIdenticalAcrossRerunsAndThreadCounts) {
  // The determinism regression demanded by the fault subsystem: one seeded
  // chaos spec => the exported CSV (series AND annotations) is the same
  // byte string on every rerun and on every worker-thread count.
  ScenarioSpec spec;
  spec.name = "chaos";
  spec.engine = ScenarioSpec::Engine::kTestbed;
  spec.testbed.num_apps = 2;
  spec.testbed.num_servers = 3;
  spec.testbed.enable_optimizer = true;
  spec.testbed.optimizer_period_s = 80.0;
  spec.testbed.model = shared_model();
  spec.duration_s = 400.0;
  spec.seed = 3;
  spec.faults.migration_aborts(0.0, 200.0, 0.5)
      .sensor_dropout(50.0, 150.0, 0.3)
      .sensor_stale(200.0, 250.0, 0)
      .server_crash(1, 260.0, 320.0);

  const ScenarioResult serial = ScenarioRunner(1).run(spec);
  const std::string csv = telemetry::to_csv(serial.recorder);
  const std::string annotations = telemetry::annotations_csv(serial.recorder);
  EXPECT_GT(serial.faults.total(), 0u);
  EXPECT_FALSE(annotations.empty());

  const ScenarioResult rerun = ScenarioRunner(1).run(spec);
  EXPECT_EQ(telemetry::to_csv(rerun.recorder), csv);
  EXPECT_EQ(telemetry::annotations_csv(rerun.recorder), annotations);

  const std::vector<ScenarioSpec> specs{spec, spec, spec};
  for (const std::size_t threads : {std::size_t{2}, std::size_t{3}}) {
    const std::vector<ScenarioResult> parallel = ScenarioRunner(threads).run_all(specs);
    for (const ScenarioResult& r : parallel) {
      EXPECT_EQ(telemetry::to_csv(r.recorder), csv) << threads << " threads";
      EXPECT_EQ(telemetry::annotations_csv(r.recorder), annotations)
          << threads << " threads";
      EXPECT_EQ(r.faults.total(), serial.faults.total());
      EXPECT_EQ(r.stale_holds, serial.stale_holds);
    }
  }
}

TEST(ScenarioRunner, StackOnACopiedControllerMatchesTheScenarioRun) {
  // ScenarioRunner builds each scenario's controller from its model; the
  // Testbed instead copies one controller into every app so that they share
  // the factored QP. Both constructions must drive the plant identically.
  const ScenarioSpec spec = mpc_spec("copied", 9);
  const ScenarioResult run = ScenarioRunner().run(spec);

  AppStackConfig stack = spec.stack;
  stack.app.seed = spec.seed;
  telemetry::Recorder recorder(
      telemetry::RecorderConfig{.sample_period_s = stack.mpc.period_s});
  const ResponseTimeController prototype(
      *spec.model, stack.mpc,
      std::vector<double>(stack.app.tiers.size(), stack.initial_allocation_ghz), stack.robust);
  sim::Simulation sim;
  AppStack copied(sim, prototype, stack);
  copied.bind_recorder(&recorder, 0);
  copied.start_control_loop();
  sim.drain_until(spec.duration_s);

  EXPECT_EQ(&copied.controller()->mpc().problem(), &prototype.mpc().problem());
  EXPECT_EQ(recorder.rows(allocation_series_name(0)).size(), 40u);
  EXPECT_TRUE(recorder == run.recorder);
}

TEST(ScenarioRunner, CopiedControllerMustMatchTheTierCount) {
  const ScenarioSpec spec = mpc_spec("narrow", 9);  // two tiers
  control::ArxModel siso;
  siso.na = 1;
  siso.nb = 1;
  siso.nu = 1;
  siso.a = {0.5};
  siso.b = linalg::Matrix(1, 1, -1.0);
  const ResponseTimeController one_input(siso, spec.stack.mpc, std::vector<double>{0.6});
  sim::Simulation sim;
  EXPECT_THROW(AppStack(sim, one_input, spec.stack), std::invalid_argument);
}

TEST(ScenarioRunner, RunAllRethrowsAFailingSpec) {
  std::vector<ScenarioSpec> specs;
  specs.push_back(static_spec("ok-a", 1, 0.5));
  specs.push_back(static_spec("zero", 2, 0.5));
  specs.back().duration_s = 0.0;  // rejected by run()
  specs.push_back(static_spec("ok-b", 3, 0.5));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_THROW((void)ScenarioRunner(threads).run_all(specs), std::invalid_argument)
        << threads << " threads";
  }
}

// response_stats_after on both result surfaces: a Testbed after 10 control
// periods of 4 s, and a ScenarioResult.
struct StatsRuns {
  StatsRuns()
      : testbed([] {
          TestbedConfig config;
          config.num_apps = 1;
          config.num_servers = 1;
          config.model = shared_model();
          return config;
        }()),
        scenario(ScenarioRunner().run(static_spec("stats", 5, 0.5))) {
    testbed.run_until(40.0);
  }
  Testbed testbed;
  ScenarioResult scenario;
};

StatsRuns& stats_runs() {
  static StatsRuns runs;
  return runs;
}

void expect_rejected(double from_s) {
  StatsRuns& runs = stats_runs();
  EXPECT_THROW((void)runs.testbed.response_stats_after(0, from_s), std::invalid_argument);
  EXPECT_THROW((void)runs.scenario.response_stats_after(0, from_s), std::invalid_argument);
}

TEST(ResponseStatsAfter, RejectsANegativeStart) {
  expect_rejected(-4.0);  // one period before the start
  expect_rejected(-0.5);
}

TEST(ResponseStatsAfter, RejectsANaNStart) {
  expect_rejected(std::numeric_limits<double>::quiet_NaN());
}

TEST(ResponseStatsAfter, RejectsAnInfiniteStart) {
  expect_rejected(std::numeric_limits<double>::infinity());
  expect_rejected(-std::numeric_limits<double>::infinity());
}

TEST(ResponseStatsAfter, SkipsWholePeriodsAndNothingPastTheRun) {
  StatsRuns& runs = stats_runs();
  EXPECT_EQ(runs.testbed.response_series(0).size(), 10u);
  EXPECT_EQ(runs.testbed.response_stats_after(0, 0.0).count(), 10u);
  EXPECT_EQ(runs.testbed.response_stats_after(0, 7.9).count(), 9u);
  EXPECT_EQ(runs.testbed.response_stats_after(0, 1e300).count(), 0u);
  EXPECT_EQ(runs.scenario.response_stats_after(0, 8.0).count(),
            runs.scenario.response_series(0).size() - 2);
  EXPECT_EQ(runs.scenario.response_stats_after(0, 1e300).count(), 0u);
}

}  // namespace
}  // namespace vdc::core
