#include "core/testbed.hpp"

#include <gtest/gtest.h>

#include "core/sysid_experiment.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace vdc::core {
namespace {

TestbedConfig fast_config() {
  TestbedConfig config;
  config.num_apps = 2;
  config.num_servers = 2;
  config.sysid.periods = 250;  // shorter identification for test speed
  return config;
}

TEST(Testbed, ValidatesConfiguration) {
  TestbedConfig config = fast_config();
  config.num_apps = 0;
  EXPECT_THROW(Testbed{config}, std::invalid_argument);
}

TEST(Testbed, RejectsNonPositiveOrNonFiniteOptimizerPeriod) {
  // A zero period would reschedule the optimizer tick at the same instant
  // forever; a negative one would schedule into the past mid-run.
  for (const double period : {0.0, -300.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    TestbedConfig config = fast_config();
    config.enable_optimizer = true;
    config.optimizer_period_s = period;
    EXPECT_THROW(Testbed{config}, std::invalid_argument) << "period " << period;
  }
}

TEST(Testbed, RejectsNonPositiveOrNonFiniteControlPeriod) {
  // A zero period would reschedule the control tick at the same instant
  // forever, so run_until would never return.
  for (const double period : {0.0, -4.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    TestbedConfig config = fast_config();
    config.control_period_s = period;
    EXPECT_THROW(Testbed{config}, std::invalid_argument) << "period " << period;
  }
}

TEST(Testbed, RejectsNonPositiveOrNonFiniteSetpoint) {
  for (const double setpoint : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()}) {
    TestbedConfig config = fast_config();
    config.setpoint_s = setpoint;
    EXPECT_THROW(Testbed{config}, std::invalid_argument) << "setpoint " << setpoint;
  }
}

TEST(Testbed, IdentifiedModelIsPlausible) {
  const Testbed tb{fast_config()};
  EXPECT_GT(tb.model_r_squared(), 0.4);
  const control::ArxModel& m = tb.identified_model();
  EXPECT_EQ(m.nu, 2u);
  // More CPU must lower the response time: negative DC gains.
  for (const double g : m.dc_gain()) EXPECT_LT(g, 0.0);
}

TEST(Testbed, ControlLoopConvergesNearSetpoint) {
  Testbed tb{fast_config()};
  tb.run_until(600.0);
  for (std::size_t i = 0; i < tb.app_count(); ++i) {
    const util::RunningStats s = tb.response_stats_after(i, 200.0);
    EXPECT_NEAR(s.mean(), 1.0, 0.25) << "app " << i;
  }
}

TEST(Testbed, SeriesAreRecordedPerControlPeriod) {
  Testbed tb{fast_config()};
  tb.run_until(100.0);
  // 100 s at 4 s periods: 25 ticks, power recorded from the 2nd onward.
  EXPECT_EQ(tb.response_series(0).size(), 25u);
  EXPECT_EQ(tb.allocation_series(0).size(), 25u);
  EXPECT_GE(tb.power_series().size(), 24u);
  for (const double p : tb.power_series()) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 400.0);  // two dual-2GHz servers peak below 2x180 W
  }
}

TEST(Testbed, SetpointChangeIsTracked) {
  Testbed tb{fast_config()};
  tb.set_setpoint(0, 0.7);
  tb.run_until(600.0);
  const util::RunningStats s = tb.response_stats_after(0, 250.0);
  EXPECT_NEAR(s.mean(), 0.7, 0.2);
}

TEST(Testbed, SurgeRaisesThenRecovers) {
  Testbed tb{fast_config()};
  tb.run_until(300.0);
  tb.set_concurrency(0, 80);
  tb.run_until(700.0);
  // Late in the surge the controller has recovered to the set point.
  const util::RunningStats late = tb.response_stats_after(0, 500.0);
  EXPECT_NEAR(late.mean(), 1.0, 0.35);
  // And the allocations for app 0 have grown to absorb the doubled load.
  const auto& allocs = tb.allocation_series(0);
  const double before = allocs[70][0] + allocs[70][1];   // t = 280 s
  const double during = allocs.back()[0] + allocs.back()[1];
  EXPECT_GT(during, before);
}

TEST(Testbed, DvfsReducesPowerVersusFixedFrequency) {
  TestbedConfig with = fast_config();
  TestbedConfig without = fast_config();
  without.dvfs = false;
  Testbed a{with};
  Testbed b{without};
  a.run_until(300.0);
  b.run_until(300.0);
  double pa = 0.0;
  for (const double p : a.power_series()) pa += p;
  pa /= static_cast<double>(a.power_series().size());
  double pb = 0.0;
  for (const double p : b.power_series()) pb += p;
  pb /= static_cast<double>(b.power_series().size());
  EXPECT_LT(pa, pb);
}

TEST(Testbed, TwoLevelModeConsolidatesWithLiveMigrations) {
  TestbedConfig config = fast_config();
  config.num_apps = 3;
  config.num_servers = 6;  // oversized: 6 tier VMs over 6 servers
  config.enable_optimizer = true;
  config.optimizer_period_s = 120.0;
  Testbed tb{config};
  tb.run_until(700.0);
  EXPECT_GT(tb.optimizer_invocations(), 0u);
  EXPECT_GT(tb.completed_migrations(), 0u);
  EXPECT_LT(tb.cluster().active_server_count(), 6u);
  // SLAs survive the consolidation (skip the settling + first migrations).
  for (std::size_t i = 0; i < tb.app_count(); ++i) {
    EXPECT_NEAR(tb.response_stats_after(i, 300.0).mean(), 1.0, 0.3) << "app " << i;
  }
  // Power drops versus the scattered start.
  const auto& power = tb.power_series();
  double early = 0.0;
  double late = 0.0;
  for (std::size_t k = 5; k < 25; ++k) early += power[k];
  for (std::size_t k = power.size() - 20; k < power.size(); ++k) late += power[k];
  EXPECT_LT(late, early);
}

TEST(Testbed, TwoLevelModeWithPMapperAlsoWorks) {
  TestbedConfig config = fast_config();
  config.num_apps = 2;
  config.num_servers = 4;
  config.enable_optimizer = true;
  config.optimizer_period_s = 120.0;
  config.optimizer_algorithm = ConsolidationAlgorithm::kPMapper;
  Testbed tb{config};
  tb.run_until(500.0);
  EXPECT_LE(tb.cluster().active_server_count(), 4u);
  EXPECT_EQ(tb.cluster().overloaded_servers().size(), 0u);
}

TEST(Testbed, OptimizerDisabledKeepsMappingStatic) {
  TestbedConfig config = fast_config();
  Testbed tb{config};
  tb.run_until(300.0);
  EXPECT_EQ(tb.completed_migrations(), 0u);
  EXPECT_EQ(tb.optimizer_invocations(), 0u);
  EXPECT_EQ(tb.cluster().migration_log().count(), 0u);
}

TEST(Testbed, ParallelControlPlaneIsBitIdenticalToSerial) {
  // The decide phase of a control tick may fan the per-app MPC solves onto
  // ThreadPool::shared(); a barrier precedes per-server arbitration and
  // each app writes only its own slot, so the results are required to be
  // bit-identical to the serial path — scheduling order must not leak into
  // the simulation.
  struct Series {
    std::vector<std::vector<double>> responses;
    std::vector<std::vector<std::vector<double>>> allocations;
    std::vector<double> power;
  };
  auto run = [](std::size_t min_apps) {
    TestbedConfig config = fast_config();
    config.num_apps = 4;
    config.num_servers = 4;
    config.parallel_control_min_apps = min_apps;  // 0 forces the pool
    Testbed tb{config};
    tb.run_until(300.0);
    Series out;
    for (std::size_t i = 0; i < tb.app_count(); ++i) {
      out.responses.push_back(tb.response_series(i));
      out.allocations.push_back(tb.allocation_series(i));
    }
    out.power = tb.power_series();
    return out;
  };
  const Series serial = run(SIZE_MAX);
  const Series parallel = run(0);
  ASSERT_EQ(serial.responses.size(), parallel.responses.size());
  for (std::size_t i = 0; i < serial.responses.size(); ++i) {
    EXPECT_EQ(serial.responses[i], parallel.responses[i]) << "app " << i;
    EXPECT_EQ(serial.allocations[i], parallel.allocations[i]) << "app " << i;
  }
  EXPECT_EQ(serial.power, parallel.power);
}

TEST(Testbed, AllControllersShareOneQpProblem) {
  // One controller is built from the shared model and MPC config and copied
  // into every app, so all of them point at one factored QP — also in the
  // robust variant, whose derated model and release limit are the same for
  // every app.
  TestbedConfig config = fast_config();
  config.num_apps = 3;
  std::optional<control::ArxModel> model;
  for (const bool robust : {false, true}) {
    if (robust) {
      config.model = model;
      config.robust = control::RobustConfig{};
    }
    Testbed tb{config};
    model = tb.identified_model();
    const control::MpcProblem& first = tb.app_stack(0).controller()->mpc().problem();
    for (std::size_t i = 1; i < tb.app_count(); ++i) {
      EXPECT_EQ(&tb.app_stack(i).controller()->mpc().problem(), &first) << "app " << i;
    }
    EXPECT_EQ(first.model.b == tb.identified_model().b, !robust);
    tb.run_until(40.0);
    EXPECT_EQ(&tb.app_stack(2).controller()->mpc().problem(), &first);
  }
}

TEST(Testbed, ClusterTopologyMatchesConfig) {
  const TestbedConfig config = fast_config();
  Testbed tb{config};
  EXPECT_EQ(tb.cluster().server_count(), config.num_servers);
  EXPECT_EQ(tb.cluster().vm_count(), config.num_apps * 2);  // two tiers each
  EXPECT_EQ(tb.app_count(), config.num_apps);
}

TEST(Testbed, InitialReplicasCreateOneVmPerReplica) {
  TestbedConfig config = fast_config();
  config.initial_replicas = 2;
  Testbed tb{config};
  // 2 apps x 2 tiers x 2 replicas.
  EXPECT_EQ(tb.cluster().vm_count(), 8u);
  EXPECT_EQ(tb.cluster().live_vm_count(), 8u);
  tb.run_until(300.0);
  for (std::size_t i = 0; i < tb.app_count(); ++i) {
    EXPECT_GT(tb.application(i).completed_requests(), 500u) << "app " << i;
    for (std::size_t j = 0; j < 2; ++j) {
      for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_GT(tb.application(i).replica_work_done_gcycles(j, r), 0.0)
            << "app " << i << " tier " << j << " replica " << r;
      }
    }
  }
}

TEST(Testbed, SupervisorScalesOutUnderSurgeAndCreatesVms) {
  TestbedConfig config = fast_config();
  config.supervisor.enabled = true;
  config.supervisor.max_replicas = 3;
  config.replica_boot_delay_s = 8.0;
  Testbed tb{config};
  const std::size_t vms_before = tb.cluster().vm_count();
  tb.run_until(200.0);
  tb.set_concurrency(0, 220);  // far beyond one replica per tier at c_max
  tb.run_until(900.0);
  EXPECT_GT(tb.scale_out_count(), 0u);
  // Every scale-out materialized a fresh VM in the cluster.
  EXPECT_EQ(tb.cluster().vm_count(), vms_before + tb.scale_out_count());
  EXPECT_EQ(tb.cluster().live_vm_count(),
            vms_before + tb.scale_out_count() - tb.scale_in_count());
  // The surge is re-attained: settled response time back near the setpoint.
  const util::RunningStats late = tb.response_stats_after(0, 700.0);
  EXPECT_LT(late.mean(), 1.3);
  // The replica and live-VM series record the scale-out.
  const telemetry::Recorder recorded = tb.take_recorder();
  double peak_replicas = 0.0;
  const telemetry::Recorder::RowsView replicas = recorded.rows(replica_series_name(0));
  for (std::size_t k = 0; k < replicas.size(); ++k) {
    for (const double n : replicas[k]) peak_replicas = std::max(peak_replicas, n);
  }
  EXPECT_GT(peak_replicas, 1.0);
  const std::vector<double>& live = recorded.values(kLiveVmsSeries);
  EXPECT_GT(*std::max_element(live.begin(), live.end()), static_cast<double>(vms_before));
}

TEST(Testbed, EveryRunRecordsTheSameSeries) {
  // One telemetry schema: a healthy run, a scaling run and a faulted run
  // export the same series, so the two time scales share one timeline
  // whatever the configuration.
  const auto recorded_after = [](const TestbedConfig& config) {
    Testbed tb{config};
    tb.run_until(100.0);
    return tb.take_recorder();
  };
  TestbedConfig scaling = fast_config();
  scaling.supervisor.enabled = true;
  TestbedConfig faulted = fast_config();
  faulted.faults.server_crash(1, 40.0, 60.0);

  const telemetry::Recorder healthy = recorded_after(fast_config());
  EXPECT_EQ(recorded_after(scaling).series_names(), healthy.series_names());
  EXPECT_EQ(recorded_after(faulted).series_names(), healthy.series_names());

  // In the healthy run the replica machinery reads its idle values.
  const std::size_t apps = fast_config().num_apps;
  for (std::size_t i = 0; i < apps; ++i) {
    const telemetry::Recorder::RowsView replicas = healthy.rows(replica_series_name(i));
    ASSERT_EQ(replicas.size(), healthy.rows(allocation_series_name(i)).size());
    ASSERT_GT(replicas.size(), 0u);
    for (std::size_t k = 0; k < replicas.size(); ++k) {
      ASSERT_EQ(replicas[k].size(), 2u);
      for (const double n : replicas[k]) EXPECT_EQ(n, 1.0) << "app " << i << " period " << k;
    }
  }
  for (const double live : healthy.values(kLiveVmsSeries)) {
    EXPECT_EQ(live, 2.0 * static_cast<double>(apps));
  }
  for (const char* series : {kFaultsInjectedSeries, kFailedMigrationsSeries}) {
    ASSERT_FALSE(healthy.values(series).empty()) << series;
    for (const double v : healthy.values(series)) EXPECT_EQ(v, 0.0) << series;
  }
  EXPECT_TRUE(healthy.annotations().empty());
}

TEST(Testbed, RecorderHoldsEverySeriesInCanonicalOrder) {
  // One recorder holds every series from construction on: each app's p90,
  // alloc and replicas in app order, then the power series and the gauges.
  // take_recorder() hands over the same layout at any shard count.
  TestbedConfig config = fast_config();
  config.num_apps = 5;  // an uneven block partition over 4 shards
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < config.num_apps; ++i) {
    expected.push_back(response_series_name(i));
    expected.push_back(allocation_series_name(i));
    expected.push_back(replica_series_name(i));
  }
  expected.emplace_back(kPowerSeries);
  expected.insert(expected.end(), kGaugeSeries.begin(), kGaugeSeries.end());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    config.shards = shards;
    Testbed tb{config};
    config.model = tb.identified_model();  // identify once
    EXPECT_EQ(tb.recorder().series_names(), expected) << shards << " shards";
    tb.run_until(40.0);
    EXPECT_EQ(tb.recorder().series_names(), expected) << shards << " shards";
    for (std::size_t i = 0; i < config.num_apps; ++i) {
      EXPECT_EQ(tb.recorder().size(response_series_name(i)), 10u) << "app " << i;
    }
    const telemetry::Recorder taken = tb.take_recorder();
    EXPECT_EQ(taken.series_names(), expected) << shards << " shards";
  }
}

TEST(Testbed, ClockKeepsMovingPastTwoToTheFifteenSeconds) {
  // The flat-golden configuration (4 apps on 3 servers, IPAC every 120 s,
  // seed 7) on one shard, run to 40,000 s. Past 2^15 s, ulp(now) times a
  // tier's capacity is far above the PS queue's Gcycle tolerance; a queue
  // whose completion rule compares Gcycles only stops the clock there (the
  // shard fires one completion event at the same instant forever). The
  // loop below replays ShardedEngine::run_until's barrier order one event
  // at a time, so a stopped clock fails the test instead of hanging it.
  TestbedConfig config;
  config.num_apps = 4;
  config.num_servers = 3;
  config.enable_optimizer = true;
  config.optimizer_period_s = 120.0;
  config.seed = 7;
  config.shards = 1;
  core::SysIdExperimentConfig sysid;
  sysid.periods = 120;
  config.model =
      core::identify_app_model(app::default_two_tier_app("golden", 1001, 40), sysid).model;
  Testbed tb{config};
  tb.run_until(0.0);  // starts the applications and the control loop

  sim::Simulation& spine = tb.engine().spine();
  sim::Simulation& shard = tb.engine().shard(0);
  constexpr double kHorizonS = 40'000.0;
  constexpr int kMaxEventsAtOneTime = 10'000;
  double last_now = shard.now();
  int events_at_now = 0;
  while (tb.now() < kHorizonS) {
    const std::optional<double> barrier = spine.next_event_time();
    ASSERT_TRUE(barrier.has_value());  // the control tick always re-arms
    for (std::optional<double> next = shard.next_event_time(); next && *next <= *barrier;
         next = shard.next_event_time()) {
      ASSERT_TRUE(shard.step());
      if (shard.now() > last_now) {
        last_now = shard.now();
        events_at_now = 0;
      } else {
        ASSERT_LT(++events_at_now, kMaxEventsAtOneTime) << "clock stopped at " << shard.now();
      }
    }
    shard.run_until(*barrier);
    spine.run_until(*barrier);
  }
  EXPECT_GE(tb.optimizer_invocations(), static_cast<std::size_t>(kHorizonS / 120.0) - 1);
  for (std::size_t i = 0; i < tb.app_count(); ++i) {
    EXPECT_GT(tb.application(i).completed_requests(), 0u);
  }
}

}  // namespace
}  // namespace vdc::core
