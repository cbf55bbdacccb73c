#include "datacenter/cluster.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace vdc::datacenter {
namespace {

Cluster two_server_cluster() {
  Cluster c;
  c.add_server(Server(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0));
  c.add_server(Server(dual_core_1_5ghz(), power_model_dual_1_5ghz(), 4096.0));
  return c;
}

Vm make_vm(double demand, double memory = 1024.0) {
  Vm vm;
  vm.cpu_demand_ghz = demand;
  vm.memory_mb = memory;
  return vm;
}

TEST(Cluster, TopologyBookkeeping) {
  Cluster c = two_server_cluster();
  EXPECT_EQ(c.server_count(), 2u);
  const VmId v0 = c.add_vm(make_vm(1.0), 0);
  const VmId v1 = c.add_vm(make_vm(0.5), 0);
  const VmId v2 = c.add_vm(make_vm(0.2));
  EXPECT_EQ(c.vm_count(), 3u);
  EXPECT_EQ(c.host_of(v0), 0u);
  EXPECT_EQ(c.host_of(v2), kNoServer);
  EXPECT_EQ(c.vms_on(0).size(), 2u);
  EXPECT_DOUBLE_EQ(c.server_cpu_demand_ghz(0), 1.5);
  EXPECT_DOUBLE_EQ(c.server_memory_used_mb(0), 2048.0);
  c.place(v2, 1);
  EXPECT_EQ(c.host_of(v2), 1u);
  EXPECT_THROW(c.place(v1, 1), std::logic_error);  // already placed
  (void)v1;
}

TEST(Cluster, BadIdsThrow) {
  Cluster c = two_server_cluster();
  EXPECT_THROW(static_cast<void>(c.server(5)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(c.vm(0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(c.vms_on(9)), std::out_of_range);
}

TEST(Cluster, MigrationMovesVmAndLogs) {
  Cluster c = two_server_cluster();
  const VmId v = c.add_vm(make_vm(1.0, 2048.0), 0);
  c.migrate(v, 1, 100.0);
  EXPECT_EQ(c.host_of(v), 1u);
  EXPECT_TRUE(c.vms_on(0).empty());
  ASSERT_EQ(c.migration_log().count(), 1u);
  const MigrationRecord rec = c.migration_log().records()[0];
  EXPECT_EQ(rec.from, 0u);
  EXPECT_EQ(rec.to, 1u);
  EXPECT_DOUBLE_EQ(rec.time_s, 100.0);
  EXPECT_GT(rec.duration_s, 0.0);
  EXPECT_DOUBLE_EQ(rec.bytes, c.migration_model().bytes_moved(2048.0));
}

TEST(Cluster, SelfMigrationIsNoop) {
  Cluster c = two_server_cluster();
  const VmId v = c.add_vm(make_vm(1.0), 0);
  c.migrate(v, 0);
  EXPECT_EQ(c.migration_log().count(), 0u);
}

TEST(Cluster, MigrateUnplacedThrows) {
  Cluster c = two_server_cluster();
  const VmId v = c.add_vm(make_vm(1.0));
  EXPECT_THROW(c.migrate(v, 1), std::logic_error);
}

TEST(Cluster, OverloadDetection) {
  Cluster c = two_server_cluster();
  const VmId v = c.add_vm(make_vm(3.0), 0);  // demand 3 < 4 GHz capacity
  EXPECT_FALSE(c.overloaded(0));
  c.vm(v).cpu_demand_ghz = 4.5;
  EXPECT_TRUE(c.overloaded(0));
  EXPECT_EQ(c.overloaded_servers(), (std::vector<ServerId>{0}));
}

TEST(Cluster, MemoryOverloadDetected) {
  Cluster c = two_server_cluster();
  (void)c.add_vm(make_vm(0.1, 5000.0), 0);  // 5 GB on a 4 GB server
  EXPECT_TRUE(c.overloaded(0));
}

TEST(Cluster, RejectsAnInactiveTarget) {
  // The step grants and powers awake servers only, so a VM may land only on
  // an active one: the caller wakes the target first.
  Cluster c = two_server_cluster();
  c.sleep_idle_servers();
  EXPECT_THROW((void)c.add_vm(make_vm(0.1), 0), std::logic_error);
  EXPECT_EQ(c.vm_count(), 0u);  // nothing half-added
  const VmId vm = c.add_vm(make_vm(0.1));
  EXPECT_THROW(c.place(vm, 0), std::logic_error);
  EXPECT_EQ(c.host_of(vm), kNoServer);
  ASSERT_TRUE(c.wake(0));
  c.place(vm, 0);

  EXPECT_THROW(c.migrate(vm, 1), std::logic_error);  // asleep
  (void)c.fail_server(1);
  EXPECT_THROW(c.migrate(vm, 1), std::logic_error);  // failed
  EXPECT_EQ(c.host_of(vm), 0u);
  EXPECT_EQ(c.migration_log().count(), 0u);
  c.repair_server(1);
  ASSERT_TRUE(c.wake(1));
  c.migrate(vm, 1);
  EXPECT_EQ(c.host_of(vm), 1u);
}

TEST(Cluster, SleepIdleServersOnlyAffectsEmptyOnes) {
  Cluster c = two_server_cluster();
  (void)c.add_vm(make_vm(1.0), 0);
  EXPECT_EQ(c.active_server_count(), 2u);
  EXPECT_EQ(c.sleep_idle_servers(), 1u);
  EXPECT_EQ(c.active_server_count(), 1u);
  EXPECT_TRUE(c.server(0).active());
  c.wake(1);
  EXPECT_EQ(c.active_server_count(), 2u);
}

TEST(Cluster, ArbitrateAndPowerWithDvfs) {
  const auto stepped = [](bool dvfs) {
    Cluster c({}, CpuResourceArbitrator(1.0), dvfs);
    c.add_server(Server(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0));
    c.add_server(Server(dual_core_1_5ghz(), power_model_dual_1_5ghz(), 4096.0));
    (void)c.add_vm(make_vm(1.0), 0);
    c.sleep_idle_servers();
    const Cluster::StepResult step = c.step();
    EXPECT_EQ(step.awake_servers, 1u);
    EXPECT_EQ(step.overloaded_servers, 0u);
    return std::make_pair(c.server(0).frequency_ghz(), step.awake_power_w);
  };
  const auto [dvfs_ghz, with_dvfs] = stepped(true);
  const auto [fixed_ghz, without_dvfs] = stepped(false);
  // Server 0 runs at 1.0 GHz with DVFS (capacity 2.0 >= demand 1.0), at its
  // 2.0 GHz max without; server 1 sleeps.
  EXPECT_DOUBLE_EQ(dvfs_ghz, 1.0);
  EXPECT_DOUBLE_EQ(fixed_ghz, 2.0);
  EXPECT_LT(with_dvfs, without_dvfs);
  // The sleeping server adds nothing: the draw is server 0's alone, at
  // utilization 1.0 GHz / 2.0 GHz.
  Server alone(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0);
  alone.set_frequency(1.0);
  EXPECT_DOUBLE_EQ(with_dvfs, alone.power_w(0.5));
}

TEST(Cluster, StepCountsAwakeOverloads) {
  Cluster c = two_server_cluster();
  const VmId v = c.add_vm(make_vm(3.0), 0);
  (void)c.add_vm(make_vm(0.1, 5000.0), 1);  // 5 GB on a 4 GB server
  EXPECT_EQ(c.step().overloaded_servers, 1u);
  c.vm(v).cpu_demand_ghz = 4.5;  // above server 0's 4 GHz at max frequency
  EXPECT_EQ(c.step().overloaded_servers, 2u);
  EXPECT_EQ(c.overloaded_servers(), (std::vector<ServerId>{0, 1}));
}

TEST(Cluster, StepGrantsEveryHostedVmInServerOrder) {
  Cluster c = two_server_cluster();
  const VmId a = c.add_vm(make_vm(0.5), 1);
  const VmId b = c.add_vm(make_vm(1.0), 0);
  const VmId d = c.add_vm(make_vm(0.25), 0);
  std::vector<std::pair<VmId, double>> grants;
  c.step({.dvfs_pin = {},
          .grant = [&grants](VmId vm, double ghz) { grants.emplace_back(vm, ghz); }});
  const std::vector<std::pair<VmId, double>> expected = {{b, 1.0}, {d, 0.25}, {a, 0.5}};
  EXPECT_EQ(grants, expected);  // unsaturated: every demand is met in full
}

TEST(Cluster, PinnedServerGrantsFitThePinnedCapacity) {
  // DVFS off: both servers would run at max and meet every demand. Server 0
  // is stuck at its 1 GHz floor (2 GHz of capacity) under 3 GHz of demand.
  Cluster c({}, CpuResourceArbitrator(1.1), /*dvfs=*/false);
  c.add_server(Server(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0));
  c.add_server(Server(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0));
  const VmId a = c.add_vm(make_vm(1.0), 0);
  const VmId b = c.add_vm(make_vm(2.0), 0);
  const VmId d = c.add_vm(make_vm(1.5), 1);
  std::vector<double> granted(3, 0.0);
  const Cluster::StepHooks hooks{
      .dvfs_pin = [](ServerId s) { return s == 0 ? std::optional<double>(1.0) : std::nullopt; },
      .grant = [&granted](VmId vm, double ghz) { granted[vm] = ghz; },
  };
  const Cluster::StepResult step = c.step(hooks);
  EXPECT_DOUBLE_EQ(c.server(0).frequency_ghz(), 1.0);
  EXPECT_DOUBLE_EQ(c.server(1).frequency_ghz(), 2.0);
  EXPECT_LE(granted[a] + granted[b], c.server(0).capacity_ghz() + 1e-12);
  EXPECT_DOUBLE_EQ(granted[b], 2.0 * granted[a]);  // rescaled in proportion
  EXPECT_DOUBLE_EQ(granted[d], 1.5);               // the unpinned server is untouched
  // Priced at the pinned capacity: saturated.
  Server pinned(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0);
  pinned.set_frequency(1.0);
  Server free_running(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0);
  EXPECT_DOUBLE_EQ(step.awake_power_w, pinned.power_w(1.0) + free_running.power_w(1.5 / 4.0));
}

TEST(MigrationModel, DurationAndBytes) {
  const MigrationModel m{.network_bandwidth_mbps = 1000.0, .overhead_factor = 1.0,
                         .downtime_s = 0.0};
  // 1024 MB * 8 bits = 8192 Mb at 1000 Mbps -> 8.192 s.
  EXPECT_NEAR(m.duration_s(1024.0), 8.192, 1e-9);
  EXPECT_DOUBLE_EQ(m.bytes_moved(1024.0), 1024.0 * 1e6);
}

TEST(MigrationLog, Aggregates) {
  MigrationLog log;
  log.add(MigrationRecord{.vm = 0, .from = 0, .to = 1, .time_s = 0.0, .duration_s = 2.0,
                          .bytes = 100.0});
  log.add(MigrationRecord{.vm = 1, .from = 1, .to = 0, .time_s = 1.0, .duration_s = 3.0,
                          .bytes = 200.0});
  EXPECT_EQ(log.count(), 2u);
  EXPECT_DOUBLE_EQ(log.total_bytes(), 300.0);
  EXPECT_DOUBLE_EQ(log.total_duration_s(), 5.0);
  log.clear();
  EXPECT_EQ(log.count(), 0u);
  EXPECT_DOUBLE_EQ(log.total_bytes(), 0.0);
}

TEST(MigrationLog, KeepsExactTotalsAndOnlyTheMostRecentRecordsInOrder) {
  // Two and a half windows of migrations: the count and both totals cover
  // every one, the records only the last window, oldest first.
  MigrationLog log;
  const std::size_t n = 2 * MigrationLog::kRetainedRecords + MigrationLog::kRetainedRecords / 2;
  double bytes = 0.0;
  double duration_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<VmId>(i);
    const MigrationRecord record{.vm = id, .from = 0, .to = 1, .time_s = static_cast<double>(i),
                                 .duration_s = 0.5 + static_cast<double>(i % 7),
                                 .bytes = 1e6 * static_cast<double>(1 + i % 5)};
    log.add(record);
    bytes += record.bytes;
    duration_s += record.duration_s;
  }
  EXPECT_EQ(log.count(), n);
  EXPECT_EQ(log.total_bytes(), bytes);
  EXPECT_EQ(log.total_duration_s(), duration_s);
  const std::vector<MigrationRecord> records = log.records();
  ASSERT_EQ(records.size(), MigrationLog::kRetainedRecords);
  for (std::size_t k = 0; k < records.size(); ++k) {
    EXPECT_EQ(records[k].vm, static_cast<VmId>(n - MigrationLog::kRetainedRecords + k));
  }
  log.clear();
  EXPECT_EQ(log.count(), 0u);
  EXPECT_TRUE(log.records().empty());
  log.add(MigrationRecord{.vm = 7, .from = 1, .to = 0, .time_s = 0.0, .duration_s = 1.0,
                          .bytes = 1.0});
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].vm, 7u);
}

// ---- server failure / repair (fault injection) ------------------------------

TEST(Cluster, FailServerEvictsVmsAndZeroesThePowerDraw) {
  Cluster c = two_server_cluster();
  const VmId v0 = c.add_vm(make_vm(1.0), 0);
  const VmId v1 = c.add_vm(make_vm(0.5), 0);
  const VmId v2 = c.add_vm(make_vm(0.5), 1);

  const std::vector<VmId> evicted = c.fail_server(0);
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(c.host_of(v0), kNoServer);
  EXPECT_EQ(c.host_of(v1), kNoServer);
  EXPECT_EQ(c.host_of(v2), 1u);  // the other server is untouched
  EXPECT_TRUE(c.server(0).failed());
  EXPECT_TRUE(c.vms_on(0).empty());
  EXPECT_DOUBLE_EQ(c.server(0).power_w(0.0), 0.0);  // dead iron draws nothing

  const std::vector<VmId> homeless = c.unplaced_vms();
  ASSERT_EQ(homeless.size(), 2u);
  EXPECT_EQ(homeless[0], v0);
  EXPECT_EQ(homeless[1], v1);
}

TEST(Cluster, FailedServerRefusesWakeUntilRepaired) {
  Cluster c = two_server_cluster();
  (void)c.fail_server(0);
  EXPECT_FALSE(c.wake(0));
  EXPECT_TRUE(c.server(0).failed());

  c.repair_server(0);
  EXPECT_FALSE(c.server(0).failed());
  EXPECT_FALSE(c.server(0).active());  // comes back sleeping, not serving
  EXPECT_TRUE(c.wake(0));
  EXPECT_TRUE(c.server(0).active());
}

TEST(Cluster, WakeSucceedsOnHealthyServers) {
  Cluster c = two_server_cluster();
  c.sleep_idle_servers();
  EXPECT_FALSE(c.server(1).active());
  EXPECT_TRUE(c.wake(1));
  EXPECT_TRUE(c.server(1).active());
  EXPECT_TRUE(c.wake(1));  // waking an active server is a harmless no-op
}

TEST(Cluster, PoweredDownServerWakesAtTheEmptyArbitrationFrequency) {
  for (const bool dvfs : {true, false}) {
    SCOPED_TRACE(dvfs ? "dvfs" : "fixed frequency");
    Cluster c({}, CpuResourceArbitrator(1.1), dvfs);
    c.add_server(Server(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0));
    c.add_server(Server(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0));
    const VmId v = c.add_vm(make_vm(3.5), 0);
    const double idle_ghz = dvfs ? dual_core_2ghz().min_freq_ghz() : 2.0;
    // Sleep: the loaded server runs at max; emptied and slept, it wakes at
    // the frequency an empty arbitration gives.
    c.step();
    EXPECT_DOUBLE_EQ(c.server(0).frequency_ghz(), 2.0);
    c.migrate(v, 1);
    EXPECT_EQ(c.sleep_idle_servers(), 1u);
    ASSERT_TRUE(c.wake(0));
    EXPECT_DOUBLE_EQ(c.server(0).frequency_ghz(), idle_ghz);
    // Fail and repair: the same.
    c.step();
    EXPECT_DOUBLE_EQ(c.server(1).frequency_ghz(), 2.0);
    (void)c.fail_server(1);
    c.repair_server(1);
    ASSERT_TRUE(c.wake(1));
    EXPECT_DOUBLE_EQ(c.server(1).frequency_ghz(), idle_ghz);
  }
}

TEST(Cluster, AwakeIndexMatchesABruteForceRecount) {
  // 3 racks x 4 servers plus two servers outside the topology, under a
  // seeded sequence of wake, sleep, fail, repair, rack failure and rack
  // repair. After every call the index, the count and the step's visiting
  // order equal a recount in id order, and every powered-down server sits
  // at the empty-arbitration frequency.
  Cluster c;
  for (int i = 0; i < 14; ++i) {
    c.add_server(Server(i % 3 == 0 ? quad_core_3ghz() : dual_core_2ghz(),
                        i % 3 == 0 ? power_model_quad_3ghz() : power_model_dual_2ghz(), 8192.0));
  }
  c.set_topology(Topology::uniform(1, 3, 4, 30.0, 80.0));
  for (ServerId s = 0; s < 12; s += 2) (void)c.add_vm(make_vm(0.5), s);
  util::Rng rng(11);
  const auto check = [&c](int call) {
    std::vector<ServerId> recount;
    for (ServerId s = 0; s < c.server_count(); ++s) {
      if (c.server(s).active()) {
        recount.push_back(s);
      } else {
        EXPECT_DOUBLE_EQ(c.server(s).frequency_ghz(), c.server(s).cpu().min_freq_ghz())
            << "call " << call << " server " << s;
      }
    }
    const std::span<const ServerId> index = c.awake_servers();
    EXPECT_EQ(std::vector<ServerId>(index.begin(), index.end()), recount) << "call " << call;
    EXPECT_EQ(c.active_server_count(), recount.size()) << "call " << call;
    std::vector<ServerId> visited;
    const Cluster::StepResult step = c.step({.dvfs_pin = [&visited](ServerId s) {
                                               visited.push_back(s);
                                               return std::optional<double>();
                                             },
                                             .grant = {}});
    EXPECT_EQ(visited, recount) << "call " << call;
    EXPECT_EQ(step.awake_servers, recount.size()) << "call " << call;
  };
  check(-1);
  for (int call = 0; call < 400; ++call) {
    const auto server = static_cast<ServerId>(rng.index(c.server_count()));
    const auto rack = static_cast<RackId>(rng.index(3));
    switch (rng.index(7)) {
      case 0:
      case 1: {
        const bool was_down = !c.server(server).active();
        if (c.wake(server) && was_down) {
          EXPECT_DOUBLE_EQ(c.server(server).frequency_ghz(),
                           c.server(server).cpu().min_freq_ghz());
        }
        break;
      }
      case 2:
        c.sleep_idle_servers();
        break;
      case 3:
        (void)c.fail_server(server);
        break;
      case 4:
        c.repair_server(server);
        break;
      case 5:
        (void)c.fail_rack(rack);
        break;
      default:
        c.repair_rack(rack);
        break;
    }
    // Re-home evicted VMs on an awake server, so sleeping keeps mattering.
    for (const VmId vm : c.unplaced_vms()) {
      if (c.active_server_count() > 0) {
        c.place(vm, c.awake_servers()[rng.index(c.active_server_count())]);
      }
    }
    check(call);
  }
}

TEST(Cluster, RepairOnHealthyServerIsNoop) {
  Cluster c = two_server_cluster();
  c.repair_server(0);  // never failed
  EXPECT_TRUE(c.server(0).active());
  EXPECT_TRUE(c.unplaced_vms().empty());
}

}  // namespace
}  // namespace vdc::datacenter
