// Physical-topology layer: the pod/rack/server hierarchy, the network
// distance tiers, shared-infrastructure power conservation in the cluster,
// correlated rack failures, and the migration energy model built on top.
#include "datacenter/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "consolidate/topology_cost.hpp"
#include "datacenter/cluster.hpp"
#include "util/rng.hpp"

namespace vdc::datacenter {
namespace {

Vm make_vm(double demand, double memory = 1024.0) {
  Vm vm;
  vm.cpu_demand_ghz = demand;
  vm.memory_mb = memory;
  return vm;
}

// ---- hierarchy bookkeeping --------------------------------------------------

TEST(Topology, EmptyTopologyIsTheFlatWorld) {
  const Topology topo;
  EXPECT_TRUE(topo.empty());
  EXPECT_EQ(topo.rack_count(), 0u);
  EXPECT_EQ(topo.pod_count(), 0u);
  // Unknown servers are islands, not errors.
  EXPECT_EQ(topo.rack_of(3), kNoRack);
  EXPECT_EQ(topo.pod_of(3), kNoPod);
}

TEST(Topology, BuilderAssignsAndIndexes) {
  Topology topo;
  const PodId p0 = topo.add_pod(120.0);
  const RackId r0 = topo.add_rack(p0, 40.0);
  const RackId r1 = topo.add_rack(p0, 55.0);
  topo.assign(0, r0);
  topo.assign(1, r0);
  topo.assign(2, r1);

  EXPECT_FALSE(topo.empty());
  EXPECT_EQ(topo.rack_count(), 2u);
  EXPECT_EQ(topo.pod_count(), 1u);
  EXPECT_EQ(topo.rack_of(0), r0);
  EXPECT_EQ(topo.rack_of(2), r1);
  EXPECT_EQ(topo.pod_of(2), p0);
  EXPECT_EQ(topo.pod_of_rack(r1), p0);
  EXPECT_DOUBLE_EQ(topo.rack_shared_power_w(r0), 40.0);
  EXPECT_DOUBLE_EQ(topo.rack_shared_power_w(r1), 55.0);
  EXPECT_DOUBLE_EQ(topo.pod_shared_power_w(p0), 120.0);
  ASSERT_EQ(topo.servers_in(r0).size(), 2u);
  EXPECT_EQ(topo.servers_in(r0)[1], 1u);
  ASSERT_EQ(topo.racks_in(p0).size(), 2u);
  EXPECT_EQ(topo.racks_in(p0)[0], r0);
  // Server 9 was never assigned: an island, not an error.
  EXPECT_EQ(topo.rack_of(9), kNoRack);
}

TEST(Topology, BuilderRejectsMalformedInput) {
  Topology topo;
  EXPECT_THROW(topo.add_pod(-1.0), std::invalid_argument);
  EXPECT_THROW(topo.add_rack(0, 10.0), std::out_of_range);  // no pods yet
  const PodId pod = topo.add_pod(0.0);
  EXPECT_THROW(topo.add_rack(pod, -5.0), std::invalid_argument);
  const RackId rack = topo.add_rack(pod, 10.0);
  EXPECT_THROW(topo.assign(kNoServer, rack), std::invalid_argument);
  EXPECT_THROW(topo.assign(0, rack + 1), std::out_of_range);
  topo.assign(0, rack);
  EXPECT_THROW(topo.assign(0, rack), std::logic_error);  // already assigned
  EXPECT_THROW(static_cast<void>(topo.pod_of_rack(5)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(topo.rack_shared_power_w(5)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(topo.pod_shared_power_w(5)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(topo.servers_in(5)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(topo.racks_in(5)), std::out_of_range);
}

TEST(Topology, DistanceTiersFollowTheHierarchy) {
  // 2 pods x 2 racks x 2 servers: servers 0..3 in pod 0, 4..7 in pod 1.
  const Topology topo = Topology::uniform(2, 2, 2, 30.0, 100.0);
  EXPECT_EQ(topo.distance(0, 0), NetworkDistance::kSameHost);
  EXPECT_EQ(topo.distance(0, 1), NetworkDistance::kSameRack);
  EXPECT_EQ(topo.distance(0, 2), NetworkDistance::kSamePod);
  EXPECT_EQ(topo.distance(0, 4), NetworkDistance::kCrossPod);
  EXPECT_EQ(topo.distance(4, 0), NetworkDistance::kCrossPod);
  // Islands (unassigned servers) share no known fabric with anyone.
  EXPECT_EQ(topo.distance(0, 99), NetworkDistance::kCrossPod);
  EXPECT_EQ(topo.distance(99, 99), NetworkDistance::kSameHost);
}

TEST(Topology, UniformGridAssignsRackMajor) {
  const Topology topo = Topology::uniform(2, 3, 4, 25.0, 80.0);
  EXPECT_EQ(topo.pod_count(), 2u);
  EXPECT_EQ(topo.rack_count(), 6u);
  // Rack-major: rack r holds servers [4r, 4r+4).
  for (RackId r = 0; r < 6; ++r) {
    ASSERT_EQ(topo.servers_in(r).size(), 4u);
    EXPECT_EQ(topo.servers_in(r).front(), r * 4);
    EXPECT_EQ(topo.pod_of_rack(r), r / 3);
    EXPECT_DOUBLE_EQ(topo.rack_shared_power_w(r), 25.0);
  }
  EXPECT_DOUBLE_EQ(topo.pod_shared_power_w(1), 80.0);
  EXPECT_THROW(static_cast<void>(Topology::uniform(0, 3, 4, 1.0)), std::invalid_argument);
}

// ---- migration timing over the tiers ---------------------------------------

TEST(Topology, MigrationBandwidthTiersSlowDistantCopies) {
  MigrationModel model;
  model.network_bandwidth_mbps = 1000.0;
  model.cross_rack_bandwidth_factor = 0.5;
  model.cross_pod_bandwidth_factor = 0.25;

  EXPECT_DOUBLE_EQ(model.bandwidth_mbps(NetworkDistance::kSameRack), 1000.0);
  EXPECT_DOUBLE_EQ(model.bandwidth_mbps(NetworkDistance::kSamePod), 500.0);
  EXPECT_DOUBLE_EQ(model.bandwidth_mbps(NetworkDistance::kCrossPod), 250.0);

  const double mem = 2048.0;
  EXPECT_DOUBLE_EQ(model.duration_s(mem, NetworkDistance::kSameHost), 0.0);
  const double same_rack = model.duration_s(mem, NetworkDistance::kSameRack);
  const double same_pod = model.duration_s(mem, NetworkDistance::kSamePod);
  const double cross_pod = model.duration_s(mem, NetworkDistance::kCrossPod);
  EXPECT_LT(same_rack, same_pod);
  EXPECT_LT(same_pod, cross_pod);
  // The base-tier overload agrees with the distance overload.
  EXPECT_DOUBLE_EQ(model.duration_s(mem), same_rack);
}

TEST(Topology, MigrationEnergyChargesTheDistanceTier) {
  consolidate::MigrationCostModel cost;
  cost.transfer.network_bandwidth_mbps = 1000.0;
  cost.transfer.cross_rack_bandwidth_factor = 0.5;
  cost.transfer.cross_pod_bandwidth_factor = 0.25;
  cost.migration_power_w = 25.0;

  const double mem = 4096.0;
  EXPECT_DOUBLE_EQ(cost.energy_j(mem, NetworkDistance::kSameHost), 0.0);
  const double same_rack = cost.energy_j(mem, NetworkDistance::kSameRack);
  const double same_pod = cost.energy_j(mem, NetworkDistance::kSamePod);
  const double cross_pod = cost.energy_j(mem, NetworkDistance::kCrossPod);
  EXPECT_GT(same_rack, 0.0);
  EXPECT_LT(same_rack, same_pod);
  EXPECT_LT(same_pod, cross_pod);
  // Energy is duration x migration power: J = W * s, checked literally.
  EXPECT_DOUBLE_EQ(
      same_pod, cost.transfer.duration_s(mem, NetworkDistance::kSamePod) * 25.0);
}

// ---- cluster integration: shared draw + correlated failure -----------------

Cluster racked_cluster() {
  // 2 racks x 2 servers in one pod; rack switches at 40 W, pod fabric 100 W.
  Cluster c;
  for (int i = 0; i < 4; ++i) {
    c.add_server(Server(dual_core_2ghz(), power_model_dual_2ghz(), 4096.0));
  }
  c.set_topology(Topology::uniform(1, 2, 2, 40.0, 100.0));
  return c;
}

TEST(Topology, SharedPowerPaidOnlyWhileRackIsLit) {
  Cluster c = racked_cluster();
  c.add_vm(make_vm(1.0), 0);
  c.add_vm(make_vm(1.0), 2);

  // All four servers awake: both rack draws + the pod draw are on.
  const double all_awake = c.step().awake_power_w;

  // Sleep rack 1 entirely (servers 2,3): its 40 W switch off, pod stays
  // lit because rack 0 still is. Move the VM off first; server 1 stays up.
  c.migrate(c.vms_on(2).front(), 0, 10.0);
  c.sleep_idle_servers();
  ASSERT_TRUE(c.wake(1));
  const double rack1_dark = c.step().awake_power_w;

  // The delta is the two members' active draw plus exactly the 40 W rack
  // share. Verify the share by comparing against a flat twin of the same
  // cluster state.
  Cluster flat = racked_cluster();
  flat.set_topology(Topology{});
  flat.add_vm(make_vm(1.0), 0);
  flat.add_vm(make_vm(1.0), 0);  // both VMs on server 0, like after the move
  flat.sleep_idle_servers();
  ASSERT_TRUE(flat.wake(1));
  const double flat_power = flat.step().awake_power_w;
  EXPECT_NEAR(rack1_dark - flat_power, 40.0 + 100.0, 1e-9);
  EXPECT_GT(all_awake, rack1_dark);
}

TEST(Topology, FullyDarkPodSwitchesOffEveryShare) {
  Cluster c = racked_cluster();
  EXPECT_EQ(c.sleep_idle_servers(), 4u);
  // No server is awake: no member draw and no shared draw anywhere.
  EXPECT_EQ(c.step().awake_power_w, 0.0);
}

TEST(Topology, StepSharedDrawMatchesABruteForceRecount) {
  // 2 pods x 3 racks x 3 servers, every rack and pod with its own share,
  // plus two servers outside the topology. Each pattern puts every server
  // awake, asleep or failed at random; the step's draw must equal the
  // awake members' draw plus the shares recomputed from the topology's
  // membership lists and each server's state.
  Topology topo;
  for (PodId pod = 0; pod < 2; ++pod) {
    topo.add_pod(100.0 + 10.0 * pod);
    for (int r = 0; r < 3; ++r) {
      const RackId rack = topo.add_rack(pod, 20.0 + 3.0 * static_cast<double>(r + 3 * pod));
      for (ServerId k = 0; k < 3; ++k) topo.assign(rack * 3 + k, rack);
    }
  }
  util::Rng rng(2024);
  for (int pattern = 0; pattern < 200; ++pattern) {
    Cluster c;
    for (int i = 0; i < 20; ++i) {
      c.add_server(Server(i % 2 == 0 ? dual_core_2ghz() : dual_core_1_5ghz(),
                          i % 2 == 0 ? power_model_dual_2ghz() : power_model_dual_1_5ghz(),
                          4096.0));
    }
    c.set_topology(topo);
    c.sleep_idle_servers();
    for (ServerId s = 0; s < c.server_count(); ++s) {
      const double u = rng.uniform();
      if (u < 0.3) {
        ASSERT_TRUE(c.wake(s));
      } else if (u < 0.45) {
        (void)c.fail_server(s);
      }
    }
    const double stepped = c.step().awake_power_w;

    double expected = 0.0;
    for (ServerId s = 0; s < c.server_count(); ++s) {
      if (c.server(s).active()) expected += c.server(s).power_w(0.0);
    }
    const auto lit = [&c, &topo](RackId rack) {
      for (const ServerId s : topo.servers_in(rack)) {
        if (c.server(s).active()) return true;
      }
      return false;
    };
    for (RackId rack = 0; rack < topo.rack_count(); ++rack) {
      if (lit(rack)) expected += topo.rack_shared_power_w(rack);
    }
    for (PodId pod = 0; pod < topo.pod_count(); ++pod) {
      bool pod_lit = false;
      for (const RackId rack : topo.racks_in(pod)) pod_lit = pod_lit || lit(rack);
      if (pod_lit) expected += topo.pod_shared_power_w(pod);
    }
    EXPECT_DOUBLE_EQ(stepped, expected) << "pattern " << pattern;
  }
}

TEST(Topology, MigrationLogRecordsTheDistanceTier) {
  Cluster c = racked_cluster();
  const VmId vm = c.add_vm(make_vm(0.5, 2048.0), 0);
  c.migrate(vm, 1, 10.0);  // same rack
  c.migrate(vm, 2, 20.0);  // cross rack, same pod
  ASSERT_EQ(c.migration_log().count(), 2u);
  EXPECT_EQ(c.migration_log().records()[0].distance, NetworkDistance::kSameRack);
  EXPECT_EQ(c.migration_log().records()[1].distance, NetworkDistance::kSamePod);
}

TEST(Topology, RackFailureEvictsEveryMemberTogether) {
  Cluster c = racked_cluster();
  const VmId v0 = c.add_vm(make_vm(1.0), 0);
  const VmId v1 = c.add_vm(make_vm(0.5), 1);
  c.add_vm(make_vm(0.5), 2);

  const std::vector<VmId> evicted = c.fail_rack(0);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_TRUE(c.server(0).failed());
  EXPECT_TRUE(c.server(1).failed());
  EXPECT_FALSE(c.server(2).failed());
  EXPECT_EQ(c.host_of(v0), kNoServer);
  EXPECT_EQ(c.host_of(v1), kNoServer);
  EXPECT_EQ(c.unplaced_vms().size(), 2u);
  // Failed boxes refuse to wake until repaired.
  EXPECT_FALSE(c.wake(0));

  c.repair_rack(0);
  EXPECT_FALSE(c.server(0).failed());
  EXPECT_FALSE(c.server(0).active());  // reboots powered down
  EXPECT_TRUE(c.wake(0));
  c.place(v0, 0);
  EXPECT_EQ(c.host_of(v0), 0u);
}

}  // namespace
}  // namespace vdc::datacenter
