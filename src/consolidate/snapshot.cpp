#include "consolidate/snapshot.hpp"

#include <algorithm>

namespace vdc::consolidate {

NetworkDistance DataCenterSnapshot::distance(ServerId a, ServerId b) const {
  if (a == b) return NetworkDistance::kSameHost;
  const RackId rack_a = a < servers.size() ? servers[a].rack : datacenter::kNoRack;
  const RackId rack_b = b < servers.size() ? servers[b].rack : datacenter::kNoRack;
  if (rack_a == datacenter::kNoRack || rack_b == datacenter::kNoRack) {
    return NetworkDistance::kCrossPod;
  }
  if (rack_a == rack_b) return NetworkDistance::kSameRack;
  if (racks[rack_a].pod == racks[rack_b].pod) return NetworkDistance::kSamePod;
  return NetworkDistance::kCrossPod;
}

ServerId DataCenterSnapshot::host_of(VmId id) const {
  for (const ServerSnapshot& s : servers) {
    if (std::find(s.hosted.begin(), s.hosted.end(), id) != s.hosted.end()) return s.id;
  }
  return datacenter::kNoServer;
}

DataCenterSnapshot snapshot_of(const datacenter::Cluster& cluster) {
  DataCenterSnapshot snap;
  snap.servers.reserve(cluster.server_count());
  for (ServerId id = 0; id < cluster.server_count(); ++id) {
    const datacenter::Server& srv = cluster.server(id);
    ServerSnapshot s;
    s.id = id;
    s.max_capacity_ghz = srv.max_capacity_ghz();
    s.memory_mb = srv.memory_mb();
    s.max_power_w = srv.power_model().max_power_w();
    s.idle_power_w = srv.power_model().active_power_w(1.0, 0.0);
    s.sleep_power_w = srv.power_model().sleep_w;
    s.power_efficiency_ghz_per_w = srv.power_efficiency_ghz_per_w();
    s.active = srv.active();
    s.failed = srv.failed();
    s.rack = cluster.topology().rack_of(id);
    s.pod = cluster.topology().pod_of(id);
    const auto hosted = cluster.vms_on(id);
    s.hosted.assign(hosted.begin(), hosted.end());
    snap.servers.push_back(std::move(s));
  }
  const datacenter::Topology& topo = cluster.topology();
  if (!topo.empty()) {
    snap.racks.reserve(topo.rack_count());
    for (RackId rack = 0; rack < topo.rack_count(); ++rack) {
      RackSnapshot r;
      r.id = rack;
      r.pod = topo.pod_of_rack(rack);
      r.shared_power_w = topo.rack_shared_power_w(rack);
      const auto members = topo.servers_in(rack);
      r.members.assign(members.begin(), members.end());
      snap.racks.push_back(std::move(r));
    }
    snap.pods.reserve(topo.pod_count());
    for (PodId pod = 0; pod < topo.pod_count(); ++pod) {
      snap.pods.push_back(PodSnapshot{pod, topo.pod_shared_power_w(pod)});
    }
  }
  snap.vms.reserve(cluster.vm_count());
  for (VmId id = 0; id < cluster.vm_count(); ++id) {
    const datacenter::Vm& vm = cluster.vm(id);
    snap.vms.push_back(VmSnapshot{id, vm.cpu_demand_ghz, vm.memory_mb, cluster.vm_retired(id)});
  }
  return snap;
}

void apply_plan(datacenter::Cluster& cluster, const PlacementPlan& plan, double now_s) {
  for (const Move& move : plan.moves) {
    // The plan was made against a snapshot that may have gone stale. A VM
    // retired since has nowhere to go. A failed target cannot be woken, so
    // the move is skipped instead of placing a VM onto a dead box (it keeps
    // its current host, or stays unplaced).
    if (cluster.vm_retired(move.vm) || !cluster.wake(move.to)) continue;
    // The VM's host now, not the plan's `from`: a source that crashed after
    // planning left the VM homeless, and it is placed as a restart is.
    if (cluster.host_of(move.vm) == datacenter::kNoServer) {
      cluster.place(move.vm, move.to);
    } else {
      cluster.migrate(move.vm, move.to, now_s);
    }
  }
  cluster.sleep_idle_servers();
}

}  // namespace vdc::consolidate
