#include "consolidate/planning_model.hpp"

#include "check/consolidate_audit.hpp"
#include "consolidate/ffd.hpp"

namespace vdc::consolidate {

PlanningModel::PlanningModel(const DataCenterSnapshot& snapshot)
    : view_(&snapshot), order_(servers_by_power_efficiency(snapshot)) {}

void PlanningModel::refresh(const datacenter::Cluster& cluster) {
  DataCenterSnapshot& snap = own_;
  view_ = &own_;
  const std::size_t server_count = cluster.server_count();
  const std::span<const datacenter::Server> servers = cluster.servers();

  // Spec fields: a server's capacity, memory and power model are fixed when
  // it joins the cluster, so they are copied once per fleet.
  if (source_ != &cluster || snap.servers.size() != server_count) {
    source_ = &cluster;
    snap.servers.resize(server_count);
    for (ServerId id = 0; id < server_count; ++id) {
      const datacenter::Server& srv = servers[id];
      ServerSnapshot& s = snap.servers[id];
      s.id = id;
      s.max_capacity_ghz = srv.max_capacity_ghz();
      s.memory_mb = srv.memory_mb();
      s.max_power_w = srv.power_model().max_power_w();
      s.idle_power_w = srv.power_model().active_power_w(1.0, 0.0);
      s.sleep_power_w = srv.power_model().sleep_w;
      s.power_efficiency_ghz_per_w = srv.power_efficiency_ghz_per_w();
    }
    order_ = servers_by_power_efficiency(snap);
  }

  // Dynamic server state, and the layout (a topology can be installed at
  // any time; copying it is a couple of array reads per server).
  const datacenter::Topology& topo = cluster.topology();
  for (ServerId id = 0; id < server_count; ++id) {
    const datacenter::Server& srv = servers[id];
    ServerSnapshot& s = snap.servers[id];
    s.active = srv.active();
    s.failed = srv.failed();
    s.rack = topo.rack_of(id);
    s.pod = topo.pod_of(id);
    const std::span<const VmId> hosted = cluster.vms_on(id);
    s.hosted.assign(hosted.begin(), hosted.end());
  }
  const std::size_t rack_count = topo.empty() ? 0 : topo.rack_count();
  const std::size_t pod_count = topo.empty() ? 0 : topo.pod_count();
  snap.racks.resize(rack_count);
  for (RackId rack = 0; rack < rack_count; ++rack) {
    RackSnapshot& r = snap.racks[rack];
    r.id = rack;
    r.pod = topo.pod_of_rack(rack);
    r.shared_power_w = topo.rack_shared_power_w(rack);
    const auto members = topo.servers_in(rack);
    r.members.assign(members.begin(), members.end());
  }
  snap.pods.resize(pod_count);
  for (PodId pod = 0; pod < pod_count; ++pod) {
    snap.pods[pod] = PodSnapshot{pod, topo.pod_shared_power_w(pod)};
  }

  const std::size_t vm_count = cluster.vm_count();
  snap.vms.resize(vm_count);
  for (VmId id = 0; id < vm_count; ++id) {
    const datacenter::Vm& vm = cluster.vm(id);
    snap.vms[id] = VmSnapshot{id, vm.cpu_demand_ghz, vm.memory_mb, cluster.vm_retired(id)};
  }

  audit::planning_model(snap, order_, cluster);
}

WorkingPlacement& PlanningModel::fresh_placement() {
  placement_.reset(*view_);
  return placement_;
}

WorkingPlacement& PlanningModel::fresh_phantom() {
  phantom_.reset(*view_, WorkingPlacement::Start::kEmpty);
  return phantom_;
}

}  // namespace vdc::consolidate
