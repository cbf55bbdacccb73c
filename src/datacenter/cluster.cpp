#include "datacenter/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/dc_audit.hpp"

namespace vdc::datacenter {

Cluster::Cluster(MigrationModel migration_model, CpuResourceArbitrator arbitrator)
    : migration_model_(migration_model), arbitrator_(arbitrator) {}

ServerId Cluster::add_server(Server server) {
  const auto id = static_cast<ServerId>(servers_.size());
  servers_.push_back(std::move(server));
  hosted_.emplace_back();
  return id;
}

VmId Cluster::add_vm(Vm vm, std::optional<ServerId> host) {
  const auto id = static_cast<VmId>(vms_.size());
  vms_.push_back(std::move(vm));
  retired_.push_back(false);
  host_.push_back(kNoServer);
  if (host) place(id, *host);
  return id;
}

const Server& Cluster::server(ServerId id) const {
  check_server(id);
  return servers_[id];
}

Server& Cluster::server(ServerId id) {
  check_server(id);
  return servers_[id];
}

const Vm& Cluster::vm(VmId id) const {
  check_vm(id);
  return vms_[id];
}

Vm& Cluster::vm(VmId id) {
  check_vm(id);
  return vms_[id];
}

ServerId Cluster::host_of(VmId id) const {
  check_vm(id);
  return host_[id];
}

std::span<const VmId> Cluster::vms_on(ServerId id) const {
  check_server(id);
  return hosted_[id];
}

void Cluster::place(VmId vm, ServerId host) {
  check_vm(vm);
  check_server(host);
  if (retired_[vm]) throw std::logic_error("Cluster::place: VM is retired");
  if (host_[vm] != kNoServer) {
    throw std::logic_error("Cluster::place: VM already placed (use migrate)");
  }
  host_[vm] = host;
  hosted_[host].push_back(vm);
}

void Cluster::migrate(VmId vm, ServerId host, double now_s) {
  check_vm(vm);
  check_server(host);
  if (retired_[vm]) throw std::logic_error("Cluster::migrate: VM is retired");
  const ServerId from = host_[vm];
  if (from == kNoServer) throw std::logic_error("Cluster::migrate: VM is not placed");
  if (from == host) return;
  detach(vm);
  host_[vm] = host;
  hosted_[host].push_back(vm);
  const NetworkDistance distance =
      topology_.empty() ? NetworkDistance::kSameRack : topology_.distance(from, host);
  migrations_.add(MigrationRecord{
      .vm = vm,
      .from = from,
      .to = host,
      .time_s = now_s,
      .duration_s = migration_model_.duration_s(vms_[vm].memory_mb, distance),
      .bytes = migration_model_.bytes_moved(vms_[vm].memory_mb),
      .distance = distance,
  });
}

double Cluster::server_cpu_demand_ghz(ServerId id) const {
  check_server(id);
  double total = 0.0;
  for (const VmId vm : hosted_[id]) total += vms_[vm].cpu_demand_ghz;
  return total;
}

double Cluster::server_memory_used_mb(ServerId id) const {
  check_server(id);
  double total = 0.0;
  for (const VmId vm : hosted_[id]) total += vms_[vm].memory_mb;
  return total;
}

bool Cluster::overloaded(ServerId id) const {
  check_server(id);
  const double demand = server_cpu_demand_ghz(id);
  if (!servers_[id].active()) return demand > 0.0;
  return demand > servers_[id].max_capacity_ghz() + 1e-9 ||
         server_memory_used_mb(id) > servers_[id].memory_mb() + 1e-9;
}

std::vector<ServerId> Cluster::overloaded_servers() const {
  std::vector<ServerId> out;
  for (ServerId id = 0; id < servers_.size(); ++id) {
    if (overloaded(id)) out.push_back(id);
  }
  return out;
}

std::size_t Cluster::active_server_count() const {
  return static_cast<std::size_t>(
      std::count_if(servers_.begin(), servers_.end(),
                    [](const Server& s) { return s.active(); }));
}

double Cluster::arbitrate_and_power_w(bool dvfs) {
  double total = 0.0;
  std::vector<double> demands;
  // Per-server draws are only materialized when a topology is installed
  // (for the rack conservation audit); the flat accumulation below is
  // untouched either way so flat-mode totals stay bit-identical.
  const bool racked = !topology_.empty();
  std::vector<double> per_server;
  if (racked) per_server.assign(servers_.size(), 0.0);
  for (ServerId id = 0; id < servers_.size(); ++id) {
    Server& srv = servers_[id];
    if (!srv.active()) {
      audit::server_state(srv);
      const double sleep_power = srv.power_w(0.0);
      audit::server_power(srv, sleep_power);
      total += sleep_power;
      if (racked) per_server[id] = sleep_power;
      continue;
    }
    demands.clear();
    for (const VmId vm : hosted_[id]) demands.push_back(vms_[vm].cpu_demand_ghz);
    double power = 0.0;
    if (dvfs) {
      const ArbitrationResult arb = arbitrator_.arbitrate(srv.cpu(), demands);
      audit::arbitration(srv.cpu(), demands, arb);
      srv.set_frequency(arb.frequency_ghz);
      power = srv.power_w(arb.utilization());
    } else {
      srv.set_frequency(srv.cpu().max_freq_ghz);
      const double demand = server_cpu_demand_ghz(id);
      const double cap = srv.capacity_ghz();
      power = srv.power_w(cap > 0.0 ? std::min(1.0, demand / cap) : 0.0);
    }
    audit::server_state(srv);
    audit::server_power(srv, power);
    total += power;
    if (racked) per_server[id] = power;
  }
  return add_shared_power_w(total, per_server);
}

double Cluster::add_shared_power_w(double total_w, std::span<const double> server_power_w) const {
  // Shared infrastructure: a rack's PDU/cooling/ToR draw is paid while any
  // member is awake; a pod's aggregation draw likewise. A rack the
  // consolidator fully evacuates therefore switches its share off.
  for (RackId rack = 0; rack < topology_.rack_count(); ++rack) {
    double members = 0.0;
    bool awake = false;
    for (const ServerId s : topology_.servers_in(rack)) {
      if (s >= servers_.size()) continue;
      members += server_power_w[s];
      awake = awake || servers_[s].active();
    }
    const double shared = awake ? topology_.rack_shared_power_w(rack) : 0.0;
    audit::rack_power(rack, awake, topology_.rack_shared_power_w(rack), members,
                      members + shared);
    total_w += shared;
  }
  for (PodId pod = 0; pod < topology_.pod_count(); ++pod) {
    bool awake = false;
    for (const RackId rack : topology_.racks_in(pod)) {
      for (const ServerId s : topology_.servers_in(rack)) {
        if (s < servers_.size() && servers_[s].active()) {
          awake = true;
          break;
        }
      }
      if (awake) break;
    }
    if (awake) total_w += topology_.pod_shared_power_w(pod);
  }
  return total_w;
}

std::size_t Cluster::sleep_idle_servers() {
  std::size_t transitioned = 0;
  for (ServerId id = 0; id < servers_.size(); ++id) {
    if (servers_[id].active() && hosted_[id].empty()) {
      servers_[id].set_state(ServerState::kSleeping);
      ++transitioned;
    }
  }
  return transitioned;
}

bool Cluster::wake(ServerId id) {
  check_server(id);
  if (servers_[id].failed()) return false;
  if (!servers_[id].active()) ++wake_count_;
  servers_[id].set_state(ServerState::kActive);
  return true;
}

std::vector<VmId> Cluster::fail_server(ServerId id) {
  check_server(id);
  std::vector<VmId> evicted = hosted_[id];
  for (const VmId vm : evicted) detach(vm);
  servers_[id].set_state(ServerState::kFailed);
  return evicted;
}

void Cluster::repair_server(ServerId id) {
  check_server(id);
  if (servers_[id].failed()) servers_[id].set_state(ServerState::kSleeping);
}

std::vector<VmId> Cluster::fail_rack(RackId rack) {
  std::vector<VmId> evicted;
  for (const ServerId id : topology_.servers_in(rack)) {
    if (id >= servers_.size()) continue;
    std::vector<VmId> from_server = fail_server(id);
    evicted.insert(evicted.end(), from_server.begin(), from_server.end());
  }
  return evicted;
}

void Cluster::repair_rack(RackId rack) {
  for (const ServerId id : topology_.servers_in(rack)) {
    if (id < servers_.size()) repair_server(id);
  }
}

std::vector<VmId> Cluster::unplaced_vms() const {
  std::vector<VmId> out;
  for (VmId id = 0; id < vms_.size(); ++id) {
    if (host_[id] == kNoServer && !retired_[id]) out.push_back(id);
  }
  return out;
}

void Cluster::retire_vm(VmId id) {
  check_vm(id);
  if (retired_[id]) return;
  if (host_[id] != kNoServer) detach(id);
  retired_[id] = true;
  vms_[id].cpu_demand_ghz = 0.0;
}

bool Cluster::vm_retired(VmId id) const {
  check_vm(id);
  return retired_[id];
}

std::size_t Cluster::live_vm_count() const {
  std::size_t live = 0;
  for (VmId id = 0; id < vms_.size(); ++id) {
    if (!retired_[id]) ++live;
  }
  return live;
}

void Cluster::check_server(ServerId id) const {
  if (id >= servers_.size()) throw std::out_of_range("Cluster: bad server id");
}

void Cluster::check_vm(VmId id) const {
  if (id >= vms_.size()) throw std::out_of_range("Cluster: bad VM id");
}

void Cluster::detach(VmId vm) {
  auto& list = hosted_[host_[vm]];
  list.erase(std::remove(list.begin(), list.end(), vm), list.end());
  host_[vm] = kNoServer;
}

}  // namespace vdc::datacenter
