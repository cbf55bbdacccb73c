#include "datacenter/cluster.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "check/dc_audit.hpp"

namespace vdc::datacenter {

Cluster::Cluster(MigrationModel migration_model, CpuResourceArbitrator arbitrator, bool dvfs)
    : migration_model_(migration_model), arbitrator_(arbitrator), dvfs_(dvfs) {}

ServerId Cluster::add_server(Server server) {
  const auto id = static_cast<ServerId>(servers_.size());
  const ServerState state = server.state();
  servers_.push_back(std::move(server));
  hosted_.emplace_back();
  if (state == ServerState::kActive) {
    awake_.push_back(id);
  } else {
    power_down(id, state);
  }
  return id;
}

VmId Cluster::add_vm(Vm vm, std::optional<ServerId> host) {
  if (host) check_target(*host, "Cluster::add_vm");
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
  check_target(host, "Cluster::place");
  if (retired_[vm]) throw std::logic_error("Cluster::place: VM is retired");
  if (host_[vm] != kNoServer) {
    throw std::logic_error("Cluster::place: VM already placed (use migrate)");
  }
  host_[vm] = host;
  hosted_[host].push_back(vm);
}

void Cluster::migrate(VmId vm, ServerId host, double now_s) {
  check_vm(vm);
  check_target(host, "Cluster::migrate");
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
  return server_cpu_demand_ghz(id) > servers_[id].max_capacity_ghz() + 1e-9 ||
         server_memory_used_mb(id) > servers_[id].memory_mb() + 1e-9;
}

std::vector<ServerId> Cluster::overloaded_servers() const {
  std::vector<ServerId> out;
  for (ServerId id = 0; id < servers_.size(); ++id) {
    if (overloaded(id)) out.push_back(id);
  }
  return out;
}

Cluster::StepResult Cluster::step(const StepHooks& hooks) {
  StepResult result;
  double total = 0.0;
  for (const ServerId id : awake_) {
    Server& srv = servers_[id];
    const std::span<const VmId> hosted = hosted_[id];
    demands_.clear();
    double memory_mb = 0.0;
    for (const VmId vm : hosted) {
      demands_.push_back(vms_[vm].cpu_demand_ghz);
      memory_mb += vms_[vm].memory_mb;
    }
    ArbitrationResult& arb = arbitration_;
    arbitrator_.arbitrate_into(srv.cpu(), demands_, arb);
    audit::arbitration(srv.cpu(), demands_, arb);
    if (!dvfs_) arb.frequency_ghz = srv.cpu().max_freq_ghz;
    const std::optional<double> pin = hooks.dvfs_pin ? hooks.dvfs_pin(id) : std::nullopt;
    if (pin) arb.frequency_ghz = *pin;
    srv.set_frequency(arb.frequency_ghz);
    const double capacity = srv.capacity_ghz();
    if (pin) {
      // The arbitrator's grants assumed its own frequency; the hypervisor
      // cannot grant cycles a stuck CPU will not deliver.
      double granted = 0.0;
      for (const double g : arb.allocations_ghz) granted += g;
      if (granted > capacity && granted > 0.0) {
        const double scale = capacity / granted;
        for (double& g : arb.allocations_ghz) g *= scale;
      }
    }
    if (hooks.grant) {
      for (std::size_t h = 0; h < hosted.size(); ++h) {
        hooks.grant(hosted[h], arb.allocations_ghz[h]);
      }
    }
    const double utilization =
        capacity > 0.0 ? std::min(1.0, arb.total_demand_ghz / capacity) : 0.0;
    const double power = srv.power_w(utilization);
    audit::server_state(srv);
    audit::server_power(srv, power);
    total += power;
    // overloaded(id), from the sums already in hand.
    if (arb.total_demand_ghz > srv.max_capacity_ghz() + 1e-9 ||
        memory_mb > srv.memory_mb() + 1e-9) {
      ++result.overloaded_servers;
    }
  }
  result.awake_servers = awake_.size();
  result.awake_power_w = add_shared_power_w(total);
  return result;
}

double Cluster::add_shared_power_w(double total_w) {
  // Shared infrastructure: a rack's PDU/cooling/ToR draw is paid while any
  // member is awake; a pod's aggregation draw likewise. A rack the
  // consolidator fully evacuates therefore switches its share off.
  if (topology_.empty()) return total_w;
  lit_racks_.assign(topology_.rack_count(), 0);
  for (const ServerId s : awake_) {
    const RackId rack = topology_.rack_of(s);
    if (rack != kNoRack) lit_racks_[rack] = 1;
  }
  for (RackId rack = 0; rack < topology_.rack_count(); ++rack) {
    if (lit_racks_[rack] != 0) total_w += topology_.rack_shared_power_w(rack);
  }
  for (PodId pod = 0; pod < topology_.pod_count(); ++pod) {
    const std::span<const RackId> racks = topology_.racks_in(pod);
    if (std::any_of(racks.begin(), racks.end(),
                    [this](RackId rack) { return lit_racks_[rack] != 0; })) {
      total_w += topology_.pod_shared_power_w(pod);
    }
  }
  return total_w;
}

std::size_t Cluster::sleep_idle_servers() {
  std::size_t transitioned = 0;
  for (const ServerId id : awake_) {
    if (hosted_[id].empty()) {
      power_down(id, ServerState::kSleeping);
      ++transitioned;
    }
  }
  std::erase_if(awake_, [this](ServerId id) { return !servers_[id].active(); });
  return transitioned;
}

bool Cluster::wake(ServerId id) {
  check_server(id);
  if (servers_[id].failed()) return false;
  if (!servers_[id].active()) {
    ++wake_count_;
    servers_[id].set_state(ServerState::kActive);
    awake_.insert(std::lower_bound(awake_.begin(), awake_.end(), id), id);
  }
  return true;
}

std::vector<VmId> Cluster::fail_server(ServerId id) {
  check_server(id);
  std::vector<VmId> evicted = hosted_[id];
  for (const VmId vm : evicted) detach(vm);
  if (servers_[id].active()) awake_.erase(std::lower_bound(awake_.begin(), awake_.end(), id));
  power_down(id, ServerState::kFailed);
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

void Cluster::check_target(ServerId id, const char* caller) const {
  check_server(id);
  if (!servers_[id].active()) {
    throw std::logic_error(std::string(caller) + ": target server is not active (wake it first)");
  }
}

void Cluster::power_down(ServerId id, ServerState state) {
  Server& srv = servers_[id];
  srv.set_state(state);
  // Where an empty arbitration leaves a server; it wakes at this frequency.
  srv.set_frequency(dvfs_ ? srv.cpu().frequency_for_demand_ghz(0.0) : srv.cpu().max_freq_ghz);
}

void Cluster::detach(VmId vm) {
  auto& list = hosted_[host_[vm]];
  list.erase(std::remove(list.begin(), list.end(), vm), list.end());
  host_[vm] = kNoServer;
}

}  // namespace vdc::datacenter
