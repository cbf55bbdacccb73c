#include "datacenter/topology.hpp"

#include <stdexcept>

namespace vdc::datacenter {

PodId Topology::add_pod(double shared_power_w) {
  if (shared_power_w < 0.0) throw std::invalid_argument("Topology::add_pod: negative shared power");
  pods_.push_back(Pod{.shared_power_w = shared_power_w, .racks = {}});
  return static_cast<PodId>(pods_.size() - 1);
}

RackId Topology::add_rack(PodId pod, double shared_power_w) {
  if (pod >= pods_.size()) throw std::out_of_range("Topology::add_rack: unknown pod");
  if (shared_power_w < 0.0) throw std::invalid_argument("Topology::add_rack: negative shared power");
  racks_.push_back(Rack{.pod = pod, .shared_power_w = shared_power_w, .servers = {}});
  const RackId id = static_cast<RackId>(racks_.size() - 1);
  pods_[pod].racks.push_back(id);
  return id;
}

void Topology::assign(ServerId server, RackId rack) {
  if (server == kNoServer) throw std::invalid_argument("Topology::assign: invalid server id");
  if (rack >= racks_.size()) throw std::out_of_range("Topology::assign: unknown rack");
  if (server >= rack_of_.size()) {
    rack_of_.resize(static_cast<std::size_t>(server) + 1, kNoRack);
  }
  if (rack_of_[server] != kNoRack) {
    throw std::logic_error("Topology::assign: server already assigned to a rack");
  }
  rack_of_[server] = rack;
  racks_[rack].servers.push_back(server);
}

RackId Topology::rack_of(ServerId server) const noexcept {
  if (server == kNoServer || server >= rack_of_.size()) {
    return kNoRack;
  }
  return rack_of_[server];
}

PodId Topology::pod_of(ServerId server) const noexcept {
  const RackId rack = rack_of(server);
  return rack == kNoRack ? kNoPod : racks_[rack].pod;
}

PodId Topology::pod_of_rack(RackId rack) const {
  if (rack >= racks_.size()) throw std::out_of_range("Topology::pod_of_rack: unknown rack");
  return racks_[rack].pod;
}

double Topology::rack_shared_power_w(RackId rack) const {
  if (rack >= racks_.size()) throw std::out_of_range("Topology::rack_shared_power_w: unknown rack");
  return racks_[rack].shared_power_w;
}

double Topology::pod_shared_power_w(PodId pod) const {
  if (pod >= pods_.size()) throw std::out_of_range("Topology::pod_shared_power_w: unknown pod");
  return pods_[pod].shared_power_w;
}

std::span<const ServerId> Topology::servers_in(RackId rack) const {
  if (rack >= racks_.size()) throw std::out_of_range("Topology::servers_in: unknown rack");
  return racks_[rack].servers;
}

std::span<const RackId> Topology::racks_in(PodId pod) const {
  if (pod >= pods_.size()) throw std::out_of_range("Topology::racks_in: unknown pod");
  return pods_[pod].racks;
}

NetworkDistance Topology::distance(ServerId a, ServerId b) const noexcept {
  if (a == b) {
    return NetworkDistance::kSameHost;
  }
  const RackId rack_a = rack_of(a);
  const RackId rack_b = rack_of(b);
  if (rack_a == kNoRack || rack_b == kNoRack) {
    return NetworkDistance::kCrossPod;
  }
  if (rack_a == rack_b) {
    return NetworkDistance::kSameRack;
  }
  if (racks_[rack_a].pod == racks_[rack_b].pod) {
    return NetworkDistance::kSamePod;
  }
  return NetworkDistance::kCrossPod;
}

Topology Topology::uniform(std::size_t pods, std::size_t racks_per_pod,
                           std::size_t servers_per_rack, double rack_shared_power_w,
                           double pod_shared_power_w) {
  if (pods == 0 || racks_per_pod == 0 || servers_per_rack == 0) {
    throw std::invalid_argument("Topology::uniform: dimensions must be positive");
  }
  Topology topo;
  ServerId next = 0;
  for (std::size_t p = 0; p < pods; ++p) {
    const PodId pod = topo.add_pod(pod_shared_power_w);
    for (std::size_t r = 0; r < racks_per_pod; ++r) {
      const RackId rack = topo.add_rack(pod, rack_shared_power_w);
      for (std::size_t s = 0; s < servers_per_rack; ++s) {
        topo.assign(next++, rack);
      }
    }
  }
  return topo;
}

}  // namespace vdc::datacenter
