#include "consolidate/working_placement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "consolidate/slack_index.hpp"

namespace vdc::consolidate {

namespace {

/// Neumaier-compensated accumulation: keeps the running fleet power exact
/// to the last bit across millions of add/remove deltas, so the O(1)
/// estimate tracks the naive full scan instead of drifting.
void compensated_add(double& total, double& compensation, double delta) {
  const double t = total + delta;
  if (std::abs(total) >= std::abs(delta)) {
    compensation += (total - t) + delta;
  } else {
    compensation += (delta - t) + total;
  }
  total = t;
}

}  // namespace

WorkingPlacement::WorkingPlacement(const DataCenterSnapshot& snapshot) { reset(snapshot); }

void WorkingPlacement::reset(const DataCenterSnapshot& snapshot, Start start) {
  snapshot_ = &snapshot;
  const std::size_t vm_count = snapshot.vms.size();
  const std::size_t server_count = snapshot.servers.size();
  host_.assign(vm_count, datacenter::kNoServer);
  original_.assign(vm_count, datacenter::kNoServer);
  slot_.assign(vm_count, 0);
  hosted_.resize(server_count);
  for (std::vector<VmId>& list : hosted_) list.clear();
  ptrs_valid_ = false;
  demand_.assign(server_count, 0.0);
  memory_.assign(server_count, 0.0);
  power_.assign(server_count, 0.0);
  power_total_w_ = 0.0;
  power_compensation_w_ = 0.0;
  occupied_count_ = 0;
  rack_occupied_.assign(snapshot.racks.size(), 0);
  pod_occupied_.assign(snapshot.pods.size(), 0);
  occupied_rack_count_ = 0;
  slack_observer_ = nullptr;

  if (start == Start::kSnapshot) {
    for (const ServerSnapshot& server : snapshot.servers) {
      for (const VmId vm : server.hosted) {
        const VmSnapshot& info = snapshot.vm(vm);
        host_.at(vm) = server.id;
        original_.at(vm) = server.id;
        slot_[vm] = static_cast<std::uint32_t>(hosted_[server.id].size());
        hosted_[server.id].push_back(vm);
        demand_[server.id] += info.cpu_demand_ghz;
        memory_[server.id] += info.memory_mb;
      }
    }
  }
  for (const ServerSnapshot& server : snapshot.servers) {
    if (!hosted_[server.id].empty()) ++occupied_count_;
    power_[server.id] = power_contribution_w(server.id);
    compensated_add(power_total_w_, power_compensation_w_, power_[server.id]);
  }
  if (!snapshot.racks.empty()) {
    for (const ServerSnapshot& server : snapshot.servers) {
      if (hosted_[server.id].empty()) continue;
      if (server.rack != datacenter::kNoRack) ++rack_occupied_[server.rack];
      if (server.pod != datacenter::kNoPod) ++pod_occupied_[server.pod];
    }
    for (const RackSnapshot& rack : snapshot.racks) {
      if (rack_occupied_[rack.id] == 0) continue;
      ++occupied_rack_count_;
      compensated_add(power_total_w_, power_compensation_w_, rack.shared_power_w);
    }
    for (const PodSnapshot& pod : snapshot.pods) {
      if (pod_occupied_[pod.id] == 0) continue;
      compensated_add(power_total_w_, power_compensation_w_, pod.shared_power_w);
    }
  }
}

double WorkingPlacement::power_contribution_w(ServerId server) const {
  const ServerSnapshot& info = snapshot_->server(server);
  if (hosted_[server].empty()) return info.sleep_power_w;
  const double utilization =
      std::min(1.0, demand_[server] / std::max(1e-9, info.max_capacity_ghz));
  return info.idle_power_w + (info.max_power_w - info.idle_power_w) * utilization;
}

void WorkingPlacement::refresh_power(ServerId server) {
  const double fresh = power_contribution_w(server);
  compensated_add(power_total_w_, power_compensation_w_, fresh - power_[server]);
  power_[server] = fresh;
}

// Shared-infrastructure accounting on empty <-> occupied transitions. Flat
// snapshots (no racks) return immediately, so the flat power sum sees the
// exact same sequence of compensated adds as before the topology existed.
void WorkingPlacement::note_occupied(ServerId server) {
  if (snapshot_->racks.empty()) return;
  const ServerSnapshot& info = snapshot_->server(server);
  if (info.rack != datacenter::kNoRack && rack_occupied_[info.rack]++ == 0) {
    ++occupied_rack_count_;
    compensated_add(power_total_w_, power_compensation_w_, snapshot_->racks[info.rack].shared_power_w);
  }
  if (info.pod != datacenter::kNoPod && pod_occupied_[info.pod]++ == 0) {
    compensated_add(power_total_w_, power_compensation_w_, snapshot_->pods[info.pod].shared_power_w);
  }
}

void WorkingPlacement::note_emptied(ServerId server) {
  if (snapshot_->racks.empty()) return;
  const ServerSnapshot& info = snapshot_->server(server);
  if (info.rack != datacenter::kNoRack && --rack_occupied_[info.rack] == 0) {
    --occupied_rack_count_;
    compensated_add(power_total_w_, power_compensation_w_,
                    -snapshot_->racks[info.rack].shared_power_w);
  }
  if (info.pod != datacenter::kNoPod && --pod_occupied_[info.pod] == 0) {
    compensated_add(power_total_w_, power_compensation_w_, -snapshot_->pods[info.pod].shared_power_w);
  }
}

void WorkingPlacement::remove(VmId vm) {
  const ServerId server = host_.at(vm);
  if (server == datacenter::kNoServer) {
    throw std::logic_error("WorkingPlacement::remove: VM is not placed");
  }
  auto& list = hosted_[server];
  // Swap-and-pop: O(1) regardless of how many residents the server has.
  const std::uint32_t slot = slot_[vm];
  const VmId moved = list.back();
  list[slot] = moved;
  slot_[moved] = slot;
  list.pop_back();
  if (ptrs_valid_) {
    auto& ptrs = hosted_ptrs_[server];
    ptrs[slot] = ptrs.back();
    ptrs.pop_back();
  }
  if (list.empty()) {
    --occupied_count_;
    note_emptied(server);
  }
  const VmSnapshot& info = snapshot_->vm(vm);
  demand_[server] -= info.cpu_demand_ghz;
  memory_[server] -= info.memory_mb;
  host_[vm] = datacenter::kNoServer;
  refresh_power(server);
  if (slack_observer_ != nullptr) slack_observer_->update(server, cpu_slack(server));
}

void WorkingPlacement::place(VmId vm, ServerId server) {
  if (host_.at(vm) != datacenter::kNoServer) {
    throw std::logic_error("WorkingPlacement::place: VM already placed");
  }
  if (server >= hosted_.size()) throw std::out_of_range("WorkingPlacement::place: server id");
  auto& list = hosted_[server];
  if (list.empty()) {
    ++occupied_count_;
    note_occupied(server);
  }
  host_[vm] = server;
  slot_[vm] = static_cast<std::uint32_t>(list.size());
  const VmSnapshot& info = snapshot_->vm(vm);
  list.push_back(vm);
  if (ptrs_valid_) hosted_ptrs_[server].push_back(&info);
  demand_[server] += info.cpu_demand_ghz;
  memory_[server] += info.memory_mb;
  refresh_power(server);
  if (slack_observer_ != nullptr) slack_observer_->update(server, cpu_slack(server));
}

bool WorkingPlacement::admits_with(ServerId server, std::span<const VmId> extra,
                                   const ConstraintSet& constraints) const {
  const ServerSnapshot& info = snapshot_->server(server);
  const ConstraintSet::BuiltinProfile& profile = constraints.builtin_profile();
  if (profile.all_builtin) {
    // O(extra): the cached aggregates stand in for the resident sums.
    if (info.failed) return false;
    double demand = demand_.at(server);
    double memory = memory_[server];
    for (const VmId vm : extra) {
      const VmSnapshot& vm_info = snapshot_->vm(vm);
      demand += vm_info.cpu_demand_ghz;
      memory += vm_info.memory_mb;
    }
    if (profile.has_cpu && demand > constraints.cpu_limit_ghz(info) + 1e-9) return false;
    if (profile.has_memory && memory > info.memory_mb + 1e-9) return false;
    return true;
  }
  // Generic path: reuse one scratch vector instead of allocating per call.
  const std::span<const VmSnapshot* const> resident = hosted_snapshots(server);
  scratch_.clear();
  scratch_.reserve(resident.size() + extra.size());
  scratch_.insert(scratch_.end(), resident.begin(), resident.end());
  for (const VmId vm : extra) scratch_.push_back(&snapshot_->vm(vm));
  return constraints.admits(info, scratch_);
}

void WorkingPlacement::materialize_ptrs() const {
  hosted_ptrs_.resize(hosted_.size());
  for (ServerId server = 0; server < hosted_.size(); ++server) {
    auto& ptrs = hosted_ptrs_[server];
    ptrs.clear();
    for (const VmId vm : hosted_[server]) ptrs.push_back(&snapshot_->vm(vm));
  }
  ptrs_valid_ = true;
}

double WorkingPlacement::cpu_slack(ServerId server) const {
  return snapshot_->server(server).max_capacity_ghz - demand_.at(server);
}

PlacementPlan WorkingPlacement::plan(std::span<const VmId> unplaced) const {
  PlacementPlan plan;
  for (VmId vm = 0; vm < host_.size(); ++vm) {
    if (host_[vm] == datacenter::kNoServer) continue;
    if (host_[vm] != original_[vm]) {
      plan.moves.push_back(Move{vm, original_[vm], host_[vm]});
    }
  }
  plan.unplaced.assign(unplaced.begin(), unplaced.end());
  return plan;
}

}  // namespace vdc::consolidate
