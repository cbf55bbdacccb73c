// The data center: servers, VMs, and the VM->server mapping (single source
// of truth). Provides the demand/capacity/overload queries the consolidators
// need and the power/energy accounting the benchmarks report.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "datacenter/arbitrator.hpp"
#include "datacenter/migration.hpp"
#include "datacenter/server.hpp"
#include "datacenter/topology.hpp"

namespace vdc::datacenter {

class Cluster {
 public:
  explicit Cluster(MigrationModel migration_model = {},
                   CpuResourceArbitrator arbitrator = CpuResourceArbitrator(1.0));

  // ---- topology -----------------------------------------------------------
  ServerId add_server(Server server);
  /// Adds a VM, optionally placing it immediately. Unplaced VMs must be
  /// placed before power accounting.
  VmId add_vm(Vm vm, std::optional<ServerId> host = std::nullopt);

  /// Installs the physical rack/pod layout. Shared-infrastructure power is
  /// then charged per rack/pod with >= 1 awake member by
  /// arbitrate_and_power_w, and migrations pay the network tier the
  /// topology says they cross. An empty topology (the default) is the flat
  /// pre-topology world and changes nothing.
  void set_topology(Topology topology) { topology_ = std::move(topology); }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  [[nodiscard]] std::size_t server_count() const noexcept { return servers_.size(); }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  /// Every server in id order, for flat passes over the fleet.
  [[nodiscard]] std::span<const Server> servers() const noexcept { return servers_; }
  [[nodiscard]] const Server& server(ServerId id) const;
  [[nodiscard]] Server& server(ServerId id);
  [[nodiscard]] const Vm& vm(VmId id) const;
  [[nodiscard]] Vm& vm(VmId id);
  [[nodiscard]] ServerId host_of(VmId id) const;
  [[nodiscard]] std::span<const VmId> vms_on(ServerId id) const;

  // ---- placement ----------------------------------------------------------
  /// Places an unplaced VM (no migration cost).
  void place(VmId vm, ServerId host);
  /// Re-maps a placed VM, logging the migration at simulated time `now_s`.
  /// A no-op (not logged) when the VM is already on `host`.
  void migrate(VmId vm, ServerId host, double now_s = 0.0);
  [[nodiscard]] const MigrationLog& migration_log() const noexcept { return migrations_; }
  [[nodiscard]] const MigrationModel& migration_model() const noexcept { return migration_model_; }

  // ---- aggregate queries --------------------------------------------------
  [[nodiscard]] double server_cpu_demand_ghz(ServerId id) const;
  [[nodiscard]] double server_memory_used_mb(ServerId id) const;
  /// Demand exceeds the server's capacity at max frequency (or the server
  /// sleeps while hosting VMs).
  [[nodiscard]] bool overloaded(ServerId id) const;
  [[nodiscard]] std::vector<ServerId> overloaded_servers() const;
  [[nodiscard]] std::size_t active_server_count() const;

  // ---- power --------------------------------------------------------------
  /// Applies the arbitrator to every active server: sets the DVFS frequency
  /// for the current demands (when `dvfs` is true; max frequency otherwise)
  /// and returns total power. Sleeping servers contribute sleep power.
  double arbitrate_and_power_w(bool dvfs = true);
  /// Adds the shared-infrastructure draw to `total_w` and returns the sum:
  /// each rack with >= 1 awake member, then each pod with >= 1 awake
  /// member, in id order. `server_power_w[s]` is server s's own draw; it
  /// feeds the per-rack power conservation audit. A flat cluster returns
  /// `total_w` unchanged. The one shared-draw rule for live power, used by
  /// arbitrate_and_power_w and by the Testbed's work-based power series.
  [[nodiscard]] double add_shared_power_w(double total_w,
                                          std::span<const double> server_power_w) const;

  /// Puts every active server hosting no VMs to sleep; returns how many
  /// were transitioned.
  std::size_t sleep_idle_servers();
  /// Wakes a sleeping server (consolidators call this before placing VMs).
  /// Counted in wake_count() when the server was actually asleep — waking
  /// is a slow, energy-costly transition the optimizer should minimize.
  /// Returns false (and does nothing) when the server has failed: a crashed
  /// box cannot be powered on until repaired.
  bool wake(ServerId id);
  [[nodiscard]] std::size_t wake_count() const noexcept { return wake_count_; }

  // ---- faults -------------------------------------------------------------
  /// Crashes a server: every hosted VM is evicted (left unplaced) and the
  /// server enters kFailed. Returns the evicted VMs so the caller can
  /// re-place them — until it does, they receive no CPU at all.
  std::vector<VmId> fail_server(ServerId id);
  /// Ends a crash: the server leaves kFailed into kSleeping (it reboots
  /// powered down; the optimizer wakes it when it wants the capacity).
  void repair_server(ServerId id);
  /// Crashes every server in a rack (correlated failure: a PDU or ToR
  /// switch loss takes the whole rack down). Returns all evicted VMs.
  std::vector<VmId> fail_rack(RackId rack);
  /// Repairs every failed server in a rack.
  void repair_rack(RackId rack);
  /// VMs currently assigned to no server (crash-evicted or never placed).
  /// Retired VMs are excluded: they left the fleet on purpose and must not
  /// be picked up by the consolidators' homeless-VM re-placement.
  [[nodiscard]] std::vector<VmId> unplaced_vms() const;

  // ---- retirement (horizontal scale-in) -----------------------------------
  /// Permanently removes a VM from service: detaches it from its host and
  /// marks it retired. The slot itself stays — VmIds are positional indices
  /// shared with consolidation snapshots, so deleting the entry would shift
  /// every later id. A retired VM hosts no demand, is skipped by placement
  /// queries, and cannot be placed or migrated again.
  void retire_vm(VmId id);
  [[nodiscard]] bool vm_retired(VmId id) const;
  /// VMs currently in service (not retired).
  [[nodiscard]] std::size_t live_vm_count() const;

 private:
  void check_server(ServerId id) const;
  void check_vm(VmId id) const;
  void detach(VmId vm);

  std::vector<Server> servers_;
  std::vector<Vm> vms_;
  std::vector<bool> retired_;                // per VM; scale-in tombstones
  std::vector<ServerId> host_;               // per VM; kNoServer when unplaced
  std::vector<std::vector<VmId>> hosted_;    // per server
  MigrationModel migration_model_;
  Topology topology_;
  CpuResourceArbitrator arbitrator_;
  MigrationLog migrations_;
  std::size_t wake_count_ = 0;
};

}  // namespace vdc::datacenter
