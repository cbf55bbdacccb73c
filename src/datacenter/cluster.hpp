// The data center: servers, VMs, and the VM->server mapping (single source
// of truth). Provides the demand/capacity/overload queries the consolidators
// need, and the one data-center step both simulators run: per-server
// arbitration, DVFS and the awake servers' power (Section IV-B).
#pragma once

#include <functional>
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
  /// `dvfs` lets the step throttle each awake server to the lowest ladder
  /// point that meets its demand; off, every awake server runs at its max
  /// frequency.
  explicit Cluster(MigrationModel migration_model = {},
                   CpuResourceArbitrator arbitrator = CpuResourceArbitrator(1.0),
                   bool dvfs = true);

  // ---- topology -----------------------------------------------------------
  ServerId add_server(Server server);
  /// Adds a VM, optionally placing it immediately (on an active server, as
  /// place() requires). Unplaced VMs must be placed before power accounting.
  VmId add_vm(Vm vm, std::optional<ServerId> host = std::nullopt);

  /// Installs the physical rack/pod layout. Shared-infrastructure power is
  /// then charged per rack/pod with >= 1 awake member by
  /// add_shared_power_w, and migrations pay the network tier the
  /// topology says they cross. An empty topology (the default) is the flat
  /// pre-topology world and changes nothing.
  void set_topology(Topology topology) { topology_ = std::move(topology); }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  [[nodiscard]] std::size_t server_count() const noexcept { return servers_.size(); }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  /// Every server in id order, for flat passes over the fleet.
  [[nodiscard]] std::span<const Server> servers() const noexcept { return servers_; }
  /// Read-only: server state changes go through wake, sleep_idle_servers,
  /// fail and repair, which keep the awake index current.
  [[nodiscard]] const Server& server(ServerId id) const;
  /// The awake (kActive) servers, in id order.
  [[nodiscard]] std::span<const ServerId> awake_servers() const noexcept { return awake_; }
  [[nodiscard]] const Vm& vm(VmId id) const;
  [[nodiscard]] Vm& vm(VmId id);
  [[nodiscard]] ServerId host_of(VmId id) const;
  [[nodiscard]] std::span<const VmId> vms_on(ServerId id) const;

  // ---- placement ----------------------------------------------------------
  /// Places an unplaced VM (no migration cost). The host must be active:
  /// placing onto a sleeping or failed server throws std::logic_error (wake
  /// it first), because step() grants and powers awake servers only.
  void place(VmId vm, ServerId host);
  /// Re-maps a placed VM, logging the migration at simulated time `now_s`.
  /// A no-op (not logged) when the VM is already on `host`. The target must
  /// be active, as for place().
  void migrate(VmId vm, ServerId host, double now_s = 0.0);
  [[nodiscard]] const MigrationLog& migration_log() const noexcept { return migrations_; }
  [[nodiscard]] const MigrationModel& migration_model() const noexcept { return migration_model_; }

  // ---- aggregate queries --------------------------------------------------
  [[nodiscard]] double server_cpu_demand_ghz(ServerId id) const;
  [[nodiscard]] double server_memory_used_mb(ServerId id) const;
  /// Demand exceeds the server's capacity at max frequency, or its VMs
  /// exceed its memory. Only an active server can host VMs.
  [[nodiscard]] bool overloaded(ServerId id) const;
  [[nodiscard]] std::vector<ServerId> overloaded_servers() const;
  [[nodiscard]] std::size_t active_server_count() const noexcept { return awake_.size(); }

  // ---- the data-center step -----------------------------------------------
  /// What one step saw.
  struct StepResult {
    /// Each awake server's model power at its arbitrated utilization, plus
    /// the shared draw (add_shared_power_w). Sleeping and failed servers
    /// add nothing: the paper shuts unused servers down.
    double awake_power_w = 0.0;
    std::size_t awake_servers = 0;
    /// Awake servers whose demand exceeds their capacity at max frequency
    /// or whose VMs exceed their memory (overloaded()).
    std::size_t overloaded_servers = 0;
  };
  /// Optional callbacks into the step, each called in server-id order.
  struct StepHooks {
    /// Actuator fault: the frequency a server's DVFS is stuck at this step,
    /// or nullopt. The grants are rescaled to fit the pinned capacity.
    std::function<std::optional<double>(ServerId)> dvfs_pin;
    /// Receives each hosted VM's grant (GHz).
    std::function<void(VmId, double)> grant;
  };
  /// The lower level of the paper (Section IV-B), and the only code that
  /// arbitrates servers. Visits the awake servers in id order; for each it
  /// arbitrates the hosted demands, sets the DVFS frequency (max when the
  /// cluster was built without DVFS, the pin when `hooks.dvfs_pin` gives
  /// one), grants the allocations, and prices the draw at utilization =
  /// demand / the capacity the server was finally set to. Costs O(awake
  /// servers + their VMs).
  StepResult step(const StepHooks& hooks = {});
  /// Adds the shared-infrastructure draw to `total_w` and returns the sum:
  /// each rack with >= 1 awake member, then each pod with >= 1 awake
  /// member, in id order. A flat cluster returns `total_w` unchanged. The
  /// one shared-draw rule for live power, used by step() and by the
  /// Testbed's work-based power series.
  [[nodiscard]] double add_shared_power_w(double total_w);

  /// Puts every active server hosting no VMs to sleep; returns how many
  /// were transitioned. A server leaving kActive (here or in fail_server)
  /// is set to the frequency an empty arbitration gives, and wakes there.
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
  /// check_server, and the server must be active to receive a VM.
  void check_target(ServerId id, const char* caller) const;
  void detach(VmId vm);
  /// Puts a server into a state other than kActive at the frequency an
  /// empty arbitration gives (the awake index is the caller's to update).
  void power_down(ServerId id, ServerState state);

  std::vector<Server> servers_;
  std::vector<ServerId> awake_;              // kActive servers, ascending id
  std::vector<Vm> vms_;
  std::vector<bool> retired_;                // per VM; scale-in tombstones
  std::vector<ServerId> host_;               // per VM; kNoServer when unplaced
  std::vector<std::vector<VmId>> hosted_;    // per server
  MigrationModel migration_model_;
  Topology topology_;
  CpuResourceArbitrator arbitrator_;
  bool dvfs_;
  MigrationLog migrations_;
  std::size_t wake_count_ = 0;
  // Step scratch, reused across steps: one server's demands and grants, and
  // the racks with an awake member.
  std::vector<double> demands_;
  ArbitrationResult arbitration_;
  std::vector<char> lit_racks_;
};

}  // namespace vdc::datacenter
