// A simulated multi-tier web application — the RUBBoS-testbed equivalent.
//
// Each tier runs as a replica set of one or more VMs; every replica is
// modelled as a processor-sharing queue whose capacity equals that VM's CPU
// allocation (GHz). A closed population of clients (the `ab` workload
// generator's concurrency level) issues requests that traverse the tiers in
// order; per-tier service demands are heavy-tailed. A deterministic
// dispatcher (least outstanding jobs, seeded tie-break) spreads requests
// across a tier's serving replicas. Response time emerges from queueing, so
// it reacts to CPU allocation exactly the way the paper's controller
// expects: nonlinear, noisy, saturating.
//
// Horizontal scaling contract:
//  * `scale_out` adds a replica in the kBooting state: it consumes its CPU
//    allocation (the VM is up and billed) but serves nothing until the boot
//    delay elapses and it flips to kServing.
//  * `scale_in` drains-then-retires: the victim replica stops receiving new
//    requests (kDraining) and retires once its resident jobs complete. A
//    still-booting replica is the preferred victim and retires immediately.
//  * Replica slots are stable indices; retired slots are reused
//    lowest-free-first, and their `PsQueue` objects are kept alive (capacity
//    0) so no pending simulation event can dangle.
//  * With exactly one serving replica per tier the dispatcher never touches
//    its tie-break RNG and routing is identical to the pre-replication
//    build, bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/ps_queue.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace vdc::app {

/// Service-demand distribution of one tier (bounded Pareto, the classic
/// web-request model). Units: Gcycles per request.
struct TierConfig {
  std::string name = "tier";
  double mean_demand_gcycles = 0.010;  ///< ~10 ms at 1 GHz
  double pareto_alpha = 2.2;           ///< tail index; > 2 keeps variance finite
  double initial_allocation_ghz = 1.0;
  // ---- horizontal scaling -------------------------------------------------
  std::size_t initial_replicas = 1;  ///< replicas serving at start()
  std::size_t max_replicas = 8;      ///< hard cap for scale_out
  double boot_delay_s = 30.0;        ///< kBooting -> kServing latency
};

struct AppConfig {
  std::string name = "app";
  std::vector<TierConfig> tiers;
  std::size_t concurrency = 40;   ///< closed-loop client population
  double think_time_s = 1.0;      ///< exponential think time mean
  /// > 0 switches to an OPEN workload: requests arrive as a Poisson
  /// process at this rate (requests/second) regardless of completions —
  /// the load-balanced-front-end scenario. `concurrency` is ignored.
  double open_arrival_rate_rps = 0.0;
  std::uint64_t seed = 1;
};

/// Returns the paper's testbed default: a two-tier (web + db) application.
[[nodiscard]] AppConfig default_two_tier_app(std::string name, std::uint64_t seed,
                                             std::size_t concurrency = 40);

/// Aggregate replica-set state of one tier, as the supervisory controller
/// sees it. `target` counts replicas committed to serve (serving + booting);
/// draining replicas are already on their way out.
struct ReplicaSetStatus {
  std::size_t target = 1;
  std::size_t serving = 1;
  std::size_t booting = 0;
  std::size_t draining = 0;
  std::size_t max_replicas = 1;
};

class MultiTierApp {
 public:
  /// (completion_time_s, response_time_s) for every finished request.
  using ResponseCallback = std::function<void(double, double)>;
  /// Fires when a drained (or cancelled-while-booting) replica retires.
  using ReplicaRetiredCallback = std::function<void(std::size_t tier, std::size_t slot)>;

  /// Validates the whole config (throws std::invalid_argument): tiers
  /// non-empty, demands positive, pareto_alpha > 1 (the finite-mean rescale
  /// is meaningless at or below 1), think time positive in closed mode, a
  /// non-empty workload (concurrency and arrival rate not both zero), and
  /// sane replica bounds.
  MultiTierApp(sim::Simulation& sim, AppConfig config);

  MultiTierApp(const MultiTierApp&) = delete;
  MultiTierApp& operator=(const MultiTierApp&) = delete;

  /// Starts the client population (call once before running the simulation).
  void start();

  [[nodiscard]] const std::string& name() const noexcept { return config_.name; }
  [[nodiscard]] std::size_t tier_count() const noexcept { return tiers_.size(); }

  /// Per-replica CPU allocation of tier `j` in GHz: every active replica of
  /// the tier gets this capacity. This is the controller's actuator.
  void set_allocation(std::size_t tier, double ghz);
  void set_allocations(std::span<const double> ghz);
  [[nodiscard]] std::vector<double> allocations() const;

  /// Changes the client population (the `ab` concurrency level). Growth
  /// spawns clients immediately; shrinkage retires clients as they finish.
  /// No-op in open-workload mode.
  void set_concurrency(std::size_t n);
  [[nodiscard]] std::size_t concurrency() const noexcept { return target_clients_; }
  /// Clients currently alive (retirement is lazy, so this can briefly
  /// exceed `concurrency()` after a shrink).
  [[nodiscard]] std::size_t active_clients() const noexcept { return active_clients_; }

  /// Changes the Poisson arrival rate (open-workload mode only; throws in
  /// closed mode). 0 pauses new arrivals (resumable); a paused app holds no
  /// pending arrival event, so an otherwise-idle simulation goes quiescent.
  /// A rate change resamples the pending inter-arrival gap at the new rate
  /// (exponential gaps are memoryless, so this is exact).
  void set_arrival_rate(double requests_per_second);
  /// Mode is fixed at construction: open iff open_arrival_rate_rps > 0.
  [[nodiscard]] bool open_workload() const noexcept { return open_mode_; }

  void set_response_callback(ResponseCallback cb) { on_response_ = std::move(cb); }
  void set_replica_retired_callback(ReplicaRetiredCallback cb) {
    on_replica_retired_ = std::move(cb);
  }

  // ---- horizontal scaling -------------------------------------------------

  /// Adds a booting replica to tier `j`; returns its slot index. The new
  /// replica inherits the tier's current per-replica allocation and starts
  /// serving after the tier's boot delay. Throws at max_replicas.
  std::size_t scale_out(std::size_t tier);
  /// Removes one replica from tier `j` (drain-then-retire); returns the
  /// victim slot. Prefers a still-booting replica (retires immediately),
  /// else the serving replica with the fewest outstanding jobs. Throws if
  /// it would leave the tier without any committed replica.
  std::size_t scale_in(std::size_t tier);
  /// Drives the committed replica count (serving + booting) of tier `j`
  /// to `n` via scale_out/scale_in calls. n must be >= 1.
  void set_replicas(std::size_t tier, std::size_t n);

  [[nodiscard]] ReplicaSetStatus replica_status(std::size_t tier) const;
  /// Stable slot count of tier `j` (including free slots).
  [[nodiscard]] std::size_t replica_slots(std::size_t tier) const;
  /// True if slot holds a booting/serving/draining replica.
  [[nodiscard]] bool replica_active(std::size_t tier, std::size_t slot) const;
  /// Allocation of one replica slot (GHz). Booting replicas store it and
  /// apply it when they come up.
  void set_replica_allocation(std::size_t tier, std::size_t slot, double ghz);
  [[nodiscard]] double replica_allocation(std::size_t tier, std::size_t slot) const;
  /// Work completed by one replica slot so far (Gcycles, cumulative across
  /// slot reuse).
  [[nodiscard]] double replica_work_done_gcycles(std::size_t tier, std::size_t slot) const;
  /// Requests currently resident in one replica slot.
  [[nodiscard]] std::size_t replica_outstanding(std::size_t tier, std::size_t slot) const;
  [[nodiscard]] std::uint64_t scale_out_count() const noexcept { return scale_outs_; }
  [[nodiscard]] std::uint64_t scale_in_count() const noexcept { return scale_ins_; }

  [[nodiscard]] std::uint64_t completed_requests() const noexcept { return completed_; }
  /// Requests issued since construction (= completed + in flight).
  [[nodiscard]] std::uint64_t issued_requests() const noexcept { return issued_; }
  /// Requests currently inside some tier (not thinking).
  [[nodiscard]] std::size_t requests_in_flight() const noexcept { return in_flight_; }
  /// Work completed by tier `j` so far (Gcycles, summed over replicas).
  [[nodiscard]] double tier_work_done_gcycles(std::size_t tier) const;

 private:
  /// A request in flight. Requests live in a slab (`requests_`) whose slots
  /// are recycled through a free list, so a steady-state request allocates
  /// nothing here; the slot index travels with each tier job as the PS
  /// queue's caller tag.
  struct Request {
    double start_time_s = 0.0;
    std::size_t current_tier = 0;
  };

  /// One replica slot. Slots are never destroyed once created: a retired
  /// slot goes back to kFree with its queue alive at capacity 0, so stale
  /// simulation events can never reference a dead queue.
  struct Replica {
    enum class State : std::uint8_t { kFree, kBooting, kServing, kDraining };
    std::unique_ptr<sim::PsQueue> queue;
    State state = State::kFree;
    double allocation_ghz = 0.0;
    std::size_t resident = 0;  // requests currently in this replica's queue
    sim::EventId boot_event = sim::kNoEvent;
  };

  struct Tier {
    std::vector<Replica> replicas;
  };

  void spawn_client();
  void client_think();
  void issue_request();
  void schedule_next_arrival();
  /// Sends the request in slab slot `request` to tier `tier`.
  void route_to_tier(std::size_t request, std::size_t tier);
  [[nodiscard]] std::size_t pick_replica(std::size_t tier);
  void on_replica_complete(std::size_t tier, std::size_t slot, std::uint64_t request);
  void finish_request(std::size_t request);
  [[nodiscard]] std::unique_ptr<sim::PsQueue> make_queue(std::size_t tier, std::size_t slot,
                                                         double capacity_ghz);
  void finish_boot(std::size_t tier, std::size_t slot);
  void retire_replica(std::size_t tier, std::size_t slot);
  void audit_tier(std::size_t tier) const;
  [[nodiscard]] Replica& replica_at(std::size_t tier, std::size_t slot);
  [[nodiscard]] const Replica& replica_at(std::size_t tier, std::size_t slot) const;

  sim::Simulation& sim_;
  AppConfig config_;
  util::Rng rng_;
  /// Tie-break stream for the dispatcher, separate from the workload RNG so
  /// that a single-replica app draws exactly the same workload sequence as
  /// the pre-replication build (the dispatcher stream is untouched then).
  util::Rng dispatch_rng_;
  std::vector<Tier> tiers_;
  /// Per-tier service-demand distributions, with their constants computed
  /// once at construction.
  std::vector<util::BoundedPareto> demand_dists_;
  /// Requests resident per tier, maintained by route/complete; audited
  /// against the per-replica resident counts at every scaling event.
  std::vector<std::size_t> tier_resident_;
  /// Request slab, its free slots, and the per-tier demands of slot s at
  /// [s * tier_count(), (s + 1) * tier_count()).
  std::vector<Request> requests_;
  std::vector<std::size_t> free_requests_;
  std::vector<double> demands_;
  std::size_t in_flight_ = 0;
  std::size_t active_clients_ = 0;
  std::size_t target_clients_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t scale_outs_ = 0;
  std::uint64_t scale_ins_ = 0;
  bool started_ = false;
  bool open_mode_ = false;
  sim::EventId arrival_event_ = sim::kNoEvent;
  ResponseCallback on_response_;
  ReplicaRetiredCallback on_replica_retired_;
};

}  // namespace vdc::app
