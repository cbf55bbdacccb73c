// Sharded discrete-event engine: one serial "spine" event loop for the
// control plane plus N per-shard event loops for application workload
// events, advanced concurrently between control-period barriers.
//
// The partitioning rule exploits the structure of the co-simulation: within
// one control period every application's workload events (arrivals, service
// completions, replica boots) touch only that application's own state — its
// PS queues, its RNG streams, its response-time monitor. ALL cross-app
// coupling (MPC decisions, per-server arbitration, consolidation plans,
// migrations, rack power aggregation, supervisor decisions, fault windows)
// is mediated by control-plane events. So applications are partitioned
// across shard loops, every control-plane event lives on the spine, and the
// engine alternates two phases:
//
//   1. Barrier pick: t* = time of the spine's next event (a control tick,
//      optimizer tick, migration phase edge, crash window edge, or external
//      schedule entry).
//   2. Parallel advance: every shard runs its own events up to and
//      including t* on ThreadPool::shared() — no shared state, no locks on
//      the hot path. Then the spine executes its events at t* serially,
//      observing every shard at exactly time t*.
//
// Determinism: shard loops never interact below a barrier, so their
// interleaving is irrelevant; the serial spine phase sees identical state
// regardless of thread count or shard count. Results are bit-identical
// across shard counts and thread counts (test-enforced against one shard on
// one thread). Tie-break policy at a barrier: shard events timestamped
// exactly t* run BEFORE spine events at t* (see DESIGN.md "Sharded engine").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulation.hpp"

namespace vdc::sim {

class ShardedEngine {
 public:
  /// At least one shard loop is required (std::invalid_argument on 0).
  /// `threads` caps the workers used for the parallel shard advance
  /// (0 = hardware concurrency).
  ShardedEngine(std::size_t shard_count, std::size_t threads);

  /// The control-plane loop. External schedule events (setpoint changes,
  /// load steps) must be scheduled here so they execute in the serial phase.
  [[nodiscard]] Simulation& spine() noexcept { return spine_; }
  [[nodiscard]] const Simulation& spine() const noexcept { return spine_; }

  /// The loop owning shard `i`'s workload events.
  [[nodiscard]] Simulation& shard(std::size_t i) noexcept { return shards_[i]; }

  /// Number of shard loops (at least 1).
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Current time. Clocks are in lockstep at every barrier; between
  /// barriers only shard-local callbacks observe their own shard clock.
  [[nodiscard]] double now() const noexcept { return spine_.now(); }

  /// Advances the co-simulation to absolute time `t`: alternates parallel
  /// shard advances with serial spine phases at every spine event time,
  /// then fast-forwards all clocks to `t` (finite, >= now).
  void run_until(double t);

  /// Events executed across the spine and every shard.
  [[nodiscard]] std::uint64_t events_executed() const noexcept;
  /// Events still pending across the spine and every shard.
  [[nodiscard]] std::size_t pending_events() const noexcept;
  /// Barrier synchronizations performed (serial spine phases), for tests
  /// and the perf bench.
  [[nodiscard]] std::uint64_t barriers() const noexcept { return barriers_; }

 private:
  void advance_shards(double t);

  std::size_t threads_;
  std::uint64_t barriers_ = 0;
  Simulation spine_;
  std::vector<Simulation> shards_;
};

}  // namespace vdc::sim
