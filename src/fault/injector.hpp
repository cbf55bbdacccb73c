// The runtime half of fault injection. A `FaultInjector` owns the plan and
// its RNG streams; the simulator's hook points *query* it at each decision
// site ("does this migration abort?", "does this sample get dropped?") and
// obey the answer. Decisions are a pure function of (plan, seed, per-stream
// query sequence), so chaos runs are bit-reproducible across reruns and
// thread counts.
//
// Two stream families keep that true under the sharded engine:
//   * datacenter kinds (migration abort/slowdown, wake failure, DVFS pin)
//     draw from one stream seeded with the plan seed. Every such query
//     fires from the serial control-plane spine, so the sequence is the
//     same at any shard count.
//   * sensor kinds (drop/spike/stale) draw from a PER-APPLICATION stream
//     whose seed derives from the plan seed and the app index via
//     util::splitmix64. Drop/spike queries fire per request completion
//     inside the app's own (possibly concurrently advancing) event loop;
//     giving each app its own stream makes those queries race-free and the
//     resulting fault sequence invariant to how apps are partitioned into
//     shards. Call `prepare_sensor_streams` (serial) before any concurrent
//     sensor queries.
//
// Zero cost when idle: a default-constructed injector (or one holding an
// empty plan) answers every query through an early-out that never touches
// the RNG, so instrumented hot paths behave identically to uninstrumented
// ones. `rng_draws()` exists so tests can prove that.
//
// Besides counters, the injector keeps a log of discrete fault events
// (aborts, wake failures, crashes — not per-sample sensor noise, which
// would swamp it); owners flush the log into telemetry annotations so
// chaos runs are observable next to the recorded series.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "util/rng.hpp"

namespace vdc::fault {

/// One discrete injected fault, for telemetry annotation.
struct FaultEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kMigrationAbort;
  std::uint32_t target = kAnyTarget;
};

class FaultInjector {
 public:
  /// Disabled injector: every query is a no-fault early-out.
  FaultInjector() = default;
  /// Validates the plan and seeds the private RNG. Throws
  /// std::invalid_argument on a malformed window (empty or inverted
  /// interval, probability outside [0,1], a kind-specific magnitude or
  /// target that makes no sense), in every build.
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  // ---- datacenter-level queries -------------------------------------------
  /// Does the migration of `vm` (keyed by *source* server) abort at the end
  /// of its copy phase? Counted when it does.
  [[nodiscard]] bool migration_aborts(double now_s, std::uint32_t source_server);
  /// Factor (>= 1) applied to the migration copy duration; 1.0 = nominal.
  [[nodiscard]] double migration_slowdown(double now_s, std::uint32_t source_server);
  /// Does a wake request against `server` fail?
  [[nodiscard]] bool wake_fails(double now_s, std::uint32_t server);
  /// Frequency `server`'s DVFS is pinned at right now, if any.
  [[nodiscard]] std::optional<double> dvfs_pin_ghz(double now_s, std::uint32_t server);

  // ---- application-level (sensor) queries ---------------------------------
  // Each app draws from its own splitmix64-derived stream; queries against
  // different apps never interact, so they are safe from concurrently
  // advancing shard loops once `prepare_sensor_streams` has run.
  /// Ensures streams exist for apps [0, count). Idempotent, grows only.
  /// Serial: call before the simulation starts (owners do this when the
  /// injector is attached).
  void prepare_sensor_streams(std::uint32_t count);
  /// Is this response-time sample of `app` dropped?
  [[nodiscard]] bool sensor_drops(double now_s, std::uint32_t app);
  /// Multiplicative corruption applied to the sample; 1.0 = clean.
  [[nodiscard]] double sensor_spike(double now_s, std::uint32_t app);
  /// Is `app`'s monitor pipeline wedged (harvest must be flagged stale)?
  [[nodiscard]] bool sensor_stale(double now_s, std::uint32_t app);

  // ---- scheduled faults ----------------------------------------------------
  /// Crash windows (kServerCrash) in plan order; owners schedule the
  /// fail/recover transitions on their simulation clock.
  [[nodiscard]] std::vector<FaultWindow> crash_windows() const;
  /// Owners call this when they execute a scheduled crash (counter + log).
  void note_crash(double now_s, std::uint32_t server);
  /// Rack-failure windows (kRackFailure) in plan order; the target is a
  /// rack id the owner resolves through its cluster topology, crashing and
  /// repairing every member together.
  [[nodiscard]] std::vector<FaultWindow> rack_failure_windows() const;
  /// Owners call this when they execute a scheduled rack failure.
  void note_rack_failure(double now_s, std::uint32_t rack);

  // ---- observability -------------------------------------------------------
  // Aggregated across the datacenter stream and every sensor stream.
  // Serial: call from the control plane or after the run, never while shard
  // loops are advancing.
  [[nodiscard]] const FaultCounters& counters() const noexcept;
  /// Discrete fault events since construction, in injection order (control
  /// plane kinds only — per-sample sensor noise would swamp the log).
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept { return events_; }
  /// Bernoulli draws consumed so far across every stream; stays 0 while no
  /// window matches — the proof that idle fault hooks cannot perturb a
  /// seeded simulation.
  [[nodiscard]] std::uint64_t rng_draws() const noexcept;

 private:
  /// One application's private sensor-fault stream (see header comment).
  struct SensorStream {
    util::Rng rng{0};
    std::uint64_t draws = 0;
    std::size_t drops = 0;
    std::size_t spikes = 0;
    std::size_t stales = 0;
  };

  /// Draws from `rng` once iff a matching window is active and wins its
  /// coin flip; returns the winning window.
  [[nodiscard]] const FaultWindow* roll(FaultKind kind, double now_s, std::uint32_t target,
                                        util::Rng& rng, std::uint64_t& draws);
  [[nodiscard]] SensorStream& sensor_stream(std::uint32_t app);

  FaultPlan plan_;
  util::Rng rng_{0};  // datacenter kinds; spine-serial by construction
  bool enabled_ = false;
  std::uint64_t draws_ = 0;
  FaultCounters counters_;  // datacenter kinds; sensor kinds live per stream
  mutable FaultCounters aggregated_;  // counters() return storage
  std::vector<SensorStream> sensors_;
  std::vector<FaultEvent> events_;
};

}  // namespace vdc::fault
