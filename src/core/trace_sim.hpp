// Trace-driven large-scale data-center simulation (Section VI-B): each
// server series of the utilization trace becomes the CPU demand of one VM;
// the servers are drawn from the three simulator CPU classes; the
// consolidation algorithm runs on a long period with DVFS power accounting
// every trace sample in between. This is the engine behind Figure 6.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/power_optimizer.hpp"
#include "datacenter/cluster.hpp"
#include "trace/trace.hpp"

namespace vdc::core {

struct TraceSimConfig {
  /// How many VMs (trace series) to simulate; must not exceed the trace's
  /// server count.
  std::size_t num_vms = 100;
  std::uint64_t seed = 42;
  /// Server inventory (the paper generates 3,000 simulated servers and
  /// gives every data center "enough inactive servers"). The pool is the
  /// same for every VM count, which is what makes per-VM energy grow with
  /// the data-center size: the limited supply of power-efficient machines
  /// is exhausted first.
  std::size_t pool_size = 3000;
  double quad_3ghz_fraction = 0.05;   ///< most efficient class
  double dual_2ghz_fraction = 0.45;   ///< remainder is dual-1.5GHz
  /// Long-time-scale optimizer invocation period (the paper: hours).
  double consolidation_period_s = 4.0 * 3600.0;
  ConsolidationAlgorithm algorithm = ConsolidationAlgorithm::kIpac;
  /// DVFS between optimizer invocations. The paper couples IPAC with the
  /// DVFS-capable response-time controller, while pMapper runs at fixed
  /// frequency — keep that pairing for the Figure-6 comparison and flip it
  /// for the DVFS ablation.
  bool dvfs = true;
  double utilization_target = 0.8;
  consolidate::IpacOptions ipac;
  /// Per-VM peak demand (GHz): trace utilization is scaled by a peak drawn
  /// uniformly from this range (the original servers' speeds are unknown).
  double vm_peak_lo_ghz = 1.0;
  double vm_peak_hi_ghz = 2.5;
  /// Per-VM memory in MB, drawn uniformly from these choices.
  std::vector<double> vm_memory_choices_mb = {512.0, 1024.0, 1536.0, 2048.0};
  /// Optional observer invoked after every trace sample with the live
  /// cluster state (diagnostics, custom metrics, time-series dumps).
  std::function<void(const datacenter::Cluster&, std::size_t sample)> sample_probe;
  /// Energy cost of waking a server from the sleep/off state (boot or
  /// resume burns near-peak power for tens of seconds). Charged per wake
  /// transition.
  double server_wake_energy_wh = 2.0;
  /// On-demand overload mitigation on the short time scale (Section III's
  /// integration with the authors' Co-Con work): when enabled, an
  /// OverloadGuard runs every trace sample and relieves servers that stay
  /// overloaded, instead of waiting for the next optimizer invocation.
  bool on_demand_overload_guard = false;
  /// Proactive consolidation: pack VMs by their *forecast peak* demand
  /// over the next invocation period instead of the instantaneous demand
  /// (see trace/forecast.hpp). kNone reproduces the paper's reactive
  /// behavior.
  enum class Forecast { kNone, kRecentPeak, kDiurnalPeak };
  Forecast forecast = Forecast::kNone;
  double forecast_safety = 1.05;
  /// Physical layout of the server pool, built by the caller against the
  /// `pool_size` server ids (e.g. datacenter::Topology::uniform). Empty —
  /// the default — keeps the simulation flat and its outputs byte-identical
  /// to the pre-topology simulator.
  datacenter::Topology topology;
  /// Budgeted rack-aware consolidation (effective only with a non-empty
  /// topology). When enabled, the cluster also executes migrations with the
  /// rack-aware transfer model (distance-dependent durations) and the run
  /// charges migration energy into the energy totals.
  consolidate::RackAwareOptions rack;
};

struct TraceSimResult {
  double total_energy_wh = 0.0;
  double energy_wh_per_vm = 0.0;
  std::size_t migrations = 0;
  /// Relief migrations performed by the on-demand overload guard (subset
  /// semantics: not included in `migrations`, which counts optimizer moves).
  std::size_t guard_migrations = 0;
  std::size_t optimizer_invocations = 0;
  /// Sleeping->active transitions (each charged server_wake_energy_wh).
  std::size_t server_wakes = 0;
  std::size_t final_active_servers = 0;
  std::size_t peak_active_servers = 0;
  /// Fraction of (server, sample) pairs with demand above capacity — the
  /// SLA-risk proxy in the large-scale simulation.
  double overload_fraction = 0.0;
  /// Energy burned by live migrations (Wh): each migration-log record's
  /// distance-dependent duration times the migration power draw. Counted
  /// into `total_energy_wh` only when `rack.enabled` — flat runs keep the
  /// historical totals bit for bit.
  double migration_energy_wh = 0.0;
  /// Cluster power at every trace sample (W).
  std::vector<double> power_series_w;
};

class TraceDrivenSimulator {
 public:
  explicit TraceDrivenSimulator(const trace::UtilizationTrace& trace);

  /// Runs one full pass over the trace. Deterministic in config.seed.
  [[nodiscard]] TraceSimResult run(const TraceSimConfig& config) const;

 private:
  const trace::UtilizationTrace* trace_;
};

}  // namespace vdc::core
