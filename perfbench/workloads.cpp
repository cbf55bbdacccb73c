// The four workloads, each driven through the simulator's public entry
// points only: core::Testbed for testbed, crowd and fleet, and
// trace::generate_synthetic_trace plus core::TraceDrivenSimulator for
// trace. Every span is taken from out here, around calls into the library.
//
// Testbed workloads are split by marker events on Testbed::simulation().
// Equal timestamps fire in scheduling order, so an "open" marker scheduled
// ahead of a tick fires before it; the open marker schedules a "close"
// marker at the same time, which fires after the tick, and the next open
// marker, which again precedes the next tick. The same markers run in plain
// repetitions (they sample the cluster and the tier queues), so plain and
// traced repetitions execute the same events. Replays of layer functions
// run on copies inside the close markers and are excluded from every span.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "app/multi_tier_app.hpp"
#include "bench.hpp"
#include "control/mpc.hpp"
#include "core/power_optimizer.hpp"
#include "core/sysid_experiment.hpp"
#include "core/testbed.hpp"
#include "core/trace_sim.hpp"
#include "datacenter/arbitrator.hpp"
#include "sim/ps_queue.hpp"
#include "telemetry/recorder.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {
namespace {

using namespace vdc;

/// Replayed calls per marker, spread over the apps / servers by a rotating
/// stride so that wide workloads stay cheap to trace.
constexpr std::size_t kMpcReplaysPerTick = 16;
constexpr std::size_t kArbitrationReplaysPerSample = 64;
/// Control periods before the response-time error counts (controllers
/// start from a fixed allocation and need a few periods to settle).
constexpr double kSettleS = 80.0;
/// Seed of the staging app the response-time model is identified on, the
/// same for every --seed: the model stands for the one offline
/// identification an operator runs, and --seed varies the workload it
/// controls. A per-seed model moved the testbed's energy by 15 % between
/// quartiles over ten seeds, and a fixed one by under 1 %.
constexpr std::uint64_t kStagingSeed = 1000;

/// Replayed results are folded in here so no replay is optimised away.
volatile double g_sink = 0.0;
void sink(double value) { g_sink = g_sink + value; }

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

// ---- Testbed workloads -----------------------------------------------------

struct TestbedSpec {
  std::size_t apps = 8;
  std::size_t servers = 4;
  std::size_t concurrency = 40;
  std::size_t replicas = 1;
  std::size_t shards = 0;
  double optimizer_period_s = 300.0;
  double horizon_s = 1800.0;
  /// > 0: every app's concurrency steps to this for the middle third.
  std::size_t crowd_concurrency = 0;
  /// Back-to-back set-ups per repetition, timed as one block.
  std::size_t setups = 5;
};

/// Segments of the run-phase timeline. kBench is the markers' own sampling
/// of the cluster and the queues, which no library span covers; kReplay is
/// excluded from the run.
enum Phase : std::size_t { kAdvance, kControl, kOptimizer, kBench, kReplay, kPhaseCount };

class TestbedRun {
 public:
  TestbedRun(core::Testbed& testbed, const core::TestbedConfig& config, double horizon_s,
             bool traced, Layers& layers)
      : tb_(testbed), config_(config), horizon_s_(horizon_s), traced_(traced), layers_(layers) {}

  /// Schedules the first markers. Call before the first run_until, so each
  /// marker precedes the tick it brackets.
  void arm() {
    const double period = config_.control_period_s;
    tb_.simulation().schedule(period, [this, period] { open_control(period); });
    if (config_.enable_optimizer) {
      const double opt = config_.optimizer_period_s;
      tb_.simulation().schedule(opt, [this, opt] { open_optimizer(opt); });
    }
  }

  void start_clock() { last_ = Clock::now(); }
  void stop_clock() { mark(kBench); }

  [[nodiscard]] std::uint64_t markers() const noexcept { return markers_; }
  [[nodiscard]] double overload_pct() const {
    return active_samples_ > 0 ? 100.0 * static_cast<double>(overloaded_) /
                                     static_cast<double>(active_samples_)
                               : 0.0;
  }
  [[nodiscard]] std::uint64_t resident_max() const noexcept { return resident_max_; }
  [[nodiscard]] double phase_total(Phase p) const noexcept { return total_[p]; }

  /// Values that only the traced run reports.
  void report() {
    layers_.values["app.resident_jobs_mean"] =
        resident_samples_ > 0 ? resident_sum_ / static_cast<double>(resident_samples_) : 0.0;
    layers_.values["datacenter.active_servers_mean"] =
        ticks_ > 0 ? active_sum_ / static_cast<double>(ticks_) : 0.0;
    layers_.values["control.solves"] = static_cast<double>(solves_);
    layers_.values["control.qp_iterations"] = static_cast<double>(qp_iterations_);
    layers_.values["control.qp_unconverged"] = static_cast<double>(qp_unconverged_);
    layers_.values["consolidate.unplaced"] = static_cast<double>(unplaced_);
    layers_.values["consolidate.vms_planned"] = static_cast<double>(vms_planned_);
  }

 private:
  /// Closes the current phase segment and opens `next` (traced runs only).
  void mark(Phase next) {
    if (!traced_) return;
    const Clock::time_point now = Clock::now();
    const double dt = seconds_between(last_, now);
    total_[phase_] += dt;
    open_[phase_] += dt;
    phase_ = next;
    last_ = now;
  }
  void flush(Phase p, const char* span, double scale) {
    if (open_[p] > 0.0) layers_.spans[span].push_back(open_[p] * scale);
    open_[p] = 0.0;
  }

  void open_control(double t) {
    ++markers_;
    mark(kControl);
    flush(kAdvance, "sim.advance_ms", 1e3);
    sim::Simulation& sim = tb_.simulation();
    sim.schedule(t, [this] { close_tick(/*optimizer=*/false); });
    const double next = t + config_.control_period_s;
    if (next <= horizon_s_) sim.schedule(next, [this, next] { open_control(next); });
  }

  void open_optimizer(double t) {
    ++markers_;
    mark(kOptimizer);
    flush(kAdvance, "sim.advance_ms", 1e3);
    invocations_before_ = tb_.optimizer_invocations();
    sim::Simulation& sim = tb_.simulation();
    sim.schedule(t, [this] { close_tick(/*optimizer=*/true); });
    const double next = t + config_.optimizer_period_s;
    if (next <= horizon_s_) sim.schedule(next, [this, next] { open_optimizer(next); });
  }

  // At an optimizer time both ticks share the timestamp and fire as
  // open-optimizer, optimizer tick, open-control, control tick,
  // close-optimizer, close-control: each phase runs until the next marker.
  void close_tick(bool optimizer) {
    ++markers_;
    mark(kBench);
    flush(kControl, "core.control_tick_ms", 1e3);
    flush(kOptimizer, "core.optimizer_tick_ms", 1e3);
    if (optimizer) {
      if (traced_ && tb_.optimizer_invocations() > invocations_before_) {
        mark(kReplay);
        replay_plan();
      }
    } else {
      sample_cluster();
      sample_queues();
      if (traced_) {
        mark(kReplay);
        replay_mpc();
        replay_arbitration();
      }
      ++ticks_;
    }
    mark(kAdvance);
  }

  void sample_cluster() {
    const datacenter::Cluster& cluster = tb_.cluster();
    std::size_t active = 0;
    for (datacenter::ServerId s = 0; s < cluster.server_count(); ++s) {
      if (cluster.server(s).active()) ++active;
      if (cluster.overloaded(s)) ++overloaded_;
    }
    active_samples_ += active;
    active_sum_ += static_cast<double>(active);
  }

  void sample_queues() {
    for (std::size_t i = 0; i < tb_.app_count(); ++i) {
      const app::MultiTierApp& app = tb_.application(i);
      for (std::size_t j = 0; j < app.tier_count(); ++j) {
        for (std::size_t r = 0; r < app.replica_slots(j); ++r) {
          if (!app.replica_active(j, r)) continue;
          const std::size_t jobs = app.replica_outstanding(j, r);
          resident_max_ = std::max<std::uint64_t>(resident_max_, jobs);
          resident_sum_ += static_cast<double>(jobs);
          ++resident_samples_;
        }
      }
    }
  }

  // MpcController::step on a copy of each sampled app's controller, fed the
  // measurement the live controller just used.
  void replay_mpc() {
    const std::size_t apps = tb_.app_count();
    const std::size_t stride = std::max<std::size_t>(1, apps / kMpcReplaysPerTick);
    for (std::size_t i = ticks_ % stride; i < apps; i += stride) {
      core::AppStack& stack = tb_.app_stack(i);
      const core::ResponseTimeController* controller = stack.controller();
      if (controller == nullptr) continue;
      control::MpcController copy = controller->mpc();
      const double measured = stack.last_measurement();
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> decided = copy.step(measured);
      const Clock::time_point t1 = Clock::now();
      layers_.spans["control.mpc_step_us"].push_back(seconds_between(t0, t1) * 1e6);
      ++solves_;
      qp_iterations_ += copy.diagnostics().qp_iterations;
      if (!copy.diagnostics().qp_converged) ++qp_unconverged_;
      sink(decided.empty() ? 0.0 : decided.front());
    }
  }

  // CpuResourceArbitrator::arbitrate per sampled active server on the live
  // demands, with the testbed's headroom.
  void replay_arbitration() {
    const datacenter::Cluster& cluster = tb_.cluster();
    const datacenter::CpuResourceArbitrator arbitrator(1.1);
    const std::size_t servers = cluster.server_count();
    const std::size_t stride = std::max<std::size_t>(1, servers / kArbitrationReplaysPerSample);
    std::vector<double> demands;
    for (datacenter::ServerId s = static_cast<datacenter::ServerId>(ticks_ % stride);
         s < servers; s += static_cast<datacenter::ServerId>(stride)) {
      if (!cluster.server(s).active()) continue;
      demands.clear();
      for (const datacenter::VmId vm : cluster.vms_on(s)) {
        demands.push_back(cluster.vm(vm).cpu_demand_ghz);
      }
      const Clock::time_point t0 = Clock::now();
      const datacenter::ArbitrationResult result =
          arbitrator.arbitrate(cluster.server(s).cpu(), demands);
      const Clock::time_point t1 = Clock::now();
      layers_.spans["datacenter.arbitrate_us"].push_back(seconds_between(t0, t1) * 1e6);
      sink(result.frequency_ghz);
    }
  }

  // PowerOptimizer::plan with the live optimizer's configuration on the
  // live cluster, right after the tick that ran the real pass.
  void replay_plan() {
    core::PowerOptimizer optimizer(tb_.optimizer().config());
    const Clock::time_point t0 = Clock::now();
    const consolidate::PlacementPlan plan = optimizer.plan(tb_.cluster(), tb_.now());
    const Clock::time_point t1 = Clock::now();
    layers_.spans["consolidate.plan_ms"].push_back(seconds_between(t0, t1) * 1e3);
    unplaced_ += plan.unplaced.size();
    vms_planned_ += tb_.cluster().live_vm_count();
  }

  core::Testbed& tb_;
  const core::TestbedConfig& config_;
  double horizon_s_;
  bool traced_;
  Layers& layers_;

  std::uint64_t markers_ = 0;
  std::uint64_t ticks_ = 0;
  std::size_t invocations_before_ = 0;
  std::uint64_t overloaded_ = 0;
  std::uint64_t active_samples_ = 0;
  double active_sum_ = 0.0;
  std::uint64_t resident_max_ = 0;
  double resident_sum_ = 0.0;
  std::uint64_t resident_samples_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t qp_iterations_ = 0;
  std::uint64_t qp_unconverged_ = 0;
  std::uint64_t unplaced_ = 0;
  std::uint64_t vms_planned_ = 0;

  Phase phase_ = kAdvance;
  Clock::time_point last_{};
  double total_[kPhaseCount] = {};
  double open_[kPhaseCount] = {};
};

double p90_error_pct(const core::Testbed& testbed, const core::TestbedConfig& config) {
  double sum = 0.0;
  std::size_t count = 0;
  const auto first = static_cast<std::size_t>(kSettleS / config.control_period_s);
  for (std::size_t i = 0; i < testbed.app_count(); ++i) {
    const std::vector<double>& series = testbed.response_series(i);
    for (std::size_t k = first; k < series.size(); ++k) {
      sum += std::abs(series[k] / config.setpoint_s - 1.0);
      ++count;
    }
  }
  return count > 0 ? 100.0 * sum / static_cast<double>(count) : 0.0;
}

// Replays every recorded series into a fresh Recorder with the workload's
// telemetry configuration; one sample per series, in ns per append.
void replay_telemetry(const telemetry::Recorder& recorded, const core::TestbedConfig& config,
                      Layers& layers) {
  telemetry::RecorderConfig recorder_config = config.telemetry;
  recorder_config.sample_period_s = config.control_period_s;
  telemetry::Recorder replay(recorder_config);
  std::vector<double>& span = layers.spans["telemetry.append_ns"];
  for (const std::string& name : recorded.series_names()) {
    std::size_t appends = 0;
    Clock::time_point t0{};
    if (recorded.is_vector(name)) {
      const std::vector<std::vector<double>>& rows = recorded.rows(name);
      t0 = Clock::now();
      for (const std::vector<double>& row : rows) replay.append(name, row);
      appends = rows.size();
    } else {
      const std::vector<double>& values = recorded.values(name);
      t0 = Clock::now();
      for (std::size_t k = 0; k < values.size(); ++k) {
        replay.append_at(name, static_cast<double>(k + 1) * config.control_period_s, values[k]);
      }
      appends = values.size();
    }
    const Clock::time_point t1 = Clock::now();
    if (appends > 0) span.push_back(seconds_between(t0, t1) * 1e9 / static_cast<double>(appends));
  }
  layers.values["telemetry.series"] = static_cast<double>(recorded.series_count());
}

Rep run_testbed(const TestbedSpec& spec, std::uint64_t seed, bool traced) {
  Rep rep;
  core::TestbedConfig config;
  config.num_apps = spec.apps;
  config.num_servers = spec.servers;
  config.concurrency = spec.concurrency;
  config.seed = seed;
  config.dvfs = true;
  config.enable_optimizer = true;
  config.optimizer_period_s = spec.optimizer_period_s;
  config.initial_replicas = spec.replicas;
  config.shards = spec.shards;
  // Every workload runs on kThreads = 1 thread: the shards advance one
  // after another and the MPC decide stays serial. Timings of parallel
  // phases swing far more on a shared host, and the benchmark measures
  // per-core efficiency.
  config.shard_threads = kThreads;
  config.parallel_control_min_apps = std::numeric_limits<std::size_t>::max();

  // Set-up, `spec.setups` times back to back in one timed block (the
  // previous Testbed is freed first), so that even a short set-up is timed
  // over a substantial interval: the identification experiment the Testbed
  // would run itself, on a staging app with a fixed seed, then construction
  // with the model supplied. The last Testbed built runs.
  std::unique_ptr<core::Testbed> testbed;
  const app::AppConfig staging =
      app::default_two_tier_app("staging", kStagingSeed, config.concurrency);
  const Clock::time_point setup_begin = Clock::now();
  for (std::size_t k = 0; k < spec.setups; ++k) {
    testbed.reset();
    const Clock::time_point t0 = Clock::now();
    config.model = core::identify_app_model(staging, config.sysid).model;
    const Clock::time_point t1 = Clock::now();
    testbed = std::make_unique<core::Testbed>(config);
    const Clock::time_point t2 = Clock::now();
    rep.layers.spans["core.identify_s"].push_back(seconds_between(t0, t1));
    rep.layers.spans["core.construct_s"].push_back(seconds_between(t1, t2));
  }
  rep.setup_s = seconds_between(setup_begin, Clock::now()) / static_cast<double>(spec.setups);

  if (spec.crowd_concurrency > 0) {
    const double begin = spec.horizon_s / 3.0;
    const double end = 2.0 * spec.horizon_s / 3.0;
    core::Testbed* tb = testbed.get();
    for (std::size_t i = 0; i < spec.apps; ++i) {
      tb->simulation().schedule_window(
          begin, end, [tb, i, n = spec.crowd_concurrency] { tb->set_concurrency(i, n); },
          [tb, i, n = spec.concurrency] { tb->set_concurrency(i, n); });
    }
  }

  TestbedRun run(*testbed, config, spec.horizon_s, traced, rep.layers);
  run.arm();
  const Clock::time_point t3 = Clock::now();
  run.start_clock();
  testbed->run_until(spec.horizon_s);
  run.stop_clock();
  const Clock::time_point t4 = Clock::now();
  rep.run_s = seconds_between(t3, t4);
  rep.sim_seconds = spec.horizon_s;

  // ---- simulated outputs ----------------------------------------------------
  SimOutputs& out = rep.out;
  double energy_j = 0.0;
  for (const double watts : testbed->power_series()) energy_j += watts * config.control_period_s;
  out.energy_kj = energy_j / 1e3;
  out.p90_err_pct = p90_error_pct(*testbed, config);
  out.overload_pct = run.overload_pct();
  out.events = testbed->engine().events_executed() - run.markers();
  out.migrations = testbed->completed_migrations();
  out.plans = testbed->optimizer_invocations();
  out.barriers = testbed->engine().barriers();
  out.resident_jobs_max = run.resident_max();
  for (std::size_t i = 0; i < testbed->app_count(); ++i) {
    const app::MultiTierApp& app = testbed->application(i);
    out.requests += app.completed_requests();
    if (app.issued_requests() != app.completed_requests() + app.requests_in_flight()) {
      rep.errors.push_back("request conservation broken in app " + std::to_string(i));
    }
  }
  const auto expected_samples =
      static_cast<std::size_t>(spec.horizon_s / config.control_period_s + 1e-9);
  if (testbed->power_series().size() != expected_samples) {
    rep.errors.push_back("power series has " + std::to_string(testbed->power_series().size()) +
                         " samples, expected " + std::to_string(expected_samples));
  }
  if (!(out.energy_kj > 0.0) || !std::isfinite(out.energy_kj)) {
    rep.errors.push_back("energy is not positive and finite");
  }
  if (!std::isfinite(out.p90_err_pct)) rep.errors.push_back("p90 error is not finite");

  if (traced) {
    Layers& layers = rep.layers;
    const double replay_s = run.phase_total(kReplay);
    rep.replay_s = replay_s;
    const double spans_s =
        run.phase_total(kAdvance) + run.phase_total(kControl) + run.phase_total(kOptimizer);
    const double work_s = rep.run_s - replay_s;
    layers.values["sim.advance_s"] = run.phase_total(kAdvance);
    layers.values["core.control_tick_s"] = run.phase_total(kControl);
    layers.values["core.optimizer_tick_s"] = run.phase_total(kOptimizer);
    layers.values["sim.advance_pct"] = 100.0 * run.phase_total(kAdvance) / work_s;
    layers.values["core.control_tick_pct"] = 100.0 * run.phase_total(kControl) / work_s;
    layers.values["core.optimizer_tick_pct"] = 100.0 * run.phase_total(kOptimizer) / work_s;
    layers.values["core.unattributed_pct"] = 100.0 * (work_s - spans_s) / work_s;
    layers.values["sim.events_per_s"] =
        static_cast<double>(out.events) / run.phase_total(kAdvance);
    run.report();
    const telemetry::Recorder recorded = testbed->take_recorder();
    replay_telemetry(recorded, config, layers);
  }
  return rep;
}

// ---- trace workload ----------------------------------------------------------

constexpr std::size_t kTraceVms = trace::kPaperServerCount;
constexpr std::size_t kTracePool = kTraceVms * 3 / 2;
constexpr double kTraceConsolidationS = 3600.0;

Rep run_trace(std::uint64_t seed, bool traced) {
  Rep rep;
  // Set-up: trace generation, then simulator construction. At ~0.5 s it
  // needs no repetition within a repetition.
  trace::SyntheticTraceOptions options;
  options.seed = seed;
  const Clock::time_point t0 = Clock::now();
  const trace::UtilizationTrace utilization = trace::generate_synthetic_trace(options);
  const Clock::time_point t1 = Clock::now();
  const core::TraceDrivenSimulator simulator(utilization);
  const Clock::time_point t2 = Clock::now();
  rep.setup_s = seconds_between(t0, t2);
  rep.layers.spans["trace.generate_s"].push_back(seconds_between(t0, t1));
  rep.layers.spans["core.construct_s"].push_back(seconds_between(t1, t2));

  core::TraceSimConfig config;
  config.num_vms = kTraceVms;
  config.pool_size = kTracePool;
  config.seed = seed;
  config.consolidation_period_s = kTraceConsolidationS;
  config.algorithm = core::ConsolidationAlgorithm::kIpac;
  config.dvfs = true;
  const auto every = static_cast<std::size_t>(
      std::max(1.0, config.consolidation_period_s / utilization.sample_period_s()));

  // Traced: the interval between consecutive sample_probe calls is one
  // trace sample (demand update, arbitration and power accounting), or,
  // when the sample ran the optimizer, one consolidation step. The first
  // interval also builds the server pool and places the VMs; it is left
  // unattributed. Replays run inside the probe and are excluded.
  std::vector<double> plan_ms;
  std::vector<double> sample_us;
  std::vector<double> arbitrate_us;
  double replay_s = 0.0;
  double active_sum = 0.0;
  Clock::time_point last{};
  if (traced) {
    config.sample_probe = [&](const datacenter::Cluster& cluster, std::size_t k) {
      const Clock::time_point now = Clock::now();
      const double interval = seconds_between(last, now);
      if (k > 0 && k % every == 0) {
        plan_ms.push_back(interval * 1e3);
      } else if (k > 0) {
        sample_us.push_back(interval * 1e6);
      }
      active_sum += static_cast<double>(cluster.active_server_count());
      const datacenter::CpuResourceArbitrator arbitrator(1.0);
      const std::size_t servers = cluster.server_count();
      const std::size_t stride =
          std::max<std::size_t>(1, servers / kArbitrationReplaysPerSample);
      std::vector<double> demands;
      for (datacenter::ServerId s = static_cast<datacenter::ServerId>(k % stride); s < servers;
           s += static_cast<datacenter::ServerId>(stride)) {
        if (!cluster.server(s).active()) continue;
        demands.clear();
        for (const datacenter::VmId vm : cluster.vms_on(s)) {
          demands.push_back(cluster.vm(vm).cpu_demand_ghz);
        }
        const Clock::time_point a0 = Clock::now();
        const datacenter::ArbitrationResult result =
            arbitrator.arbitrate(cluster.server(s).cpu(), demands);
        const Clock::time_point a1 = Clock::now();
        arbitrate_us.push_back(seconds_between(a0, a1) * 1e6);
        sink(result.frequency_ghz);
      }
      last = Clock::now();
      replay_s += seconds_between(now, last);
    };
  }

  const Clock::time_point t3 = Clock::now();
  last = t3;
  const core::TraceSimResult result = simulator.run(config);
  const Clock::time_point t4 = Clock::now();
  rep.run_s = seconds_between(t3, t4);
  rep.sim_seconds =
      static_cast<double>(utilization.sample_count()) * utilization.sample_period_s();

  SimOutputs& out = rep.out;
  out.energy_kj = result.total_energy_wh * 3.6;
  out.overload_pct = 100.0 * result.overload_fraction;
  out.migrations = result.migrations;
  out.plans = result.optimizer_invocations;

  // Energy is the power series integrated over the samples plus the wake
  // charges; recompute it from the series the simulator returned.
  double energy_wh = 0.0;
  for (const double watts : result.power_series_w) {
    energy_wh += watts * utilization.sample_period_s() / 3600.0;
  }
  energy_wh += static_cast<double>(result.server_wakes) * config.server_wake_energy_wh;
  if (std::abs(energy_wh - result.total_energy_wh) > 1e-9 * result.total_energy_wh) {
    rep.errors.push_back("energy does not match the integrated power series");
  }
  if (result.power_series_w.size() != utilization.sample_count()) {
    rep.errors.push_back("power series does not cover every trace sample");
  }
  if (!(out.energy_kj > 0.0) || !std::isfinite(out.energy_kj)) {
    rep.errors.push_back("energy is not positive and finite");
  }
  if (!(out.overload_pct >= 0.0 && out.overload_pct <= 100.0)) {
    rep.errors.push_back("overload share out of range");
  }

  if (traced) {
    Layers& layers = rep.layers;
    rep.replay_s = replay_s;
    const double work_s = rep.run_s - replay_s;
    layers.spans["consolidate.plan_ms"] = plan_ms;
    layers.spans["trace.sample_us"] = sample_us;
    layers.spans["datacenter.arbitrate_us"] = arbitrate_us;
    layers.values["consolidate.plan_pct"] = 100.0 * sum(plan_ms) / 1e3 / work_s;
    layers.values["trace.sample_pct"] = 100.0 * sum(sample_us) / 1e6 / work_s;
    layers.values["core.unattributed_pct"] =
        100.0 * (work_s - sum(plan_ms) / 1e3 - sum(sample_us) / 1e6) / work_s;
    layers.values["datacenter.active_servers_mean"] =
        active_sum / static_cast<double>(utilization.sample_count());
    layers.values["consolidate.vms_planned"] =
        static_cast<double>(kTraceVms * result.optimizer_invocations);
  }
  return rep;
}

// ---- the table ---------------------------------------------------------------

void require(Rep& rep, bool ok, const std::string& what) {
  if (!ok) rep.errors.push_back("exercise assertion failed: " + what);
}

TestbedSpec testbed_spec() { return TestbedSpec{}; }

TestbedSpec crowd_spec() {
  TestbedSpec spec;
  spec.horizon_s = 900.0;
  spec.crowd_concurrency = 1200;
  return spec;
}

TestbedSpec fleet_spec() {
  TestbedSpec spec;
  spec.apps = 1000;
  spec.servers = 1000;
  spec.concurrency = 2;
  spec.replicas = 2;
  spec.shards = 4;
  spec.optimizer_period_s = 60.0;
  spec.horizon_s = 120.0;
  spec.setups = 48;
  return spec;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> w;
    w.push_back({"testbed", [](std::uint64_t seed, bool traced) {
      Rep rep = run_testbed(testbed_spec(), seed, traced);
      require(rep, rep.out.resident_jobs_max < sim::PsQueue::kFastUpThreshold,
              "testbed stays below the PS queue's virtual-time threshold");
      return rep;
    }});
    w.push_back({"crowd", [](std::uint64_t seed, bool traced) {
      Rep rep = run_testbed(crowd_spec(), seed, traced);
      require(rep, rep.out.resident_jobs_max > sim::PsQueue::kFastUpThreshold,
              "crowd peaks above the PS queue's virtual-time threshold");
      return rep;
    }});
    w.push_back({"fleet", [](std::uint64_t seed, bool traced) {
      Rep rep = run_testbed(fleet_spec(), seed, traced);
      require(rep, rep.out.barriers > 0, "fleet crosses shard barriers");
      require(rep, rep.out.migrations > 0, "fleet migrates VMs");
      return rep;
    }});
    w.push_back({"trace", [](std::uint64_t seed, bool traced) {
      Rep rep = run_trace(seed, traced);
      const std::uint64_t samples = trace::kPaperSampleCount;
      const auto every = static_cast<std::uint64_t>(
          kTraceConsolidationS / trace::kPaperSamplePeriodS);
      require(rep, rep.out.plans == (samples + every - 1) / every,
              "trace runs one plan per consolidation period");
      return rep;
    }});
    return w;
  }();
  return table;
}

}  // namespace perfbench
