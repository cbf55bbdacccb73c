// Sampling probes: named gauges read once per control period into a
// Recorder. A ProbeSet is the pull-side complement to the push-side
// `Recorder::append` — components expose cheap `read()` lambdas (server
// power, DVFS frequency, migrations in flight, ...) and whoever owns the
// period boundary calls `sample()`.
//
// `PeriodicSampler` self-schedules the sampling on a Simulation for
// experiments that have no natural tick of their own.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "telemetry/recorder.hpp"

namespace vdc::telemetry {

struct Probe {
  std::string series;
  std::function<double()> read;
};

class ProbeSet {
 public:
  /// Registers a gauge; `read` must stay valid for the set's lifetime.
  void add(std::string series, std::function<double()> read);

  /// Reads every probe once, appending into its series of `recorder`
  /// stamped with `time_s` (simulation now()), so the tsdb files each
  /// sample under simulated time.
  void sample(Recorder& recorder, double time_s) const;

  [[nodiscard]] std::size_t size() const noexcept { return probes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return probes_.empty(); }
  [[nodiscard]] const std::vector<Probe>& probes() const noexcept { return probes_; }

 private:
  std::vector<Probe> probes_;
};

/// Samples a ProbeSet into a Recorder every `period_s`, first at
/// now + period (aligned with how control loops tick). The sampler, the
/// probe set's gauges, the recorder, and the simulation must all outlive
/// the run.
class PeriodicSampler {
 public:
  PeriodicSampler(sim::Simulation& sim, ProbeSet probes, Recorder& recorder,
                  double period_s);

  /// Schedules the first sample; call once before running the simulation.
  void start();

  [[nodiscard]] std::size_t samples_taken() const noexcept { return samples_; }
  [[nodiscard]] double period_s() const noexcept { return period_s_; }

 private:
  void tick();

  sim::Simulation& sim_;
  ProbeSet probes_;
  Recorder& recorder_;
  double period_s_;
  std::size_t samples_ = 0;
  bool started_ = false;
};

}  // namespace vdc::telemetry
