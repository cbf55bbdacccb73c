#include "telemetry/probe.hpp"

#include <stdexcept>
#include <utility>

namespace vdc::telemetry {

void ProbeSet::add(std::string series, std::function<double()> read) {
  if (series.empty()) throw std::invalid_argument("ProbeSet: empty series name");
  if (!read) throw std::invalid_argument("ProbeSet: empty read function");
  probes_.push_back(Probe{std::move(series), std::move(read)});
}

void ProbeSet::sample(Recorder& recorder, double time_s) const {
  for (const Probe& probe : probes_) recorder.append_at(probe.series, time_s, probe.read());
}

PeriodicSampler::PeriodicSampler(sim::Simulation& sim, ProbeSet probes, Recorder& recorder,
                                 double period_s)
    : sim_(sim), probes_(std::move(probes)), recorder_(recorder), period_s_(period_s) {
  if (period_s_ <= 0.0) throw std::invalid_argument("PeriodicSampler: period must be > 0");
}

void PeriodicSampler::start() {
  if (started_) return;
  started_ = true;
  sim_.schedule_after(period_s_, [this] { tick(); });
}

void PeriodicSampler::tick() {
  probes_.sample(recorder_, sim_.now());
  ++samples_;
  sim_.schedule_after(period_s_, [this] { tick(); });
}

}  // namespace vdc::telemetry
