#include "fault/injector.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace vdc::fault {
namespace {

// A chaos schedule is itself an input that must be well-formed, or a
// "robustness" run silently tests nothing (a window with probability 0.0
// typo'd from 1.0, a crash window that ends before it starts, a DVFS pin at
// a negative frequency). Checked in every build, checks on or off.
void require(bool ok, const auto&... message) {
  if (ok) return;
  std::ostringstream out;
  out << "FaultInjector: ";
  (out << ... << message);
  throw std::invalid_argument(out.str());
}

void validate(const FaultWindow& w) {
  const std::string kind = to_string(w.kind);
  require(w.start_s >= 0.0, kind, " window starts at ", w.start_s);
  require(w.end_s > w.start_s, kind, " window [", w.start_s, ", ", w.end_s,
          ") is empty or inverted");
  require(w.probability >= 0.0 && w.probability <= 1.0, kind, " probability ", w.probability,
          " outside [0,1]");
  switch (w.kind) {
    case FaultKind::kMigrationSlowdown:
      require(w.magnitude >= 1.0, "slowdown factor ", w.magnitude,
              " would speed migrations up");
      break;
    case FaultKind::kSensorSpike:
      require(w.magnitude > 0.0 && std::isfinite(w.magnitude), "spike factor ", w.magnitude,
              " is not a positive finite multiplier");
      break;
    case FaultKind::kDvfsPin:
      require(w.magnitude > 0.0 && std::isfinite(w.magnitude), "pinned frequency ",
              w.magnitude, " GHz is not positive finite");
      require(w.target != kAnyTarget, "DVFS pin requires an explicit server target");
      break;
    case FaultKind::kServerCrash:
      require(w.target != kAnyTarget, "server crash requires an explicit server target");
      break;
    case FaultKind::kRackFailure:
      require(w.target != kAnyTarget, "rack failure requires an explicit rack target");
      break;
    default:
      break;
  }
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed), enabled_(plan_.enabled()) {
  for (const FaultWindow& w : plan_.windows) validate(w);
}

const FaultWindow* FaultInjector::roll(FaultKind kind, double now_s, std::uint32_t target,
                                       util::Rng& rng, std::uint64_t& draws) {
  if (!enabled_) return nullptr;
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind != kind || !w.covers(now_s, target)) continue;
    if (w.probability >= 1.0) return &w;
    ++draws;
    if (rng.bernoulli(w.probability)) return &w;
  }
  return nullptr;
}

void FaultInjector::prepare_sensor_streams(std::uint32_t count) {
  while (sensors_.size() < count) {
    // Stream seed is a pure function of (plan seed, app index): independent
    // of every other stream and of preparation order.
    const auto app = static_cast<std::uint64_t>(sensors_.size());
    SensorStream stream;
    stream.rng = util::Rng(util::splitmix64(plan_.seed + (app + 1) * util::kSplitMix64Gamma));
    sensors_.push_back(std::move(stream));
  }
}

FaultInjector::SensorStream& FaultInjector::sensor_stream(std::uint32_t app) {
  // Growing here is only safe from serial contexts; concurrent users must
  // have called prepare_sensor_streams up front.
  if (app >= sensors_.size()) prepare_sensor_streams(app + 1);
  return sensors_[app];
}

bool FaultInjector::migration_aborts(double now_s, std::uint32_t source_server) {
  const FaultWindow* w = roll(FaultKind::kMigrationAbort, now_s, source_server, rng_, draws_);
  if (w == nullptr) return false;
  ++counters_.migration_aborts;
  events_.push_back({now_s, FaultKind::kMigrationAbort, source_server});
  return true;
}

double FaultInjector::migration_slowdown(double now_s, std::uint32_t source_server) {
  const FaultWindow* w = roll(FaultKind::kMigrationSlowdown, now_s, source_server, rng_, draws_);
  if (w == nullptr) return 1.0;
  ++counters_.migration_slowdowns;
  events_.push_back({now_s, FaultKind::kMigrationSlowdown, source_server});
  return w->magnitude;
}

bool FaultInjector::wake_fails(double now_s, std::uint32_t server) {
  const FaultWindow* w = roll(FaultKind::kWakeFailure, now_s, server, rng_, draws_);
  if (w == nullptr) return false;
  ++counters_.wake_failures;
  events_.push_back({now_s, FaultKind::kWakeFailure, server});
  return true;
}

std::optional<double> FaultInjector::dvfs_pin_ghz(double now_s, std::uint32_t server) {
  const FaultWindow* w = roll(FaultKind::kDvfsPin, now_s, server, rng_, draws_);
  if (w == nullptr) return std::nullopt;
  ++counters_.dvfs_pins;
  return w->magnitude;
}

bool FaultInjector::sensor_drops(double now_s, std::uint32_t app) {
  if (!enabled_) return false;
  SensorStream& s = sensor_stream(app);
  if (roll(FaultKind::kSensorDrop, now_s, app, s.rng, s.draws) == nullptr) return false;
  ++s.drops;
  return true;
}

double FaultInjector::sensor_spike(double now_s, std::uint32_t app) {
  if (!enabled_) return 1.0;
  SensorStream& s = sensor_stream(app);
  const FaultWindow* w = roll(FaultKind::kSensorSpike, now_s, app, s.rng, s.draws);
  if (w == nullptr) return 1.0;
  ++s.spikes;
  return w->magnitude;
}

bool FaultInjector::sensor_stale(double now_s, std::uint32_t app) {
  if (!enabled_) return false;
  SensorStream& s = sensor_stream(app);
  if (roll(FaultKind::kSensorStale, now_s, app, s.rng, s.draws) == nullptr) return false;
  ++s.stales;
  return true;
}

const FaultCounters& FaultInjector::counters() const noexcept {
  aggregated_ = counters_;
  for (const SensorStream& s : sensors_) {
    aggregated_.sensor_drops += s.drops;
    aggregated_.sensor_spikes += s.spikes;
    aggregated_.stale_periods += s.stales;
  }
  return aggregated_;
}

std::uint64_t FaultInjector::rng_draws() const noexcept {
  std::uint64_t total = draws_;
  for (const SensorStream& s : sensors_) total += s.draws;
  return total;
}

std::vector<FaultWindow> FaultInjector::crash_windows() const {
  std::vector<FaultWindow> out;
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kServerCrash) out.push_back(w);
  }
  return out;
}

void FaultInjector::note_crash(double now_s, std::uint32_t server) {
  ++counters_.server_crashes;
  events_.push_back({now_s, FaultKind::kServerCrash, server});
}

std::vector<FaultWindow> FaultInjector::rack_failure_windows() const {
  std::vector<FaultWindow> out;
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kRackFailure) out.push_back(w);
  }
  return out;
}

void FaultInjector::note_rack_failure(double now_s, std::uint32_t rack) {
  ++counters_.rack_failures;
  events_.push_back({now_s, FaultKind::kRackFailure, rack});
}

}  // namespace vdc::fault
