#include "trace/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace vdc::trace {

std::vector<SectorProfile> default_sector_profiles() {
  std::vector<SectorProfile> sectors;
  sectors.push_back(SectorProfile{
      .name = "manufacturing",
      .base_mean = 0.20,
      .base_spread = 0.06,
      .diurnal_amplitude = 0.25,
      .peak_hour = 10.0,
      .peak_width_h = 5.0,
      .second_peak_hour = -1.0,
      .weekend_factor = 0.6,  // plants often run weekend shifts
      .noise_sigma = 0.03,
      .noise_phi = 0.7,
      .burst_probability = 0.001,
      .burst_amplitude = 0.25,
      .burst_decay = 0.6,
  });
  sectors.push_back(SectorProfile{
      .name = "telecom",
      .base_mean = 0.25,
      .base_spread = 0.08,
      .diurnal_amplitude = 0.20,
      .peak_hour = 20.0,  // evening traffic peak
      .peak_width_h = 5.0,
      .second_peak_hour = -1.0,
      .weekend_factor = 0.9,  // 24/7 service, weekends barely differ
      .noise_sigma = 0.025,
      .noise_phi = 0.8,
      .burst_probability = 0.002,
      .burst_amplitude = 0.30,
      .burst_decay = 0.5,
  });
  sectors.push_back(SectorProfile{
      .name = "financial",
      .base_mean = 0.12,
      .base_spread = 0.05,
      .diurnal_amplitude = 0.45,
      .peak_hour = 11.0,  // trading hours
      .peak_width_h = 3.0,
      .second_peak_hour = 15.0,  // afternoon session
      .weekend_factor = 0.15,    // markets closed
      .noise_sigma = 0.04,
      .noise_phi = 0.6,
      .burst_probability = 0.003,
      .burst_amplitude = 0.40,
      .burst_decay = 0.6,
  });
  sectors.push_back(SectorProfile{
      .name = "retail",
      .base_mean = 0.15,
      .base_spread = 0.05,
      .diurnal_amplitude = 0.35,
      .peak_hour = 13.0,  // lunchtime shopping
      .peak_width_h = 3.5,
      .second_peak_hour = 19.0,  // after-work shopping
      .weekend_factor = 1.2,     // weekends are the busy days
      .noise_sigma = 0.035,
      .noise_phi = 0.65,
      .burst_probability = 0.002,
      .burst_amplitude = 0.35,
      .burst_decay = 0.6,
  });
  return sectors;
}

namespace {

double gaussian_bump(double hour, double center, double width) {
  // Wrap-around distance on the 24 h circle.
  double d = std::abs(hour - center);
  d = std::min(d, 24.0 - d);
  return std::exp(-0.5 * (d / width) * (d / width));
}

[[noreturn]] void reject(const std::string& field, const std::string& requirement) {
  throw std::invalid_argument("generate_synthetic_trace: " + field + " " + requirement);
}

void validate(const SectorProfile& sector) {
  const std::string prefix = "sector '" + sector.name + "' ";
  const std::pair<const char*, double> finite_fields[] = {
      {"base_mean", sector.base_mean},
      {"base_spread", sector.base_spread},
      {"diurnal_amplitude", sector.diurnal_amplitude},
      {"peak_hour", sector.peak_hour},
      {"peak_width_h", sector.peak_width_h},
      {"second_peak_hour", sector.second_peak_hour},
      {"weekend_factor", sector.weekend_factor},
      {"noise_sigma", sector.noise_sigma},
      {"noise_phi", sector.noise_phi},
      {"burst_probability", sector.burst_probability},
      {"burst_amplitude", sector.burst_amplitude},
      {"burst_decay", sector.burst_decay},
  };
  for (const auto& [field, value] : finite_fields) {
    if (!std::isfinite(value)) reject(prefix + field, "must be finite");
  }
  // The spreads of normal draws must be positive (std::normal_distribution's
  // precondition). A zero diurnal amplitude is a flat sector, which takes
  // its amplitude draw with a unit spread instead.
  if (!(sector.base_spread > 0.0)) reject(prefix + "base_spread", "must be positive");
  if (!(sector.noise_sigma > 0.0)) reject(prefix + "noise_sigma", "must be positive");
  if (sector.diurnal_amplitude < 0.0 ||
      (sector.diurnal_amplitude > 0.0 && !(sector.diurnal_amplitude * 0.2 > 0.0))) {
    reject(prefix + "diurnal_amplitude", "must be zero or positive with a positive 0.2x spread");
  }
  if (!(sector.peak_width_h > 0.0)) reject(prefix + "peak_width_h", "must be positive");
  // Outside these ranges the AR(1) noise or the burst can overflow, and
  // their sum become NaN.
  if (!(std::abs(sector.noise_phi) <= 1.0)) reject(prefix + "noise_phi", "must lie in [-1, 1]");
  if (!(sector.burst_decay >= 0.0 && sector.burst_decay <= 1.0)) {
    reject(prefix + "burst_decay", "must lie in [0, 1]");
  }
  if (!(sector.burst_probability >= 0.0 && sector.burst_probability <= 1.0)) {
    reject(prefix + "burst_probability", "must lie in [0, 1]");
  }
}

/// The per-trace calendar: each sample's hour-of-day and weekend flag, and
/// the sample's slot among the distinct hours-of-day a daily shape is
/// evaluated at. A sample reuses the slot of the sample one day earlier
/// only where their hours are equal bit for bit; otherwise it opens a slot
/// of its own.
struct Calendar {
  std::vector<double> slot_hour;      // hour-of-day of each slot
  std::vector<std::size_t> slot;      // per sample
  std::vector<std::uint8_t> weekend;  // per sample
};

Calendar make_calendar(std::size_t samples, double sample_period_s) {
  Calendar calendar;
  calendar.slot.resize(samples);
  calendar.weekend.resize(samples);
  const double per_day = 86400.0 / sample_period_s;
  const std::size_t lag = per_day < static_cast<double>(samples)
                              ? static_cast<std::size_t>(std::round(per_day))
                              : 0;
  for (std::size_t k = 0; k < samples; ++k) {
    const double t_s = static_cast<double>(k) * sample_period_s;
    const double hour = std::fmod(t_s / 3600.0, 24.0);
    const auto day = static_cast<int>(t_s / 86400.0);  // 0 = Monday
    calendar.weekend[k] = (day % 7) >= 5 ? 1 : 0;
    // A slot's hour is bit-equal to the hour of every sample in it.
    // vdc-lint: float-eq-ok the shape is reused only for a bit-identical hour; that is the contract
    if (lag > 0 && k >= lag && hour == calendar.slot_hour[calendar.slot[k - lag]]) {
      calendar.slot[k] = calendar.slot[k - lag];
    } else {
      calendar.slot[k] = calendar.slot_hour.size();
      calendar.slot_hour.push_back(hour);
    }
  }
  return calendar;
}

}  // namespace

UtilizationTrace generate_synthetic_trace(const SyntheticTraceOptions& options) {
  std::vector<SectorProfile> sectors =
      options.sectors.empty() ? default_sector_profiles() : options.sectors;
  std::vector<double> weights = options.sector_weights;
  if (weights.empty()) weights.assign(sectors.size(), 1.0);
  if (weights.size() != sectors.size()) reject("sector_weights", "must hold one weight per sector");
  for (const double w : weights) {
    if (!std::isfinite(w) || w < 0.0) reject("sector_weights", "must be finite and non-negative");
  }
  const double weight_sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (!(weight_sum > 0.0) || !std::isfinite(weight_sum)) {
    reject("sector_weights", "must have a positive, finite sum");
  }
  if (!(options.sample_period_s > 0.0) || !std::isfinite(options.sample_period_s)) {
    reject("sample_period_s", "must be positive and finite");
  }
  for (const SectorProfile& sector : sectors) validate(sector);

  UtilizationTrace trace(options.servers, options.samples, options.sample_period_s);
  trace.labels.resize(options.servers);
  util::Rng rng(options.seed);
  const Calendar calendar = make_calendar(options.samples, options.sample_period_s);
  std::vector<double> shape(calendar.slot_hour.size());

  for (std::size_t server = 0; server < options.servers; ++server) {
    // Sector assignment by weight.
    double pick = rng.uniform(0.0, weight_sum);
    std::size_t sector_index = 0;
    for (; sector_index + 1 < sectors.size(); ++sector_index) {
      if (pick < weights[sector_index]) break;
      pick -= weights[sector_index];
    }
    const SectorProfile& sector = sectors[sector_index];
    trace.labels[server] = sector.name;

    const double base =
        std::max(0.02, rng.normal(sector.base_mean, sector.base_spread));
    double amplitude = 0.0;
    if (sector.diurnal_amplitude > 0.0) {
      amplitude =
          std::max(0.0, rng.normal(sector.diurnal_amplitude, sector.diurnal_amplitude * 0.2));
    } else {
      // A flat sector still takes the amplitude's draw (with a unit spread:
      // it is discarded), so each server consumes the same variates.
      (void)rng.normal(0.0, 1.0);
    }
    const double phase_jitter_h = rng.normal(0.0, 0.7);

    // The server's daily shape at each distinct hour-of-day.
    for (std::size_t d = 0; d < shape.size(); ++d) {
      const double hour = calendar.slot_hour[d];
      double diurnal = gaussian_bump(hour, sector.peak_hour + phase_jitter_h,
                                     sector.peak_width_h);
      if (sector.second_peak_hour >= 0.0) {
        diurnal = std::max(diurnal, 0.8 * gaussian_bump(hour, sector.second_peak_hour +
                                                                  phase_jitter_h,
                                                        sector.peak_width_h));
      }
      shape[d] = diurnal;
    }

    double ar_noise = 0.0;
    double burst = 0.0;
    for (std::size_t k = 0; k < options.samples; ++k) {
      const double diurnal = shape[calendar.slot[k]];
      const double level = base + amplitude * diurnal *
                                      (calendar.weekend[k] != 0 ? sector.weekend_factor : 1.0);

      ar_noise = sector.noise_phi * ar_noise +
                 rng.normal(0.0, sector.noise_sigma);
      burst *= sector.burst_decay;
      if (rng.bernoulli(sector.burst_probability)) {
        burst += sector.burst_amplitude * rng.uniform(0.5, 1.0);
      }

      trace.set(server, k, std::clamp(level + ar_noise + burst, 0.01, 1.0));
    }
  }
  return trace;
}

}  // namespace vdc::trace
