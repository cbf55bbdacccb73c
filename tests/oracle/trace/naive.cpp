#include "trace/naive.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace vdc::trace::naive {

namespace {

double gaussian_bump(double hour, double center, double width) {
  // Wrap-around distance on the 24 h circle.
  double d = std::abs(hour - center);
  d = std::min(d, 24.0 - d);
  return std::exp(-0.5 * (d / width) * (d / width));
}

}  // namespace

UtilizationTrace generate_synthetic_trace(const SyntheticTraceOptions& options) {
  std::vector<SectorProfile> sectors =
      options.sectors.empty() ? default_sector_profiles() : options.sectors;
  std::vector<double> weights = options.sector_weights;
  if (weights.empty()) weights.assign(sectors.size(), 1.0);
  if (weights.size() != sectors.size()) {
    throw std::invalid_argument("naive::generate_synthetic_trace: weight/sector count mismatch");
  }
  const double weight_sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (!(weight_sum > 0.0)) {
    throw std::invalid_argument("naive::generate_synthetic_trace: weights must be positive");
  }

  UtilizationTrace trace(options.servers, options.samples, options.sample_period_s);
  trace.labels.resize(options.servers);
  util::Rng rng(options.seed);

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
    const double amplitude =
        std::max(0.0, rng.normal(sector.diurnal_amplitude, sector.diurnal_amplitude * 0.2));
    const double phase_jitter_h = rng.normal(0.0, 0.7);

    double ar_noise = 0.0;
    double burst = 0.0;
    for (std::size_t k = 0; k < options.samples; ++k) {
      const double t_s = static_cast<double>(k) * options.sample_period_s;
      const double hour = std::fmod(t_s / 3600.0, 24.0);
      const auto day = static_cast<int>(t_s / 86400.0);  // 0 = Monday
      const bool weekend = (day % 7) >= 5;

      double diurnal = gaussian_bump(hour, sector.peak_hour + phase_jitter_h,
                                     sector.peak_width_h);
      if (sector.second_peak_hour >= 0.0) {
        diurnal = std::max(diurnal, 0.8 * gaussian_bump(hour, sector.second_peak_hour +
                                                                  phase_jitter_h,
                                                        sector.peak_width_h));
      }
      double level = base + amplitude * diurnal * (weekend ? sector.weekend_factor : 1.0);

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

}  // namespace vdc::trace::naive
