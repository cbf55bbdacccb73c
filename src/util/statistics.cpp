#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vdc::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double exact_quantile(std::span<const double> sorted_values, double q) {
  if (sorted_values.empty()) throw std::invalid_argument("exact_quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("exact_quantile: q outside [0,1]");
  const double pos = q * static_cast<double>(sorted_values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return exact_quantile(values, q);
}

void WindowStats::add(double x) {
  if (std::isnan(x)) throw std::invalid_argument("WindowStats: NaN sample");
  moments_.add(x);
  samples_.push_back(x);
}

double WindowStats::quantile(double q) {
  if (samples_.empty()) throw std::invalid_argument("WindowStats::quantile: empty");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("WindowStats::quantile: q outside [0,1]");
  // exact_quantile's interpolation, with the two order statistics it reads
  // found by selection instead of a full sort.
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples_.begin(), nth, samples_.end());
  const double at_lo = *nth;
  // The upper order statistic is min(lo + 1, n - 1): the smallest sample
  // after the lo-th, or the lo-th itself when it is the last.
  const double at_hi =
      nth + 1 == samples_.end() ? at_lo : *std::min_element(nth + 1, samples_.end());
  return at_lo * (1.0 - frac) + at_hi * frac;
}

double WindowStats::quantile(double q) const {
  WindowStats copy = *this;
  return copy.quantile(q);
}

}  // namespace vdc::util
