#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
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

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
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

P2Quantile::P2Quantile(double q) : q_(q) {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("P2Quantile: q outside [0,1]");
  desired_ = {1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0};
  increments_ = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0};
  positions_ = {1.0, 2.0, 3.0, 4.0, 5.0};
}

void P2Quantile::add(double x) noexcept {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) std::sort(heights_.begin(), heights_.end());
    return;
  }
  ++count_;

  std::size_t k = 0;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    for (std::size_t i = 1; i < 5; ++i) {
      if (x < heights_[i]) {
        k = i - 1;
        break;
      }
    }
  }

  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust interior markers toward their desired positions with parabolic
  // (or, if non-monotone, linear) interpolation.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double dp = positions_[i + 1] - positions_[i];
    const double dm = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && dp > 1.0) || (d <= -1.0 && dm < -1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      const double slope_up = (heights_[i + 1] - heights_[i]) / dp;
      const double slope_dn = (heights_[i] - heights_[i - 1]) / (-dm);
      const double candidate =
          heights_[i] + sign / (positions_[i + 1] - positions_[i - 1]) *
                            ((positions_[i] - positions_[i - 1] + sign) * slope_up +
                             (positions_[i + 1] - positions_[i] - sign) * slope_dn);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        // Linear fallback keeps the marker heights monotone.
        const std::size_t j = sign > 0 ? i + 1 : i - 1;
        heights_[i] += sign * (heights_[j] - heights_[i]) / (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const noexcept {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    std::array<double, 5> tmp = heights_;
    std::sort(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(count_));
    const double pos = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = pos - static_cast<double>(lo);
    return tmp[lo] * (1.0 - frac) + tmp[hi] * frac;
  }
  return heights_[2];
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

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: need at least one bin");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
}

void Histogram::add(double x) noexcept {
  if (std::isnan(x)) {
    // NaN belongs to no bin; casting it to an integer is undefined
    // behaviour, so it is counted separately instead of clamped.
    ++invalid_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  // Clamp in floating point BEFORE the integer cast: a cast of ±inf or any
  // value beyond ±2^63 is UB, and (x - lo_) / width reaches both for
  // perfectly reasonable out-of-range samples.
  const double pos = std::clamp((x - lo_) / width, 0.0, static_cast<double>(counts_.size() - 1));
  ++counts_[static_cast<std::size_t>(pos)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i + 1);
}

std::string Histogram::to_string() const {
  std::string out;
  char buf[128];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "[%8.2f, %8.2f): %zu\n", bin_lo(i), bin_hi(i), counts_[i]);
    out += buf;
  }
  return out;
}

}  // namespace vdc::util
