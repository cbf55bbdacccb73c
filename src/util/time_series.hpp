// Uniformly-sampled time series: the currency of the trace library (CPU
// utilization every 15 minutes) and of benchmark outputs (response time /
// power per control period).
// vdc-lint: orphan-header-ok test-only, kept with its unit tests for now; ROADMAP lists its removal
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/statistics.hpp"

namespace vdc::util {

class TimeSeries {
 public:
  TimeSeries() = default;
  /// `dt` is the sampling period in seconds.
  explicit TimeSeries(double dt) : dt_(dt) {
    if (!(dt > 0.0)) throw std::invalid_argument("TimeSeries: dt must be positive");
  }
  TimeSeries(double dt, std::vector<double> values) : TimeSeries(dt) {
    values_ = std::move(values);
  }

  void append(double value) { values_.push_back(value); }

  [[nodiscard]] double dt() const noexcept { return dt_; }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double duration() const noexcept {
    return dt_ * static_cast<double>(values_.size());
  }

  [[nodiscard]] double operator[](std::size_t i) const { return values_.at(i); }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Value at absolute time t (seconds), clamped to the series range and
  /// piecewise-constant between samples — matches 15-minute trace semantics.
  [[nodiscard]] double at_time(double t) const;

  /// Mean/min/max/std over the whole series.
  [[nodiscard]] RunningStats stats() const;

  /// Integral over time (e.g. power [W] series -> energy [J]).
  [[nodiscard]] double integral() const noexcept;

 private:
  double dt_ = 1.0;
  std::vector<double> values_;
};

}  // namespace vdc::util
