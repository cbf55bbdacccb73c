// Statistics primitives used throughout the simulator and benchmarks:
// running moments (Welford), exact percentiles and per-window accumulators.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vdc::util {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  /// Mean of the samples seen so far; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact quantile of a sample set (linear interpolation between order
/// statistics, the "type 7" definition used by numpy/R). q in [0,1].
[[nodiscard]] double exact_quantile(std::span<const double> sorted_values, double q);

/// Convenience: copies, sorts, and evaluates `exact_quantile`.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Accumulator for one bounded window of samples: Welford moments plus the
/// window's samples, so count/min/mean/max are available at every point of
/// the stream and any exact type-7 quantile by selection (nth_element) when
/// asked for. The response-time monitor keeps each control period's
/// statistics in one; its values are bit-identical to RunningStats and
/// util::quantile recomputed over the same samples in the same order. A
/// sample costs one Welford update and one push_back; the selection runs
/// once per window, when it closes.
///
/// NaN samples are rejected with an exception (they would corrupt the
/// selection); ±infinity is accepted. `reset()` recycles the accumulator
/// for the next window without releasing the sample buffer.
class WindowStats {
 public:
  /// Appends one sample; throws std::invalid_argument on NaN.
  void add(double x);
  /// Clears for the next window (the sample buffer keeps its capacity).
  void reset() noexcept {
    moments_.reset();
    samples_.clear();
  }

  [[nodiscard]] std::size_t count() const noexcept { return moments_.count(); }
  [[nodiscard]] bool empty() const noexcept { return moments_.empty(); }
  [[nodiscard]] double mean() const noexcept { return moments_.mean(); }
  [[nodiscard]] double min() const noexcept { return moments_.min(); }
  [[nodiscard]] double max() const noexcept { return moments_.max(); }
  [[nodiscard]] const RunningStats& moments() const noexcept { return moments_; }
  /// Exact quantile (type-7 interpolation over the same order statistics
  /// as util::quantile, so bit-identical to it), O(n) by selection. Reorders
  /// the held samples in place; the multiset, and so every statistic, is
  /// unchanged. Throws on empty or q outside [0,1].
  [[nodiscard]] double quantile(double q);
  /// The same on a copy of the samples, for const readers.
  [[nodiscard]] double quantile(double q) const;

 private:
  RunningStats moments_;
  std::vector<double> samples_;
};

}  // namespace vdc::util
