// Response-time monitor: the sensor of the paper's control loop. Collects
// per-request response times and reports the controlled SLA value once per
// control period. The paper controls the 90-percentile response time "as an
// example SLA metric, but our management solution can be extended to
// control other SLAs such as average or maximum response times" — hence
// the metric selector.
#pragma once

#include <cstddef>
#include <optional>

#include "util/statistics.hpp"

namespace vdc::app {

/// Which SLA statistic the controller tracks.
enum class SlaMetric {
  kQuantile,  ///< a percentile of the period's response times (default p90)
  kMean,      ///< average response time
  kMax,       ///< maximum response time
};

struct PeriodStats {
  double mean = 0.0;
  double quantile = 0.0;  ///< the configured percentile (default 90th)
  double min = 0.0;
  double max = 0.0;
  /// The value of the configured SLA metric — what the controller tracks.
  double controlled = 0.0;
  std::size_t count = 0;
  /// Samples lost to sensor faults this period. A period with count == 0 but
  /// dropped > 0 means the interval elapsed and all its data was lost — a
  /// different situation from "no requests completed" (harvest -> nullopt).
  std::size_t dropped = 0;
  /// The monitor pipeline was wedged this period: the numbers above are the
  /// last values it managed to compute, not fresh measurements. Controllers
  /// must not treat them as new feedback.
  bool stale = false;
};

class ResponseTimeMonitor {
 public:
  /// `q` is the reported quantile (0.9 = the paper's 90-percentile SLA);
  /// `metric` selects which statistic lands in PeriodStats::controlled.
  explicit ResponseTimeMonitor(double q = 0.9, SlaMetric metric = SlaMetric::kQuantile);

  /// Records one completed request's response time (seconds). NaN samples
  /// are rejected with an exception — they would corrupt the incremental
  /// order-statistic index the percentile path is built on.
  void record(double response_time_s);

  /// Records that a sample existed but was lost before reaching the monitor
  /// (sensor dropout). Counted per period so an all-dropped interval is
  /// distinguishable from an idle one.
  void note_dropped() noexcept { ++period_dropped_; }

  /// Marks the current period's pipeline as wedged: the next harvest is
  /// flagged stale so the controller holds instead of acting on old data.
  void mark_stale() noexcept { period_stale_ = true; }

  /// Returns statistics over the samples recorded since the last harvest
  /// and clears the buffer. Truly empty period (no samples, no drops, not
  /// stale) -> nullopt (the controller then holds its previous measurement).
  /// All-dropped or stale periods DO return stats (count == 0 / stale set)
  /// so callers can tell sensor failure apart from idleness.
  [[nodiscard]] std::optional<PeriodStats> harvest();

  [[nodiscard]] std::size_t pending_samples() const noexcept { return period_.count(); }
  [[nodiscard]] SlaMetric metric() const noexcept { return metric_; }
  [[nodiscard]] double quantile_level() const noexcept { return q_; }

 private:
  double q_;
  SlaMetric metric_;
  // The current period only (Welford moments plus its samples): record() is
  // O(1), harvest() selects the quantile in O(n), and the values are
  // bit-identical to util::quantile and util::RunningStats recomputed over
  // the period's samples. Nothing outlives the period.
  util::WindowStats period_;
  std::size_t period_dropped_ = 0;
  bool period_stale_ = false;
};

}  // namespace vdc::app
