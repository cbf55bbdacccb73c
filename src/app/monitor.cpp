#include "app/monitor.hpp"

#include <stdexcept>

namespace vdc::app {

ResponseTimeMonitor::ResponseTimeMonitor(double q, SlaMetric metric) : q_(q), metric_(metric) {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("ResponseTimeMonitor: q outside [0,1]");
}

void ResponseTimeMonitor::record(double response_time_s) {
  period_.add(response_time_s);  // throws on NaN before any state mutates
}

std::optional<PeriodStats> ResponseTimeMonitor::harvest() {
  const std::size_t dropped = period_dropped_;
  const bool stale = period_stale_;
  period_dropped_ = 0;
  period_stale_ = false;
  if (period_.empty() && dropped == 0 && !stale) return std::nullopt;
  PeriodStats out;
  out.count = period_.count();
  if (out.count > 0) {
    out.mean = period_.mean();
    out.min = period_.min();
    out.max = period_.max();
    out.quantile = period_.quantile(q_);
    switch (metric_) {
      case SlaMetric::kQuantile: out.controlled = out.quantile; break;
      case SlaMetric::kMean: out.controlled = out.mean; break;
      case SlaMetric::kMax: out.controlled = out.max; break;
    }
  }
  period_.reset();
  out.dropped = dropped;
  out.stale = stale;
  return out;
}

}  // namespace vdc::app
