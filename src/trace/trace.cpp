#include "trace/trace.hpp"

#include <cmath>
#include <stdexcept>

namespace vdc::trace {

UtilizationTrace::UtilizationTrace(std::size_t servers, std::size_t samples,
                                   double sample_period_s)
    : servers_(servers), samples_(samples), dt_(sample_period_s),
      data_(servers * samples, 0.0) {
  if (servers == 0 || samples == 0) {
    throw std::invalid_argument("UtilizationTrace: empty dimensions");
  }
  if (!std::isfinite(sample_period_s) || !(sample_period_s > 0.0)) {
    throw std::invalid_argument("UtilizationTrace: sample period must be finite and positive");
  }
}

double UtilizationTrace::at(std::size_t server, std::size_t k) const {
  if (server >= servers_ || k >= samples_) throw std::out_of_range("UtilizationTrace::at");
  return data_[server * samples_ + k];
}

void UtilizationTrace::set(std::size_t server, std::size_t k, double utilization) {
  if (server >= servers_ || k >= samples_) throw std::out_of_range("UtilizationTrace::set");
  if (!(utilization >= 0.0 && utilization <= 1.0)) {  // a NaN fails both comparisons
    throw std::invalid_argument("UtilizationTrace::set: utilization outside [0,1]");
  }
  data_[server * samples_ + k] = utilization;
}

std::span<const double> UtilizationTrace::series(std::size_t server) const {
  if (server >= servers_) throw std::out_of_range("UtilizationTrace::series");
  return {data_.data() + server * samples_, samples_};
}

double UtilizationTrace::mean_at(std::size_t k) const {
  if (k >= samples_) throw std::out_of_range("UtilizationTrace::mean_at");
  double sum = 0.0;
  for (std::size_t s = 0; s < servers_; ++s) sum += data_[s * samples_ + k];
  return sum / static_cast<double>(servers_);
}

double UtilizationTrace::global_mean() const {
  double sum = 0.0;
  for (const double u : data_) sum += u;
  return sum / static_cast<double>(data_.size());
}

}  // namespace vdc::trace
