// Server-utilization trace: one CPU-utilization series per server, sampled
// on a fixed period. Mirrors the trace the paper's simulator consumes —
// "the average CPU utilization of each server every 15 minutes from 00:00
// on July 14th (Monday) to 23:45 on July 20th (Sunday) in 2008" for 5,415
// servers — and, like the paper, each server's series becomes the CPU
// demand of one VM.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace vdc::trace {

inline constexpr std::size_t kPaperServerCount = 5415;
inline constexpr std::size_t kPaperSampleCount = 672;  // 7 days x 96 per day
inline constexpr double kPaperSamplePeriodS = 900.0;   // 15 minutes

class UtilizationTrace {
 public:
  UtilizationTrace(std::size_t servers, std::size_t samples,
                   double sample_period_s = kPaperSamplePeriodS);

  [[nodiscard]] std::size_t server_count() const noexcept { return servers_; }
  [[nodiscard]] std::size_t sample_count() const noexcept { return samples_; }
  [[nodiscard]] double sample_period_s() const noexcept { return dt_; }
  [[nodiscard]] double duration_s() const noexcept {
    return dt_ * static_cast<double>(samples_);
  }

  /// Utilization in [0,1] of `server` at sample `k`.
  [[nodiscard]] double at(std::size_t server, std::size_t k) const;
  void set(std::size_t server, std::size_t k, double utilization);

  /// Contiguous series of one server.
  [[nodiscard]] std::span<const double> series(std::size_t server) const;

  /// Mean utilization across all servers at sample k.
  [[nodiscard]] double mean_at(std::size_t k) const;
  /// Mean over everything.
  [[nodiscard]] double global_mean() const;

  /// Optional per-server labels (sector names in the synthetic trace).
  std::vector<std::string> labels;

 private:
  std::size_t servers_;
  std::size_t samples_;
  double dt_;
  std::vector<double> data_;  // row-major: server-major, sample-minor
};

}  // namespace vdc::trace
