// Server-level CPU resource arbitrator (Section IV-B, last paragraph):
// collects the CPU demands (GHz) of the VMs hosted on one server, picks the
// lowest DVFS frequency whose capacity satisfies the aggregate demand, and
// divides the capacity among the VMs — proportionally when the server is
// saturated.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "datacenter/cpu_spec.hpp"

namespace vdc::datacenter {

struct ArbitrationResult {
  double frequency_ghz = 0.0;           ///< chosen DVFS operating point
  std::vector<double> allocations_ghz;  ///< per-VM grant, same order as demands
  bool saturated = false;               ///< true when demand exceeds max capacity
  double total_demand_ghz = 0.0;
  double capacity_ghz = 0.0;            ///< capacity at the chosen frequency
  /// Utilization the server will run at: total granted / capacity.
  [[nodiscard]] double utilization() const noexcept {
    return capacity_ghz > 0.0 ? std::min(1.0, total_demand_ghz / capacity_ghz) : 0.0;
  }
};

class CpuResourceArbitrator {
 public:
  /// `headroom` > 1 reserves slack above the aggregate demand before
  /// choosing the frequency (guards against demand jitter between control
  /// periods). 1.0 = run exactly at demand.
  explicit CpuResourceArbitrator(double headroom = 1.1);

  [[nodiscard]] ArbitrationResult arbitrate(const CpuSpec& cpu,
                                            std::span<const double> demands_ghz) const;
  /// arbitrate() into a caller-kept result, so a loop over servers reuses
  /// one grant buffer. Every field of `result` is overwritten.
  void arbitrate_into(const CpuSpec& cpu, std::span<const double> demands_ghz,
                      ArbitrationResult& result) const;

  [[nodiscard]] double headroom() const noexcept { return headroom_; }

 private:
  double headroom_;
};

}  // namespace vdc::datacenter
