#include "datacenter/arbitrator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace vdc::datacenter {

CpuResourceArbitrator::CpuResourceArbitrator(double headroom) : headroom_(headroom) {
  if (headroom < 1.0) throw std::invalid_argument("Arbitrator: headroom must be >= 1");
}

ArbitrationResult CpuResourceArbitrator::arbitrate(const CpuSpec& cpu,
                                                   std::span<const double> demands_ghz) const {
  ArbitrationResult result;
  arbitrate_into(cpu, demands_ghz, result);
  return result;
}

void CpuResourceArbitrator::arbitrate_into(const CpuSpec& cpu, std::span<const double> demands_ghz,
                                           ArbitrationResult& result) const {
  result.saturated = false;
  result.total_demand_ghz = 0.0;
  for (const double d : demands_ghz) {
    if (d < 0.0) throw std::invalid_argument("Arbitrator: negative demand");
    result.total_demand_ghz += d;
  }

  result.frequency_ghz = cpu.frequency_for_demand_ghz(result.total_demand_ghz * headroom_);
  result.capacity_ghz = cpu.capacity_at_ghz(result.frequency_ghz);

  result.allocations_ghz.assign(demands_ghz.begin(), demands_ghz.end());
  if (result.total_demand_ghz > result.capacity_ghz + 1e-12) {
    // Saturated: grant proportional shares of the full capacity.
    result.saturated = true;
    const double scale = result.capacity_ghz / result.total_demand_ghz;
    for (double& a : result.allocations_ghz) a *= scale;
  }
}

}  // namespace vdc::datacenter
