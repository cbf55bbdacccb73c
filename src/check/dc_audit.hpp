// Data-center auditors: allocation conservation, DVFS bounds, sleep-state
// exclusivity, and power-model bounds.
//
// These are the paper's physical-plant invariants (Section IV-B): the
// arbitrator grants CPU in absolute GHz and the sum of grants can never
// exceed the capacity at the chosen DVFS frequency; the chosen frequency is
// a ladder point at most f_max; a sleeping server supplies no capacity and
// draws exactly its sleep power; active power stays within the model's
// [idle-at-min-freq, peak] envelope.
#pragma once

#include <cmath>
#include <span>

#include "check/check.hpp"
#include "datacenter/arbitrator.hpp"
#include "datacenter/server.hpp"

namespace vdc::datacenter::audit {

inline constexpr double kCapacityTolGhz = 1e-6;

/// Post-arbitration conservation: per-VM grants are nonnegative, sum to at
/// most the capacity at the chosen frequency, and the frequency itself is
/// within the CPU's DVFS range. When the server is not saturated every
/// demand must be met in full ("performance assurance": the controller's
/// requested allocation is what the VM actually receives).
inline void arbitration(const CpuSpec& cpu, std::span<const double> demands_ghz,
                        const ArbitrationResult& result) {
  VDC_INVARIANT(result.frequency_ghz <= cpu.max_freq_ghz + 1e-9,
                "arbitrated frequency " << result.frequency_ghz << " GHz above f_max "
                                        << cpu.max_freq_ghz);
  VDC_INVARIANT(result.capacity_ghz <= cpu.max_capacity_ghz() + kCapacityTolGhz,
                "arbitrated capacity " << result.capacity_ghz << " GHz above max "
                                       << cpu.max_capacity_ghz());
  VDC_INVARIANT(result.allocations_ghz.size() == demands_ghz.size(),
                "arbitration width mismatch: " << result.allocations_ghz.size() << " grants for "
                                               << demands_ghz.size() << " demands");
  double granted = 0.0;
  for (std::size_t i = 0; i < result.allocations_ghz.size(); ++i) {
    const double alloc = result.allocations_ghz[i];
    VDC_INVARIANT(alloc >= -kCapacityTolGhz, "negative allocation " << alloc << " GHz");
    if (!result.saturated) {
      VDC_INVARIANT(alloc >= demands_ghz[i] - kCapacityTolGhz,
                    "unsaturated server under-allocated VM " << i << ": granted " << alloc
                                                             << " of " << demands_ghz[i]);
    }
    granted += alloc;
  }
  VDC_INVARIANT(granted <= result.capacity_ghz + kCapacityTolGhz,
                "allocations overcommit the server: " << granted << " GHz granted, capacity "
                                                      << result.capacity_ghz);
}

/// Sleep-state exclusivity: a sleeping server supplies no capacity; an
/// active server's capacity matches its DVFS operating point.
inline void server_state(const Server& server) {
  if (!server.active()) {
    VDC_INVARIANT(check::is_exactly_zero(server.capacity_ghz()),
                  "sleeping server reports capacity " << server.capacity_ghz() << " GHz");
  } else {
    VDC_INVARIANT(server.frequency_ghz() > 0.0 &&
                      server.frequency_ghz() <= server.cpu().max_freq_ghz + 1e-9,
                  "active server frequency " << server.frequency_ghz() << " GHz outside (0, "
                                             << server.cpu().max_freq_ghz << "]");
  }
}

/// Power-model bounds: sleeping draws exactly sleep power; active draws
/// within [sleep, peak].
inline void server_power(const Server& server, double power_w) {
  const PowerModel& model = server.power_model();
  if (server.failed()) {
    VDC_INVARIANT(check::is_exactly_zero(power_w),
                  "failed server draws " << power_w << " W != 0");
    return;
  }
  if (!server.active()) {
    // vdc-lint: float-eq-ok sleep power is assigned verbatim from the model, never computed
    VDC_INVARIANT(power_w == model.sleep_w,
                  "sleeping server draws " << power_w << " W != sleep power " << model.sleep_w);
    return;
  }
  VDC_INVARIANT(std::isfinite(power_w) && power_w >= model.sleep_w - 1e-9,
                "active power " << power_w << " W below sleep floor " << model.sleep_w);
  VDC_INVARIANT(power_w <= model.max_power_w() + 1e-9,
                "active power " << power_w << " W above peak " << model.max_power_w());
}

}  // namespace vdc::datacenter::audit
