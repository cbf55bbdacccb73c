// Application auditors: request conservation in the closed/open workload
// (every request ever issued is either completed or resident in some tier —
// nothing is lost or double-counted) and sanity of the analytic MVA oracle
// (utilizations in [0,1], nonnegative residence times, population
// conservation across stations and the think terminal).
#pragma once

#include <cstdint>

#include "app/queueing.hpp"
#include "check/check.hpp"

namespace vdc::app::audit {

/// Queue conservation: arrivals = completions + in-flight.
inline void request_conservation(std::uint64_t issued, std::uint64_t completed,
                                 std::size_t in_flight) {
  VDC_INVARIANT(completed + in_flight == issued,
                "request conservation violated: issued " << issued << " != completed "
                                                         << completed << " + in-flight "
                                                         << in_flight);
}

/// Dispatcher invariant: requests are only routed to serving replicas —
/// never to a booting, draining, or free slot.
inline void dispatch_target_serving(bool serving, [[maybe_unused]] std::size_t tier,
                                    [[maybe_unused]] std::size_t slot) {
  VDC_INVARIANT(serving, "dispatch to non-serving replica: tier " << tier << " slot " << slot);
}

/// Drain invariant: a replica may only retire once every resident job has
/// completed (drain-then-retire, never drop work).
inline void replica_retire_clean(std::size_t resident_jobs, [[maybe_unused]] std::size_t tier,
                                 [[maybe_unused]] std::size_t slot) {
  VDC_INVARIANT(resident_jobs == 0, "replica retired with " << resident_jobs
                                                            << " resident jobs: tier " << tier
                                                            << " slot " << slot);
}

/// Tier-level conservation across dispatch/drain: the requests resident in a
/// tier equal the jobs counted across all of its replica slots — scaling must
/// not lose or duplicate routed work.
inline void tier_job_conservation(std::size_t counted_jobs, std::size_t resident_requests,
                                  [[maybe_unused]] std::size_t tier) {
  VDC_INVARIANT(counted_jobs == resident_requests,
                "tier " << tier << " job conservation violated: " << counted_jobs
                        << " counted jobs != " << resident_requests << " resident requests");
}

/// MVA outputs are physical: see file comment.
inline void mva_result(const MvaResult& result, std::size_t clients, double think_time_s) {
#if VDC_CHECKS_ENABLED
  VDC_INVARIANT(result.throughput_rps >= 0.0, "negative MVA throughput");
  VDC_INVARIANT(result.response_time_s >= 0.0, "negative MVA response time");
  double resident = 0.0;
  for (const MvaStation& station : result.stations) {
    VDC_INVARIANT(station.utilization >= -1e-9 && station.utilization <= 1.0 + 1e-9,
                  "MVA utilization " << station.utilization << " outside [0, 1]");
    VDC_INVARIANT(station.queue_length >= -1e-9,
                  "negative MVA queue length " << station.queue_length);
    VDC_INVARIANT(station.residence_time_s >= -1e-12,
                  "negative MVA residence time " << station.residence_time_s);
    resident += station.queue_length;
  }
  // Little's law at the terminal: thinking customers = X * Z; all customers
  // are either thinking or at a station.
  const double thinking = result.throughput_rps * think_time_s;
  VDC_INVARIANT(resident + thinking <= static_cast<double>(clients) * (1.0 + 1e-6) + 1e-6,
                "MVA population " << resident + thinking << " exceeds " << clients << " clients");
#else
  static_cast<void>(result);
  static_cast<void>(clients);
  static_cast<void>(think_time_s);
#endif
}

}  // namespace vdc::app::audit
