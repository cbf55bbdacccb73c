// Event-queue and PS-queue auditors for the discrete-event kernel.
//
// The DES substrate promises two things everything above it depends on:
// simulated time never rewinds, and no event is ever scheduled in the past.
// The PS-queue additionally promises that job residuals shrink toward zero
// (never below, beyond rounding) so service conservation holds. Header-only:
// the functions compile to nothing when checks are off.
#pragma once

#include <cmath>
#include <cstddef>

#include "check/check.hpp"

namespace vdc::sim::audit {

/// Executing the event queue never moves the clock backwards.
inline void clock_monotonic(double previous_s, double next_s) {
  VDC_INVARIANT(next_s >= previous_s,
                "simulation clock rewound: " << previous_s << " -> " << next_s);
}

/// A job residual after a processor-sharing sync: finite and nonnegative
/// up to floating-point rounding of the per-job share.
inline void ps_residual(double remaining_gcycles) {
  VDC_INVARIANT(std::isfinite(remaining_gcycles) && remaining_gcycles >= -1e-6,
                "PS job residual went negative: " << remaining_gcycles << " Gcycles");
}

/// PS-queue accounting: cumulative work and busy time only grow.
inline void ps_accounting(double work_done_gcycles, double busy_time_s) {
  VDC_INVARIANT(work_done_gcycles >= 0.0 && std::isfinite(work_done_gcycles),
                "work_done is invalid: " << work_done_gcycles);
  VDC_INVARIANT(busy_time_s >= 0.0 && std::isfinite(busy_time_s),
                "busy_time is invalid: " << busy_time_s);
}

/// Stalled time (jobs resident but zero capacity) is tracked separately from
/// busy time; both must stay finite and nonnegative.
inline void ps_stall_accounting(double busy_time_s, double stalled_time_s) {
  VDC_INVARIANT(busy_time_s >= 0.0 && std::isfinite(busy_time_s),
                "busy_time is invalid: " << busy_time_s);
  VDC_INVARIANT(stalled_time_s >= 0.0 && std::isfinite(stalled_time_s),
                "stalled_time is invalid: " << stalled_time_s);
}

/// A job's finish mark in cumulative per-job service (virtual time) must sit
/// at or ahead of the queue's current virtual time — a mark in the virtual
/// past would mean the job should already have completed.
inline void ps_finish_mark(double vtime_gcycles, double mark_gcycles) {
  VDC_INVARIANT(std::isfinite(mark_gcycles), "finish mark is not finite: " << mark_gcycles);
  VDC_INVARIANT(mark_gcycles >= vtime_gcycles - 1e-6,
                "finish mark in the virtual past: mark=" << mark_gcycles
                                                         << " vtime=" << vtime_gcycles);
}

/// Event-slab conservation: every slot is either live (queued in the event
/// heap) or on the free list. Violations mean a leaked or double-freed event
/// record, or a heap entry left behind by a cancelled event.
inline void event_slab(std::size_t live, std::size_t slab_size, std::size_t free_size) {
  VDC_INVARIANT(live + free_size == slab_size,
                "event slab leak: live=" << live << " free=" << free_size
                                         << " slab=" << slab_size);
}

}  // namespace vdc::sim::audit
