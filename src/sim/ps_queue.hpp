// Processor-sharing queue with dynamically adjustable capacity.
//
// This models one VM (one application tier) under a credit-scheduler cap:
// the queue's capacity is the CPU allocation in GHz (cycles/second), each
// job carries a service demand in cycles, and all resident jobs share the
// capacity equally — the behaviour of a CPU-bound tier under Xen's
// work-conserving-off cap, which is what the paper's arbitrator enforces.
//
// The queue is dual-mode:
//
// * Below kFastUpThreshold resident jobs it runs the classic per-job-residual
//   formulation: every sync subtracts the shared quantum from each residual.
//   That is O(jobs) per event, which is fine when jobs is a few hundred, and
//   it reproduces the historical floating-point summation order bit-for-bit —
//   the figure benches (<= 80 concurrent requests per tier) produce
//   byte-identical output across this rewrite.
//
// * At kFastUpThreshold jobs it converts to the virtual-time (attained-
//   service) formulation: `vtime_` tracks the cumulative service every
//   resident job has received, and a job with demand d is stored once as a
//   finish mark `vtime_ + d` in an ordered index. Advancing by wall time dt
//   moves vtime_ by dt * capacity / n — one addition instead of n
//   subtractions — so sync() costs O(completions * log n) and the next
//   completion is an O(1) read of the smallest mark. The up-conversion is
//   exact (vtime_ rebases to 0, marks == residuals); the down-conversion at
//   kFastDownThreshold rounds once per job (<= 1 ulp of vtime_).
//
// The queue owns at most one pending completion event. An admit, removal,
// capacity change or completion moves that event with
// Simulation::reschedule instead of cancelling it and scheduling a new one,
// so the event heap never carries a stale completion. In per-job-residual
// mode the smallest residual is kept current as jobs come and go (the
// sync's one pass over the residuals yields it), so scheduling the next
// completion reads it instead of walking the residuals again.
//
// Each job carries a caller tag, handed back to the completion handler with
// its id, so an owner that tracks its own record per job (MultiTierApp's
// request slots) needs no job-id map. Completions of one sync are collected
// in a buffer reused across syncs.
//
// The pre-optimization queue (per-job residuals at every size) lives in
// the test-only oracle target, tests/oracle/sim/naive.hpp, as the reference
// for differential replay tests and the perf-bench baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/simulation.hpp"

namespace vdc::sim {

using JobId = std::uint64_t;

class PsQueue {
 public:
  /// Called when a job finishes, with the job's id and the caller tag it was
  /// admitted with; runs inside the simulation event.
  using CompletionHandler = std::function<void(JobId, std::uint64_t tag)>;

  /// Resident-job count at which the queue switches to the O(log n)
  /// virtual-time index (and back, with hysteresis to prevent thrashing).
  static constexpr std::size_t kFastUpThreshold = 512;
  static constexpr std::size_t kFastDownThreshold = 256;

  /// `capacity_ghz` is the initial processing rate in 1e9 cycles/second.
  PsQueue(Simulation& sim, double capacity_ghz, CompletionHandler on_complete);
  /// For callers that do not tag their jobs: the handler sees the id only.
  template <typename F>
    requires(std::is_invocable_v<F&, JobId> &&
             !std::is_invocable_v<F&, JobId, std::uint64_t>)
  PsQueue(Simulation& sim, double capacity_ghz, F on_complete)
      : PsQueue(sim, capacity_ghz,
                CompletionHandler([f = std::move(on_complete)](JobId id, std::uint64_t) mutable {
                  f(id);
                })) {}

  PsQueue(const PsQueue&) = delete;
  PsQueue& operator=(const PsQueue&) = delete;

  /// Admits a job with the given service demand (unit: Gcycles, i.e. the
  /// job takes demand/capacity seconds when running alone). Returns its id.
  /// `tag` is stored beside the job and handed back to the completion
  /// handler, so a caller can find its own record for the job (e.g. a
  /// request slot) without a map of its own.
  JobId add_job(double demand_gcycles, std::uint64_t tag = 0);

  /// Removes a job before completion (e.g. client abandoned). Returns the
  /// remaining demand, or a negative value if the job is unknown.
  double remove_job(JobId id);

  /// Changes the capacity (DVFS / new CPU allocation). Takes effect
  /// immediately; in-flight work is preserved.
  void set_capacity(double capacity_ghz);

  [[nodiscard]] double capacity_ghz() const noexcept { return capacity_ghz_; }
  [[nodiscard]] std::size_t jobs_in_service() const noexcept {
    return fast_ ? marks_.size() : residuals_.size();
  }

  /// Total work completed since construction (Gcycles) — used for
  /// utilization accounting.
  [[nodiscard]] double work_done_gcycles() const noexcept { return work_done_gcycles_; }

  /// Busy time (seconds with >= 1 job AND capacity > 0) since construction.
  /// Time spent holding jobs while allocated zero CPU is NOT busy time — it
  /// accrues to stalled_time_s() instead, so a starved VM no longer reads as
  /// 100% utilized.
  [[nodiscard]] double busy_time_s() const;

  /// Seconds spent with >= 1 resident job but zero capacity (work stalled).
  [[nodiscard]] double stalled_time_s() const;

  /// True while the queue is in the O(log n) virtual-time mode (exposed for
  /// tests and the perf bench).
  [[nodiscard]] bool fast_mode() const noexcept { return fast_; }

 private:
  /// Advances all job state to sim.now(), delivering any completions.
  void sync();
  void naive_sync(double elapsed_s);
  void fast_sync(double elapsed_s);
  void schedule_next_completion();
  void convert_to_fast();
  void convert_to_naive();
  /// A finished job and its caller tag.
  struct Finished {
    JobId id;
    std::uint64_t tag;
  };
  /// Sorts `finished` by id, hands each to the completion handler, and
  /// returns the buffer (cleared) for the next sync.
  void deliver(std::vector<Finished>& finished);
  /// Borrows the reusable completion buffer. A handler that re-enters this
  /// queue mid-delivery finds the member empty and works on a fresh buffer;
  /// whichever comes back last is kept.
  [[nodiscard]] std::vector<Finished> take_finished_buffer() {
    std::vector<Finished> buffer = std::move(finished_);
    buffer.clear();
    return buffer;
  }

  Simulation& sim_;
  double capacity_ghz_;
  CompletionHandler on_complete_;

  bool fast_ = false;
  /// A naive-mode resident job: remaining Gcycles and the caller tag.
  struct Residual {
    double remaining;
    std::uint64_t tag;
  };
  /// A fast-mode resident job: id and the caller tag.
  struct Marked {
    JobId id;
    std::uint64_t tag;
  };

  /// Naive mode: job id -> remaining Gcycles (historical summation order).
  std::unordered_map<JobId, Residual> residuals_;
  /// Naive mode: the smallest remaining Gcycles in residuals_ (infinity
  /// when empty, and throughout fast mode).
  double min_residual_ = std::numeric_limits<double>::infinity();
  /// Fast mode: cumulative per-job attained service (Gcycles), rebased to 0
  /// whenever the queue empties to bound floating-point drift.
  double vtime_ = 0.0;
  /// Fast mode: finish marks in virtual time -> job; the next completion
  /// is the first element. Ties (equal marks) are delivered in id order.
  std::multimap<double, Marked> by_mark_;
  /// Fast mode: job id -> its node in by_mark_, for O(log n) removal.
  std::unordered_map<JobId, std::multimap<double, Marked>::iterator> marks_;
  /// Completion buffer reused across syncs (see take_finished_buffer).
  std::vector<Finished> finished_;

  JobId next_job_id_ = 1;
  double last_sync_ = 0.0;
  EventId pending_completion_ = kNoEvent;
  double work_done_gcycles_ = 0.0;
  double busy_time_s_ = 0.0;
  double stalled_time_s_ = 0.0;
};

}  // namespace vdc::sim
