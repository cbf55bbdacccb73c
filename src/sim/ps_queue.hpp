// Processor-sharing queue with dynamically adjustable capacity.
//
// This models one VM (one application tier) under a credit-scheduler cap:
// the queue's capacity is the CPU allocation in GHz (cycles/second), each
// job carries a service demand in cycles, and all resident jobs share the
// capacity equally — the behaviour of a CPU-bound tier under Xen's
// work-conserving-off cap, which is what the paper's arbitrator enforces.
//
// The queue runs in virtual time (attained service): `vtime_` is the
// service every resident job has received since the queue last emptied,
// and it is rebased to 0 whenever the queue empties. A job with demand d
// is stored once, as the finish mark `vtime_ + d`, in a binary min-heap of
// (mark, id, tag) entries kept in a plain vector. Advancing by wall time dt
// moves vtime_ by dt * capacity / n — one addition instead of n
// subtractions — so a sync costs O(1 + completions * log n), and the next
// completion is the heap's top. Equal marks complete in admission (id)
// order, and one sync's completions are delivered in admission order.
//
// A job completes when its residual (mark - vtime_) is within kEps Gcycles,
// or when its finish time now + residual * n / capacity is not after now.
// The second arm keeps the clock moving late in a run: once ulp(now) *
// capacity / n exceeds kEps, a residual the first arm keeps alive can be
// too small to move now, and its completion event would fire at now
// forever. With it, the event scheduled for the top job either completes
// that job or moves the clock. The rule is checked on every sync, also
// when no time has passed, so an event that fires at the instant it was
// scheduled from still completes its job.
//
// The queue owns at most one pending completion event. An admit, capacity
// change or completion moves that event with Simulation::reschedule
// instead of cancelling it and scheduling a new one, so the event heap
// never carries a stale completion.
//
// Each job carries a caller tag, handed back to the completion handler with
// its id, so an owner that tracks its own record per job (MultiTierApp's
// request slots) needs no job-id map. The heap and the completion buffer
// keep their capacity, so once a queue has held its high-water mark of
// jobs, admitting and completing jobs allocates nothing.
//
// The per-job-residual formulation lives in the test-only oracle target,
// tests/oracle/sim/naive.hpp, as the reference for differential replay
// tests and the perf-bench baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/simulation.hpp"

namespace vdc::sim {

using JobId = std::uint64_t;

class PsQueue {
 public:
  /// Called when a job finishes, with the job's id and the caller tag it was
  /// admitted with; runs inside the simulation event.
  using CompletionHandler = std::function<void(JobId, std::uint64_t tag)>;

  /// Resident-job depth that perfbench's `testbed` and `crowd` gates use to
  /// tell shallow queues from deep ones. The queue itself no longer reads it:
  /// it has one formulation at every depth.
  static constexpr std::size_t kFastUpThreshold = 512;

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

  /// Changes the capacity (DVFS / new CPU allocation). Takes effect
  /// immediately; in-flight work is preserved.
  void set_capacity(double capacity_ghz);

  [[nodiscard]] double capacity_ghz() const noexcept { return capacity_ghz_; }
  [[nodiscard]] std::size_t jobs_in_service() const noexcept { return heap_.size(); }

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

 private:
  /// A resident job: its finish mark in virtual time, id and caller tag.
  struct Marked {
    double mark;
    JobId id;
    std::uint64_t tag;
  };
  /// A finished job and its caller tag.
  struct Finished {
    JobId id;
    std::uint64_t tag;
  };

  /// Advances all job state to sim.now(), delivering any completions.
  void sync();
  void schedule_next_completion();
  /// When a job with `remaining` Gcycles left finishes if nothing changes.
  [[nodiscard]] double finish_time_s(double now, double remaining) const noexcept {
    return now + remaining * static_cast<double>(heap_.size()) / capacity_ghz_;
  }
  /// Hands each of `finished` to the completion handler, in order, and
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

  /// Cumulative per-job attained service (Gcycles), rebased to 0 whenever
  /// the queue empties to bound floating-point drift.
  double vtime_ = 0.0;
  /// Resident jobs as a binary min-heap on (mark, id); the next completion
  /// is heap_.front().
  std::vector<Marked> heap_;
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
