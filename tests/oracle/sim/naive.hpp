// Retained naive reference implementations of the discrete-event kernel and
// the processor-sharing queue — the pre-optimization formulations, kept as
// the oracle for differential replay tests (tests/test_eventloop_equivalence)
// and as the baseline the perf bench (bench/perf_eventloop) measures against.
//
// naive::Simulation stores callbacks in an unordered_map with a lazy-cancel
// set (a hash lookup and heap-allocated std::function per event).
// naive::PsQueue keeps one residual per job and walks all of them on every
// sync — O(jobs) per event versus the optimized queue's O(log jobs).
//
// Semantics are identical to the optimized engine (including the
// stalled-vs-busy accounting fix); only the data structures and the
// floating-point summation order differ. Do not "optimize" this file — its
// slowness is the point.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace vdc::sim::naive {

using EventId = std::uint64_t;
using JobId = std::uint64_t;

class Simulation {
 public:
  [[nodiscard]] double now() const noexcept { return now_; }

  EventId schedule(double time_s, std::function<void()> callback);
  EventId schedule_after(double delay_s, std::function<void()> callback) {
    return schedule(now_ + delay_s, std::move(callback));
  }

  bool cancel(EventId id);
  bool step();
  void run_until(double t);
  void run();

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size() - cancelled_.size();
  }
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

 private:
  struct Entry {
    double time_s;
    EventId id;  // doubles as tie-break sequence number (monotonic)
    bool operator>(const Entry& other) const noexcept {
      // vdc-lint: float-eq-ok exact heap ordering; equal keys defer to id for FIFO
      if (time_s != other.time_s) return time_s > other.time_s;
      return id > other.id;
    }
  };

  double now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
  std::unordered_set<EventId> cancelled_;
};

class PsQueue {
 public:
  using CompletionHandler = std::function<void(JobId)>;

  PsQueue(Simulation& sim, double capacity_ghz, CompletionHandler on_complete);

  PsQueue(const PsQueue&) = delete;
  PsQueue& operator=(const PsQueue&) = delete;

  JobId add_job(double demand_gcycles);
  void set_capacity(double capacity_ghz);

  [[nodiscard]] double capacity_ghz() const noexcept { return capacity_ghz_; }
  [[nodiscard]] std::size_t jobs_in_service() const noexcept { return jobs_.size(); }
  [[nodiscard]] double work_done_gcycles() const noexcept { return work_done_gcycles_; }
  [[nodiscard]] double busy_time_s() const;
  [[nodiscard]] double stalled_time_s() const;

 private:
  void sync();
  void schedule_next_completion();

  Simulation& sim_;
  double capacity_ghz_;
  CompletionHandler on_complete_;
  std::unordered_map<JobId, double> jobs_;  // id -> remaining Gcycles
  JobId next_job_id_ = 1;
  double last_sync_ = 0.0;
  EventId pending_completion_ = 0;  // 0 = none
  double work_done_gcycles_ = 0.0;
  double busy_time_s_ = 0.0;
  double stalled_time_s_ = 0.0;
};

}  // namespace vdc::sim::naive
