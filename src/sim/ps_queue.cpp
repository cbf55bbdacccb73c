#include "sim/ps_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "check/sim_audit.hpp"

namespace vdc::sim {

namespace {
constexpr double kEps = 1e-12;

/// Heap order: the entry that finishes later sinks, so heap_.front() holds
/// the smallest (mark, id).
struct FinishesLater {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const noexcept {
    return std::tie(a.mark, a.id) > std::tie(b.mark, b.id);
  }
};
}  // namespace

PsQueue::PsQueue(Simulation& sim, double capacity_ghz, CompletionHandler on_complete)
    : sim_(sim), capacity_ghz_(capacity_ghz), on_complete_(std::move(on_complete)) {
  if (capacity_ghz < 0.0) throw std::invalid_argument("PsQueue: negative capacity");
  last_sync_ = sim_.now();
}

JobId PsQueue::add_job(double demand_gcycles, std::uint64_t tag) {
  if (!(demand_gcycles > 0.0)) throw std::invalid_argument("PsQueue: demand must be positive");
  sync();
  const JobId id = next_job_id_++;
  const double mark = vtime_ + demand_gcycles;
  audit::ps_finish_mark(vtime_, mark);
  heap_.push_back(Marked{mark, id, tag});
  std::push_heap(heap_.begin(), heap_.end(), FinishesLater{});
  schedule_next_completion();
  return id;
}

void PsQueue::set_capacity(double capacity_ghz) {
  if (capacity_ghz < 0.0) throw std::invalid_argument("PsQueue: negative capacity");
  sync();
  capacity_ghz_ = capacity_ghz;
  schedule_next_completion();
}

double PsQueue::busy_time_s() const {
  // busy_time_s_ is advanced in sync(); add the open interval since then.
  if (heap_.empty() || capacity_ghz_ <= 0.0) return busy_time_s_;
  return busy_time_s_ + (sim_.now() - last_sync_);
}

double PsQueue::stalled_time_s() const {
  if (heap_.empty() || capacity_ghz_ > 0.0) return stalled_time_s_;
  return stalled_time_s_ + (sim_.now() - last_sync_);
}

void PsQueue::sync() {
  const double now = sim_.now();
  const double elapsed_s = now - last_sync_;
  last_sync_ = now;
  if (heap_.empty()) return;

  if (capacity_ghz_ <= 0.0) {
    // VM is allocated nothing: work stalls. This is starvation, not load —
    // it must not inflate the monitor's utilization signal.
    stalled_time_s_ += elapsed_s;
    audit::ps_stall_accounting(busy_time_s_, stalled_time_s_);
    return;
  }
  if (elapsed_s > 0.0) {
    busy_time_s_ += elapsed_s;
    const auto n = static_cast<double>(heap_.size());
    const double per_job = elapsed_s * capacity_ghz_ / n;
    work_done_gcycles_ += per_job * n;
    vtime_ += per_job;
  }

  // Jobs that are due complete "now" (see the header for the rule); a job
  // completed by the time arm has its small positive residual counted as
  // done, an overshoot is taken back.
  std::vector<Finished> finished = take_finished_buffer();
  while (!heap_.empty()) {
    const Marked& top = heap_.front();
    const double remaining = top.mark - vtime_;
    if (remaining > kEps && finish_time_s(now, remaining) > now) break;
    audit::ps_residual(remaining);
    work_done_gcycles_ += remaining;
    finished.push_back(Finished{top.id, top.tag});
    std::pop_heap(heap_.begin(), heap_.end(), FinishesLater{});
    heap_.pop_back();
  }
  audit::ps_accounting(work_done_gcycles_, busy_time_s_);
  if (heap_.empty()) vtime_ = 0.0;
  // Deliver in admission order for determinism.
  if (finished.size() > 1) {
    std::sort(finished.begin(), finished.end(),
              [](const Finished& a, const Finished& b) { return a.id < b.id; });
  }
  deliver(finished);
}

void PsQueue::deliver(std::vector<Finished>& finished) {
  for (const Finished& done : finished) {
    if (on_complete_) on_complete_(done.id, done.tag);
  }
  finished.clear();
  finished_ = std::move(finished);
}

void PsQueue::schedule_next_completion() {
  if (heap_.empty() || capacity_ghz_ <= 0.0) {
    if (pending_completion_ != kNoEvent) {
      sim_.cancel(pending_completion_);
      pending_completion_ = kNoEvent;
    }
    return;
  }
  const double at = finish_time_s(sim_.now(), std::max(0.0, heap_.front().mark - vtime_));
  // Move the one pending completion event rather than cancel and re-create
  // it; both give the same firing order.
  if (pending_completion_ != kNoEvent && sim_.reschedule(pending_completion_, at)) return;
  pending_completion_ = sim_.schedule(at, [this] {
    pending_completion_ = kNoEvent;
    sync();
    schedule_next_completion();
  });
}

}  // namespace vdc::sim
