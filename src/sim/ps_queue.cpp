#include "sim/ps_queue.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "check/sim_audit.hpp"

namespace vdc::sim {

namespace {
constexpr double kEps = 1e-12;
}

PsQueue::PsQueue(Simulation& sim, double capacity_ghz, CompletionHandler on_complete)
    : sim_(sim), capacity_ghz_(capacity_ghz), on_complete_(std::move(on_complete)) {
  if (capacity_ghz < 0.0) throw std::invalid_argument("PsQueue: negative capacity");
  last_sync_ = sim_.now();
}

JobId PsQueue::add_job(double demand_gcycles, std::uint64_t tag) {
  if (!(demand_gcycles > 0.0)) throw std::invalid_argument("PsQueue: demand must be positive");
  sync();
  if (!fast_ && residuals_.size() + 1 >= kFastUpThreshold) convert_to_fast();
  const JobId id = next_job_id_++;
  if (fast_) {
    const double mark = vtime_ + demand_gcycles;
    audit::ps_finish_mark(vtime_, mark);
    marks_.emplace(id, by_mark_.emplace(mark, Marked{id, tag}));
  } else {
    residuals_.emplace(id, Residual{demand_gcycles, tag});
    min_residual_ = std::min(min_residual_, demand_gcycles);
  }
  schedule_next_completion();
  return id;
}

double PsQueue::remove_job(JobId id) {
  sync();
  double remaining = -1.0;
  if (fast_) {
    const auto it = marks_.find(id);
    if (it == marks_.end()) return -1.0;
    remaining = it->second->first - vtime_;
    by_mark_.erase(it->second);
    marks_.erase(it);
    if (marks_.empty()) {
      vtime_ = 0.0;
      fast_ = false;
    } else if (marks_.size() <= kFastDownThreshold) {
      convert_to_naive();
    }
  } else {
    const auto it = residuals_.find(id);
    if (it == residuals_.end()) return -1.0;
    remaining = it->second.remaining;
    residuals_.erase(it);
    if (remaining <= min_residual_) {  // the removed job held the minimum
      min_residual_ = std::numeric_limits<double>::infinity();
      // vdc-lint: unordered-iter-ok min over all values is commutative; order cannot change the result
      for (const auto& [other, job] : residuals_) {
        min_residual_ = std::min(min_residual_, job.remaining);
      }
    }
  }
  schedule_next_completion();
  return remaining;
}

void PsQueue::set_capacity(double capacity_ghz) {
  if (capacity_ghz < 0.0) throw std::invalid_argument("PsQueue: negative capacity");
  sync();
  capacity_ghz_ = capacity_ghz;
  schedule_next_completion();
}

double PsQueue::busy_time_s() const {
  // busy_time_s_ is advanced in sync(); add the open interval since then.
  if (jobs_in_service() == 0 || capacity_ghz_ <= 0.0) return busy_time_s_;
  return busy_time_s_ + (sim_.now() - last_sync_);
}

double PsQueue::stalled_time_s() const {
  if (jobs_in_service() == 0 || capacity_ghz_ > 0.0) return stalled_time_s_;
  return stalled_time_s_ + (sim_.now() - last_sync_);
}

void PsQueue::sync() {
  const double now = sim_.now();
  const double elapsed_s = now - last_sync_;
  last_sync_ = now;
  if (elapsed_s <= 0.0 || jobs_in_service() == 0) return;

  if (capacity_ghz_ <= 0.0) {
    // VM is allocated nothing: work stalls. This is starvation, not load —
    // it must not inflate the monitor's utilization signal.
    stalled_time_s_ += elapsed_s;
    audit::ps_stall_accounting(busy_time_s_, stalled_time_s_);
    return;
  }
  busy_time_s_ += elapsed_s;

  if (fast_) {
    fast_sync(elapsed_s);
  } else {
    naive_sync(elapsed_s);
  }
}

// The historical formulation, preserved operation-for-operation so that the
// per-job summation order (and therefore every downstream trajectory) is
// bit-identical to the pre-optimization engine at bench concurrency levels.
void PsQueue::naive_sync(double elapsed_s) {
  const double per_job = elapsed_s * capacity_ghz_ / static_cast<double>(residuals_.size());
  // Jobs whose residual hits zero here complete "now" and leave the map in
  // the same pass (erasing keeps the survivors' visiting order); the
  // survivors' smallest residual is kept for schedule_next_completion.
  std::vector<Finished> finished = take_finished_buffer();
  double min_remaining = std::numeric_limits<double>::infinity();
  // vdc-lint: unordered-iter-ok every job gets the same per_job decrement and completions are sorted by id before delivery; only the work_done accumulation order follows the map, which the accounting audit bounds with a tolerance
  for (auto it = residuals_.begin(); it != residuals_.end();) {
    Residual& job = it->second;
    job.remaining -= per_job;
    work_done_gcycles_ += per_job;
    if (job.remaining <= kEps) {
      audit::ps_residual(job.remaining);
      work_done_gcycles_ += job.remaining;  // don't over-count the overshoot
      finished.push_back(Finished{it->first, job.tag});
      it = residuals_.erase(it);
    } else {
      min_remaining = std::min(min_remaining, job.remaining);
      ++it;
    }
  }
  min_residual_ = min_remaining;
  audit::ps_accounting(work_done_gcycles_, busy_time_s_);
  // Deliver in id order for determinism.
  if (finished.size() > 1) {
    std::sort(finished.begin(), finished.end(),
              [](const Finished& a, const Finished& b) { return a.id < b.id; });
  }
  deliver(finished);
}

void PsQueue::fast_sync(double elapsed_s) {
  const double per_job = elapsed_s * capacity_ghz_ / static_cast<double>(marks_.size());
  work_done_gcycles_ += per_job * static_cast<double>(marks_.size());
  vtime_ += per_job;

  // Jobs whose finish mark is reached complete "now"; deliver them in id
  // order for determinism.
  std::vector<Finished> finished = take_finished_buffer();
  while (!by_mark_.empty()) {
    const auto first = by_mark_.begin();
    const double remaining = first->first - vtime_;
    if (remaining > kEps) break;
    audit::ps_residual(remaining);
    work_done_gcycles_ += remaining;  // don't over-count the overshoot
    finished.push_back(Finished{first->second.id, first->second.tag});
    marks_.erase(first->second.id);
    by_mark_.erase(first);
  }
  audit::ps_accounting(work_done_gcycles_, busy_time_s_);
  if (marks_.empty()) {
    vtime_ = 0.0;
    fast_ = false;
  } else if (marks_.size() <= kFastDownThreshold) {
    convert_to_naive();
  }
  std::sort(finished.begin(), finished.end(),
            [](const Finished& a, const Finished& b) { return a.id < b.id; });
  deliver(finished);
}

void PsQueue::deliver(std::vector<Finished>& finished) {
  for (const Finished& done : finished) {
    if (on_complete_) on_complete_(done.id, done.tag);
  }
  finished.clear();
  finished_ = std::move(finished);
}

/// Exact: rebasing vtime_ to 0 makes each finish mark equal the residual
/// (0 + r == r, no rounding), so the switch itself never perturbs state.
void PsQueue::convert_to_fast() {
  vtime_ = 0.0;
  // vdc-lint: unordered-iter-ok destination containers are keyed (by_mark_ orders by mark value, marks_ by id); the rebuilt state is identical for any visit order, and equal-mark completions are re-sorted by id on delivery
  for (const auto& [id, job] : residuals_) {
    marks_.emplace(id, by_mark_.emplace(job.remaining, Marked{id, job.tag}));
  }
  residuals_.clear();
  min_residual_ = std::numeric_limits<double>::infinity();
  fast_ = true;
}

/// Rounds once per job: remaining = mark - vtime_ (<= 1 ulp of vtime_).
void PsQueue::convert_to_naive() {
  min_residual_ = std::numeric_limits<double>::infinity();
  for (const auto& [mark, job] : by_mark_) {
    const double remaining = mark - vtime_;
    residuals_.emplace(job.id, Residual{remaining, job.tag});
    min_residual_ = std::min(min_residual_, remaining);
  }
  by_mark_.clear();
  marks_.clear();
  vtime_ = 0.0;
  fast_ = false;
}

void PsQueue::schedule_next_completion() {
  if (jobs_in_service() == 0 || capacity_ghz_ <= 0.0) {
    if (pending_completion_ != kNoEvent) {
      sim_.cancel(pending_completion_);
      pending_completion_ = kNoEvent;
    }
    return;
  }
  const double min_remaining = fast_ ? by_mark_.begin()->first - vtime_ : min_residual_;
  const double dt =
      std::max(0.0, min_remaining) * static_cast<double>(jobs_in_service()) / capacity_ghz_;
  const double at = sim_.now() + dt;
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
