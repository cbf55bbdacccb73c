#include "sim/naive.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace vdc::sim::naive {

namespace {
constexpr double kEps = 1e-12;
}

EventId Simulation::schedule(double time_s, std::function<void()> callback) {
  if (time_s < now_) throw std::invalid_argument("naive::Simulation: time is in the past");
  if (!callback) throw std::invalid_argument("naive::Simulation: empty callback");
  const EventId id = next_id_++;
  heap_.push(Entry{time_s, id});
  callbacks_.emplace(id, std::move(callback));
  return id;
}

bool Simulation::cancel(EventId id) {
  const auto it = callbacks_.find(id);
  if (it == callbacks_.end()) return false;
  callbacks_.erase(it);
  cancelled_.insert(id);  // lazy deletion; popped entries are skipped
  return true;
}

bool Simulation::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    const auto cancelled_it = cancelled_.find(top.id);
    if (cancelled_it != cancelled_.end()) {
      cancelled_.erase(cancelled_it);
      continue;
    }
    auto cb_it = callbacks_.find(top.id);
    if (cb_it == callbacks_.end()) continue;  // defensive; should not happen
    std::function<void()> callback = std::move(cb_it->second);
    callbacks_.erase(cb_it);
    now_ = top.time_s;
    ++executed_;
    callback();
    return true;
  }
  return false;
}

void Simulation::run_until(double t) {
  if (t < now_) throw std::invalid_argument("naive::Simulation: time is in the past");
  while (!heap_.empty()) {
    while (!heap_.empty() && cancelled_.contains(heap_.top().id)) {
      cancelled_.erase(heap_.top().id);
      heap_.pop();
    }
    if (heap_.empty() || heap_.top().time_s > t) break;
    step();
  }
  now_ = t;
}

void Simulation::run() {
  while (step()) {
  }
}

PsQueue::PsQueue(Simulation& sim, double capacity_ghz, CompletionHandler on_complete)
    : sim_(sim), capacity_ghz_(capacity_ghz), on_complete_(std::move(on_complete)) {
  if (capacity_ghz < 0.0) throw std::invalid_argument("naive::PsQueue: negative capacity");
  last_sync_ = sim_.now();
}

JobId PsQueue::add_job(double demand_gcycles) {
  if (!(demand_gcycles > 0.0)) {
    throw std::invalid_argument("naive::PsQueue: demand must be positive");
  }
  sync();
  const JobId id = next_job_id_++;
  jobs_.emplace(id, demand_gcycles);
  schedule_next_completion();
  return id;
}

void PsQueue::set_capacity(double capacity_ghz) {
  if (capacity_ghz < 0.0) throw std::invalid_argument("naive::PsQueue: negative capacity");
  sync();
  capacity_ghz_ = capacity_ghz;
  schedule_next_completion();
}

double PsQueue::busy_time_s() const {
  if (jobs_.empty() || capacity_ghz_ <= 0.0) return busy_time_s_;
  return busy_time_s_ + (sim_.now() - last_sync_);
}

double PsQueue::stalled_time_s() const {
  if (jobs_.empty() || capacity_ghz_ > 0.0) return stalled_time_s_;
  return stalled_time_s_ + (sim_.now() - last_sync_);
}

void PsQueue::sync() {
  const double now = sim_.now();
  const double elapsed_s = now - last_sync_;
  last_sync_ = now;
  if (elapsed_s <= 0.0 || jobs_.empty()) return;

  if (capacity_ghz_ <= 0.0) {
    stalled_time_s_ += elapsed_s;
    return;
  }
  busy_time_s_ += elapsed_s;

  const double per_job = elapsed_s * capacity_ghz_ / static_cast<double>(jobs_.size());
  std::vector<JobId> finished;
  // vdc-lint: unordered-iter-ok every job gets the same per_job decrement; completions are delivered in sorted id order below, and the equivalence suite compares this oracle to the optimized queue with a tolerance, not bitwise
  for (auto& [id, remaining] : jobs_) {
    remaining -= per_job;
    work_done_gcycles_ += per_job;
    if (remaining <= kEps) {
      work_done_gcycles_ += remaining;  // don't over-count the overshoot
      finished.push_back(id);
    }
  }
  std::sort(finished.begin(), finished.end());
  for (const JobId id : finished) jobs_.erase(id);
  for (const JobId id : finished) {
    if (on_complete_) on_complete_(id);
  }
}

void PsQueue::schedule_next_completion() {
  if (pending_completion_ != 0) {
    sim_.cancel(pending_completion_);
    pending_completion_ = 0;
  }
  if (jobs_.empty() || capacity_ghz_ <= 0.0) return;

  double min_remaining = std::numeric_limits<double>::infinity();
  // vdc-lint: unordered-iter-ok min over all values is commutative; order cannot change the result
  for (const auto& [id, remaining] : jobs_) min_remaining = std::min(min_remaining, remaining);
  const double dt =
      std::max(0.0, min_remaining) * static_cast<double>(jobs_.size()) / capacity_ghz_;
  pending_completion_ = sim_.schedule_after(dt, [this] {
    pending_completion_ = 0;
    sync();
    schedule_next_completion();
  });
}

}  // namespace vdc::sim::naive
