#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "check/sim_audit.hpp"

namespace vdc::sim {

namespace {
/// Children per heap node. Binary beat 4-ary on perf_eventloop and on
/// perfbench's testbed, whose heap holds a few hundred events.
constexpr std::size_t kArity = 2;
}  // namespace

void Simulation::require_time(double t, const char* what) const {
  if (!std::isfinite(t)) throw std::invalid_argument(std::string(what) + ": time is not finite");
  if (t < now_) throw std::invalid_argument(std::string(what) + ": time is in the past");
}

Simulation::Record* Simulation::pending_record(EventId id) noexcept {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slab_.size()) return nullptr;
  Record& rec = slab_[slot];
  if (rec.heap_pos == kNotQueued || rec.generation != generation_of(id)) return nullptr;
  return &rec;
}

EventId Simulation::schedule(double time_s, EventCallback callback) {
  require_time(time_s, "Simulation::schedule");
  if (!callback) throw std::invalid_argument("Simulation::schedule: empty callback");

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slab_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Simulation::schedule: event slab exhausted");
    }
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Record& rec = slab_[slot];
  rec.callback = std::move(callback);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{time_s, next_seq_++, slot});
  audit::event_slab(heap_.size(), slab_.size(), free_slots_.size());
  return make_id(rec.generation, slot);
}

bool Simulation::cancel(EventId id) {
  Record* rec = pending_record(id);
  if (rec == nullptr) return false;
  heap_erase(rec->heap_pos);
  release_slot(slot_of(id));
  return true;
}

bool Simulation::reschedule(EventId id, double time_s) {
  require_time(time_s, "Simulation::reschedule");
  Record* rec = pending_record(id);
  if (rec == nullptr) return false;
  const std::size_t pos = rec->heap_pos;
  // The fresh seq orders the moved event after every event scheduled so
  // far at `time_s`, as a cancel + schedule would.
  const Entry moved{time_s, next_seq_++, slot_of(id)};
  if (moved < heap_[pos]) {
    sift_up(pos, moved);
  } else {
    sift_down(pos, moved);
  }
  return true;
}

void Simulation::fire_top() {
  const Entry top = heap_.front();
  heap_erase(0);
  // Move the callback out and recycle the slot *before* invoking, so the
  // callback can freely schedule new events (possibly into this slot).
  EventCallback callback = std::move(slab_[top.slot].callback);
  release_slot(top.slot);
  audit::clock_monotonic(now_, top.time_s);
  now_ = top.time_s;
  ++executed_;
  callback();
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  fire_top();
  return true;
}

std::size_t Simulation::drain_until(double t) {
  require_time(t, "Simulation::drain_until");
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().time_s <= t) {
    fire_top();
    ++executed;
  }
  return executed;
}

void Simulation::run_until(double t) {
  require_time(t, "Simulation::run_until");
  drain_until(t);
  now_ = t;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::heap_erase(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the erased entry was the last one
  if (pos > 0 && last < heap_[(pos - 1) / kArity]) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void Simulation::sift_up(std::size_t pos, Entry entry) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!(entry < heap_[parent])) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  heap_place(pos, entry);
}

void Simulation::sift_down(std::size_t pos, Entry entry) noexcept {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kArity, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (heap_[child] < heap_[best]) best = child;
    }
    if (!(heap_[best] < entry)) break;
    heap_place(pos, heap_[best]);
    pos = best;
  }
  heap_place(pos, entry);
}

}  // namespace vdc::sim
