// Discrete-event simulation kernel. Single-threaded, deterministic: events
// with equal timestamps fire in scheduling order. This is the substrate on
// which the multi-tier application testbed (RUBBoS-equivalent) runs.
//
// Event storage is a slab: callbacks live in a contiguous vector of records
// addressed by a 32-bit slot index, and an EventId packs that slot with a
// 32-bit generation counter so a recycled slot invalidates stale handles in
// O(1) without a hash lookup. The heap is an indexed binary heap of plain
// (time, seq, slot) entries, and each record keeps its entry's position, so
// the heap holds live events only: `cancel` removes the entry in O(log n)
// and `reschedule` moves it in place, keeping the callback and the handle.
// FIFO order among equal timestamps is preserved by a monotonic sequence
// number, independent of slot reuse; a reschedule draws a fresh one, so it
// fires exactly where a cancel followed by a schedule would.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_callback.hpp"

namespace vdc::sim {

/// Opaque event handle: (generation << 32) | slot. Never 0 for a live event,
/// so 0 can be used as a "no event" sentinel by callers.
using EventId = std::uint64_t;

/// The "no event pending" sentinel (generations start at 1, so no live
/// event ever has this id; `cancel(kNoEvent)` is a harmless no-op).
inline constexpr EventId kNoEvent = 0;

class Simulation {
 public:
  /// Current simulation time in seconds.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedules `callback` at absolute time `time_s` (finite, >= now).
  /// Returns a handle usable with `cancel` and `reschedule`.
  EventId schedule(double time_s, EventCallback callback);

  /// Schedules `callback` after a relative delay (>= 0).
  EventId schedule_after(double delay_s, EventCallback callback) {
    return schedule(now_ + delay_s, std::move(callback));
  }

  /// Schedules a bracketed interval: `on_start` fires at absolute time
  /// `start_s`, `on_end` at `end_s` (> start_s). Convenience for windowed
  /// state changes (fault windows, load phases); returns both handles so
  /// either edge can still be cancelled.
  std::pair<EventId, EventId> schedule_window(double start_s, double end_s,
                                              EventCallback on_start, EventCallback on_end) {
    EventId begin = schedule(start_s, std::move(on_start));
    EventId end = schedule(end_s, std::move(on_end));
    return {begin, end};
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown event
  /// is a no-op; returns whether an event was actually cancelled.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `time_s` (finite, >= now),
  /// keeping its callback and its handle. It fires exactly where
  /// `cancel(id)` followed by `schedule(time_s, same callback)` would: it
  /// takes a fresh place in the FIFO order among equal timestamps. An
  /// already-fired or unknown event is left alone; returns whether an
  /// event was moved.
  bool reschedule(EventId id, double time_s);

  /// Executes the next pending event. Returns false when the queue is empty.
  bool step();

  /// Processes all events with time <= t (finite, >= now), then advances
  /// the clock to t.
  void run_until(double t);

  /// Processes all events with time <= t (finite, >= now) but leaves the
  /// clock at the last executed event instead of fast-forwarding it to t.
  /// Returns the number of events executed. The ScenarioRunner uses this to
  /// flush the final control period of a scenario without inventing idle
  /// time past it.
  std::size_t drain_until(double t);

  /// Runs until no events remain.
  void run();

  /// Timestamp of the next pending event, or nullopt when the queue is
  /// empty; the sharded engine peeks this to pick the next barrier time.
  [[nodiscard]] std::optional<double> next_event_time() const noexcept {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().time_s;
  }

  /// Events scheduled and not yet fired or cancelled (armed slab records).
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return slab_.size() - free_slots_.size();
  }
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Capacity of the event slab (high-water mark of simultaneously pending
  /// events) — exposed for tests and the perf bench.
  [[nodiscard]] std::size_t slab_size() const noexcept { return slab_.size(); }

  /// Entries in the event heap. Equals `pending_events()`: the heap holds
  /// no cancelled entries — exposed for tests.
  [[nodiscard]] std::size_t heap_size() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    double time_s;
    std::uint64_t seq;  // monotonic scheduling order: FIFO tie-break
    std::uint32_t slot;
    // min-heap on (time_s, seq)
    bool operator<(const Entry& other) const noexcept {
      // vdc-lint: float-eq-ok exact heap ordering; equal keys defer to seq for FIFO
      if (time_s != other.time_s) return time_s < other.time_s;
      return seq < other.seq;
    }
  };

  /// `heap_pos` of a record that is not in the heap (free or firing).
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;

  struct Record {
    EventCallback callback;
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kNotQueued;
  };

  static constexpr EventId make_id(std::uint32_t generation, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffull);
  }
  static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Throws std::invalid_argument unless `t` is finite and not before now.
  void require_time(double t, const char* what) const;

  /// The record `id` names while its event is pending, else nullptr.
  [[nodiscard]] Record* pending_record(EventId id) noexcept;

  /// Pops the heap top, recycles its slot and runs its callback.
  void fire_top();

  /// Removes the entry at heap position `pos`, restoring heap order.
  void heap_erase(std::size_t pos);
  /// Stores `entry` at `pos` and records the position in its slab record.
  void heap_place(std::size_t pos, const Entry& entry) noexcept {
    heap_[pos] = entry;
    slab_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  /// Moves `entry` from hole `pos` towards the root to its place.
  void sift_up(std::size_t pos, Entry entry) noexcept;
  /// Moves `entry` from hole `pos` towards the leaves to its place.
  void sift_down(std::size_t pos, Entry entry) noexcept;

  /// Disarms a record and recycles its slot; the generation bump invalidates
  /// every outstanding handle referring to it.
  void release_slot(std::uint32_t slot) {
    Record& rec = slab_[slot];
    rec.heap_pos = kNotQueued;
    rec.callback.reset();
    ++rec.generation;
    free_slots_.push_back(slot);
  }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // min-heap on (time_s, seq); live events only
  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace vdc::sim
