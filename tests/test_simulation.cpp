#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

namespace vdc::sim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulation, TiesBreakInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, RejectsPastAndEmptyCallbacks) {
  Simulation sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(10.0, nullptr), std::invalid_argument);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulation, CancelUnknownIdReturnsFalse) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(12345));
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  std::vector<double> fired;
  sim.schedule(1.0, [&] { fired.push_back(1.0); });
  sim.schedule(2.0, [&] { fired.push_back(2.0); });
  sim.schedule(3.0, [&] { fired.push_back(3.0); });
  sim.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_THROW(sim.run_until(5.0), std::invalid_argument);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) sim.schedule_after(1.0, chain);
  };
  sim.schedule(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulation, ScheduleAfterUsesRelativeDelay) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule(2.0, [&] {
    sim.schedule_after(3.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, CancelInsideEvent) {
  Simulation sim;
  bool second_fired = false;
  EventId second = 0;
  sim.schedule(1.0, [&] { sim.cancel(second); });
  second = sim.schedule(2.0, [&] { second_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunUntilWithOnlyCancelledEvents) {
  Simulation sim;
  const EventId id = sim.schedule(1.0, [] { FAIL(); });
  sim.cancel(id);
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// ---- non-finite times ---------------------------------------------------------
// Every entry point that takes a time rejects NaN and infinities in every
// build, not only when invariant checks are compiled in: a NaN bound used to
// fire every pending event and leave the clock at NaN.

constexpr std::array<double, 3> kNonFinite = {std::numeric_limits<double>::quiet_NaN(),
                                              std::numeric_limits<double>::infinity(),
                                              -std::numeric_limits<double>::infinity()};

TEST(Simulation, ScheduleRejectsNonFiniteTime) {
  Simulation sim;
  for (const double t : kNonFinite) {
    EXPECT_THROW(sim.schedule(t, [] { FAIL(); }), std::invalid_argument) << t;
    EXPECT_THROW(sim.schedule_after(t, [] { FAIL(); }), std::invalid_argument) << t;
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_size(), 0u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulation, RescheduleRejectsNonFiniteTime) {
  Simulation sim;
  int fired = 0;
  const EventId id = sim.schedule(1.0, [&] { ++fired; });
  for (const double t : kNonFinite) {
    EXPECT_THROW(sim.reschedule(id, t), std::invalid_argument) << t;
  }
  // The event is untouched: still pending at its original time.
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), 1.0);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(Simulation, RunUntilRejectsNonFiniteTime) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(2.0, [&] { ++fired; });
  for (const double t : kNonFinite) {
    EXPECT_THROW(sim.run_until(t), std::invalid_argument) << t;
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 2u);
}

TEST(Simulation, DrainUntilRejectsNonFiniteTime) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  for (const double t : kNonFinite) {
    EXPECT_THROW(sim.drain_until(t), std::invalid_argument) << t;
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.drain_until(1.0), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, RunUntilAndDrainUntilRejectPastTime) {
  Simulation sim;
  sim.run_until(5.0);
  EXPECT_THROW(sim.run_until(4.0), std::invalid_argument);
  EXPECT_THROW(sim.drain_until(4.0), std::invalid_argument);
  EXPECT_EQ(sim.now(), 5.0);
}

// ---- reschedule ---------------------------------------------------------------

TEST(Simulation, RescheduleMovesEventAndKeepsHandle) {
  Simulation sim;
  std::vector<double> fired;
  const EventId id = sim.schedule(5.0, [&] { fired.push_back(sim.now()); });
  EXPECT_TRUE(sim.reschedule(id, 2.0));  // earlier
  EXPECT_TRUE(sim.reschedule(id, 3.0));  // later
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.heap_size(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{3.0}));
  // Fired: the handle no longer names a pending event.
  EXPECT_FALSE(sim.reschedule(id, 10.0));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, RescheduledHandleStillCancels) {
  Simulation sim;
  const EventId id = sim.schedule(1.0, [] { FAIL(); });
  ASSERT_TRUE(sim.reschedule(id, 4.0));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.reschedule(id, 2.0));  // cancelled events stay cancelled
  EXPECT_EQ(sim.heap_size(), 0u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulation, RescheduleTakesFreshFifoPlace) {
  // Same as cancel + schedule: the moved event fires after every event
  // already scheduled at its new time, even if it was scheduled first.
  Simulation sim;
  std::vector<int> order;
  const EventId first = sim.schedule(1.0, [&] { order.push_back(0); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  ASSERT_TRUE(sim.reschedule(first, 1.0));
  sim.schedule(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 3, 2}));
}

TEST(Simulation, RescheduleRejectsPastTimeAndLeavesEventPending) {
  Simulation sim;
  int fired = 0;
  sim.run_until(2.0);
  const EventId id = sim.schedule(3.0, [&] { ++fired; });
  EXPECT_THROW(sim.reschedule(id, 1.0), std::invalid_argument);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulation, RescheduleUnknownIdIsNoOp) {
  Simulation sim;
  EXPECT_FALSE(sim.reschedule(kNoEvent, 1.0));
  EXPECT_FALSE(sim.reschedule(12345, 1.0));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, CancelRemovesHeapEntryImmediately) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int k = 0; k < 64; ++k) ids.push_back(sim.schedule(1.0 + (k % 7), [] {}));
  for (std::size_t k = 0; k < ids.size(); k += 2) EXPECT_TRUE(sim.cancel(ids[k]));
  EXPECT_EQ(sim.pending_events(), 32u);
  EXPECT_EQ(sim.heap_size(), 32u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 32u);
}

TEST(Simulation, CancelAndRescheduleAnywhereKeepHeapOrder) {
  // Times scheduled in scrambled order, then entries cancelled and moved
  // from every depth of the heap: the firing order must still be the
  // sorted (time, scheduling order) of the survivors.
  Simulation sim;
  struct Planned {
    double time_s;
    int order;  // rank among events at the same time, by scheduling order
    int label;
  };
  std::vector<Planned> expected;
  std::vector<EventId> ids;
  std::vector<int> fired;
  int next_order = 0;
  for (int k = 0; k < 300; ++k) {
    const double t = static_cast<double>((k * 37) % 101);  // scrambled, with repeats
    ids.push_back(sim.schedule(t, [&fired, k] { fired.push_back(k); }));
    expected.push_back({t, next_order++, k});
  }
  for (int k = 0; k < 300; k += 3) {
    ASSERT_TRUE(sim.cancel(ids[static_cast<std::size_t>(k)]));
    expected[static_cast<std::size_t>(k)].label = -1;
  }
  for (int k = 1; k < 300; k += 7) {
    if (k % 3 == 0) continue;  // cancelled above
    const double t = static_cast<double>((k * 53) % 97);
    ASSERT_TRUE(sim.reschedule(ids[static_cast<std::size_t>(k)], t));
    expected[static_cast<std::size_t>(k)].time_s = t;
    expected[static_cast<std::size_t>(k)].order = next_order++;
  }
  EXPECT_EQ(sim.heap_size(), sim.pending_events());
  std::erase_if(expected, [](const Planned& p) { return p.label < 0; });
  std::sort(expected.begin(), expected.end(), [](const Planned& a, const Planned& b) {
    // vdc-lint: float-eq-ok exact ordering of integral test times
    if (a.time_s != b.time_s) return a.time_s < b.time_s;
    return a.order < b.order;
  });
  std::vector<int> want;
  for (const Planned& p : expected) want.push_back(p.label);
  sim.run();
  EXPECT_EQ(fired, want);
}

// ---- slab / generation-handle semantics -------------------------------------

TEST(Simulation, RecycledSlotDoesNotResurrectOldId) {
  Simulation sim;
  const EventId stale = sim.schedule(1.0, [] {});
  sim.run();  // slot released back to the free list

  // The next schedule reuses the slot under a bumped generation: the old
  // handle must neither cancel nor alias the new event.
  bool fired = false;
  sim.schedule(2.0, [&] { fired = true; });
  EXPECT_FALSE(sim.cancel(stale));
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, DoubleCancelReturnsFalseAndSlotIsReusable) {
  Simulation sim;
  const EventId id = sim.schedule(1.0, [] { FAIL(); });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);

  int fired = 0;
  for (int k = 0; k < 100; ++k) sim.schedule(1.0 + k, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 100);
}

TEST(Simulation, SlotsAreRecycledNotLeaked) {
  Simulation sim;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 20; ++k) sim.schedule_after(0.5, [] {});
    sim.run();
  }
  // 1000 events executed through at most 20 concurrent slots.
  EXPECT_EQ(sim.events_executed(), 1000u);
  EXPECT_LE(sim.slab_size(), 20u);
}

TEST(Simulation, CallbackCanRescheduleIntoItsOwnSlot) {
  // The executing event's slot is released before its callback runs, so a
  // self-rescheduling callback (the PsQueue completion pattern) may land in
  // the very slot it came from — and must still execute correctly.
  Simulation sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 10) sim.schedule_after(1.0, [&] { hop(); });
  };
  sim.schedule(1.0, [&] { hop(); });
  sim.run();
  EXPECT_EQ(hops, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulation, LargeCallbacksFallBackToHeapStorage) {
  // Callbacks bigger than the inline buffer take the heap path of
  // EventCallback; behaviour must be indistinguishable.
  Simulation sim;
  std::array<double, 32> payload{};  // 256 bytes, well past the inline buffer
  payload.fill(1.5);
  double sum = 0.0;
  sim.schedule(1.0, [payload, &sum] {
    for (const double v : payload) sum += v;
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 48.0);
}

TEST(EventCallback, ReportsInlineVersusHeapStorage) {
  int x = 0;
  EventCallback small([&x] { ++x; });
  EXPECT_TRUE(small.is_inline());

  std::array<char, 128> big{};
  EventCallback large([big, &x] { x += big[0] + 2; });
  EXPECT_FALSE(large.is_inline());

  small();
  large();
  EXPECT_EQ(x, 3);

  // Moving transfers the callable (inline via relocate, heap via pointer).
  EventCallback moved(std::move(large));
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_FALSE(static_cast<bool>(large));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(x, 5);
}

}  // namespace
}  // namespace vdc::sim
