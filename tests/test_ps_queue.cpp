#include "sim/ps_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace vdc::sim {
namespace {

struct Completions {
  std::vector<JobId> ids;
  std::vector<double> times;
};

TEST(PsQueue, SingleJobCompletesAtDemandOverCapacity) {
  Simulation sim;
  Completions done;
  PsQueue q(sim, 2.0, [&](JobId id) {
    done.ids.push_back(id);
    done.times.push_back(sim.now());
  });
  q.add_job(1.0);  // 1 Gcycle at 2 GHz -> 0.5 s
  sim.run();
  ASSERT_EQ(done.ids.size(), 1u);
  EXPECT_NEAR(done.times[0], 0.5, 1e-9);
}

TEST(PsQueue, TwoEqualJobsShareCapacity) {
  Simulation sim;
  Completions done;
  PsQueue q(sim, 1.0, [&](JobId) { done.times.push_back(sim.now()); });
  q.add_job(1.0);
  q.add_job(1.0);
  sim.run();
  ASSERT_EQ(done.times.size(), 2u);
  // Both receive 0.5 GHz until both finish at t = 2.
  EXPECT_NEAR(done.times[0], 2.0, 1e-9);
  EXPECT_NEAR(done.times[1], 2.0, 1e-9);
}

TEST(PsQueue, UnequalJobsFinishInDemandOrder) {
  Simulation sim;
  Completions done;
  PsQueue q(sim, 1.0, [&](JobId id) {
    done.ids.push_back(id);
    done.times.push_back(sim.now());
  });
  const JobId small = q.add_job(0.5);
  const JobId large = q.add_job(1.5);
  sim.run();
  ASSERT_EQ(done.ids.size(), 2u);
  EXPECT_EQ(done.ids[0], small);
  EXPECT_EQ(done.ids[1], large);
  // Shared until small finishes at t=1 (each got 0.5); large has 1.0 left,
  // then runs alone: finishes at t=2.
  EXPECT_NEAR(done.times[0], 1.0, 1e-9);
  EXPECT_NEAR(done.times[1], 2.0, 1e-9);
}

TEST(PsQueue, LateArrivalSharesRemainingWork) {
  Simulation sim;
  Completions done;
  PsQueue q(sim, 1.0, [&](JobId id) {
    done.ids.push_back(id);
    done.times.push_back(sim.now());
  });
  const JobId first = q.add_job(1.0);
  sim.schedule(0.5, [&] { q.add_job(1.0); });
  sim.run();
  ASSERT_EQ(done.ids.size(), 2u);
  EXPECT_EQ(done.ids[0], first);
  // First: 0.5 done alone, then shares: remaining 0.5 at rate 0.5 -> t=1.5.
  EXPECT_NEAR(done.times[0], 1.5, 1e-9);
  // Second: got 0.5 by t=1.5, then alone for 0.5 -> t=2.0.
  EXPECT_NEAR(done.times[1], 2.0, 1e-9);
}

TEST(PsQueue, CapacityChangePreservesWork) {
  Simulation sim;
  Completions done;
  PsQueue q(sim, 1.0, [&](JobId) { done.times.push_back(sim.now()); });
  q.add_job(2.0);
  sim.schedule(1.0, [&] { q.set_capacity(2.0); });  // halfway through
  sim.run();
  ASSERT_EQ(done.times.size(), 1u);
  // 1 Gcycle done at t=1; remaining 1 Gcycle at 2 GHz -> +0.5 s.
  EXPECT_NEAR(done.times[0], 1.5, 1e-9);
}

TEST(PsQueue, ZeroCapacityStallsUntilRestored) {
  Simulation sim;
  Completions done;
  PsQueue q(sim, 0.0, [&](JobId) { done.times.push_back(sim.now()); });
  q.add_job(1.0);
  sim.schedule(3.0, [&] { q.set_capacity(1.0); });
  sim.run();
  ASSERT_EQ(done.times.size(), 1u);
  EXPECT_NEAR(done.times[0], 4.0, 1e-9);
}

// Regression: sync() used to add elapsed time to busy_time_s_ BEFORE the
// capacity <= 0 early-return, so a starved queue (jobs resident, zero CPU)
// read as 100% busy. Stalled intervals must accrue to stalled_time_s() only.
TEST(PsQueue, StalledIntervalIsNotBusyTime) {
  Simulation sim;
  PsQueue q(sim, 0.0, [](JobId) {});
  q.add_job(1.0);
  sim.schedule(3.0, [&] { q.set_capacity(1.0); });
  sim.run();
  // [0, 3] stalled at zero capacity, [3, 4] actually serving.
  EXPECT_NEAR(q.stalled_time_s(), 3.0, 1e-12);
  EXPECT_NEAR(q.busy_time_s(), 1.0, 1e-12);
}

TEST(PsQueue, StallAfterPartialServiceSplitsAccounting) {
  Simulation sim;
  PsQueue q(sim, 2.0, [](JobId) {});
  q.add_job(4.0);                                    // would finish at t=2
  sim.schedule(1.0, [&] { q.set_capacity(0.0); });   // starve halfway
  sim.schedule(5.0, [&] { q.set_capacity(2.0); });   // resume, +1 s to finish
  sim.run();
  EXPECT_NEAR(q.busy_time_s(), 2.0, 1e-12);
  EXPECT_NEAR(q.stalled_time_s(), 4.0, 1e-12);
  EXPECT_NEAR(q.work_done_gcycles(), 4.0, 1e-12);
}

TEST(PsQueue, WorkDoneIsConserved) {
  Simulation sim;
  PsQueue q(sim, 1.5, [](JobId) {});
  q.add_job(1.0);
  q.add_job(0.5);
  q.add_job(0.25);
  sim.run();
  EXPECT_NEAR(q.work_done_gcycles(), 1.75, 1e-9);
}

TEST(PsQueue, BusyTimeTracksOccupancy) {
  Simulation sim;
  PsQueue q(sim, 1.0, [](JobId) {});
  q.add_job(1.0);  // busy [0, 1]
  sim.schedule(5.0, [&] { q.add_job(2.0); });  // busy [5, 7]
  sim.run();
  EXPECT_NEAR(q.busy_time_s(), 3.0, 1e-9);
}

TEST(PsQueue, CallerTagsTravelWithTheirJobsInADeepQueue) {
  // More resident jobs than the shallow queues of the figure benches, with
  // distinct demands, so tags must follow their jobs through many heap
  // reorderings.
  Simulation sim;
  std::vector<std::pair<JobId, std::uint64_t>> done;
  PsQueue q(sim, 50.0, [&](JobId id, std::uint64_t tag) { done.emplace_back(id, tag); });
  std::vector<std::pair<JobId, std::uint64_t>> admitted;
  const std::size_t jobs = 612;
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::uint64_t tag = 7000 + 3 * i;
    admitted.emplace_back(q.add_job(0.01 * static_cast<double>(1 + i % 37), tag), tag);
  }
  EXPECT_EQ(q.jobs_in_service(), jobs);
  sim.run();
  EXPECT_EQ(q.jobs_in_service(), 0u);
  ASSERT_EQ(done.size(), jobs);
  std::sort(done.begin(), done.end());
  EXPECT_EQ(done, admitted);  // ids ascend with admission, so both are sorted
}

TEST(PsQueue, HandlerMayReenterTheQueueMidDelivery) {
  // Three equal jobs finish in one sync. Each completion re-enters the
  // queue: it admits a tagged replacement, and the first also changes the
  // capacity. The long job finishes last.
  Simulation sim;
  std::vector<std::uint64_t> tags;
  PsQueue* queue = nullptr;
  PsQueue q(sim, 1.0, [&](JobId, std::uint64_t tag) {
    tags.push_back(tag);
    if (tag < 10) queue->add_job(0.5, tag + 10);
    if (tag == 1) queue->set_capacity(2.0);
  });
  queue = &q;
  q.add_job(1.0, 1);
  q.add_job(1.0, 2);
  q.add_job(1.0, 3);
  q.add_job(100.0, 99);
  sim.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, 2, 3, 11, 12, 13, 99}));
  EXPECT_EQ(q.jobs_in_service(), 0u);
  EXPECT_NEAR(q.work_done_gcycles(), 104.5, 1e-9);
}

TEST(PsQueue, CompletionsKeepTheClockMovingLateInALongRun) {
  // Two resident jobs at 3 GHz; every completion admits a replacement, so
  // the queue never empties and the run reaches times where ulp(now) *
  // capacity / n exceeds the queue's Gcycle tolerance. A completion rule
  // that only compares Gcycles leaves a residual there whose finish time
  // rounds back to now: the completion event then fires at now forever
  // (at 8,192.33 s for this queue). Stepping event by event turns that hang
  // into a failure.
  Simulation sim;
  std::uint64_t completions = 0;
  PsQueue* queue = nullptr;
  PsQueue q(sim, 3.0, [&](JobId) {
    ++completions;
    queue->add_job(0.5 + 0.25 * static_cast<double>(completions % 3));
  });
  queue = &q;
  q.add_job(0.5);
  q.add_job(0.75);
  constexpr double kHorizonS = 20'000.0;
  constexpr int kMaxEventsAtOneTime = 1'000;
  double last_now = sim.now();
  int events_at_now = 0;
  while (sim.now() < kHorizonS) {
    ASSERT_TRUE(sim.step());
    if (sim.now() > last_now) {
      last_now = sim.now();
      events_at_now = 0;
    } else {
      ASSERT_LT(++events_at_now, kMaxEventsAtOneTime) << "clock stopped at " << sim.now();
    }
  }
  EXPECT_EQ(q.jobs_in_service(), 2u);
  // 3 Gcycles/s of service over jobs of 0.75 Gcycles on average.
  EXPECT_NEAR(static_cast<double>(completions), kHorizonS * 3.0 / 0.75, 10.0);
}

TEST(PsQueue, JobTooSmallToMoveTheClockCompletesAtOnce) {
  // At now = 100,000 s a job of 2e-12 Gcycles at 3 GHz is above the Gcycle
  // tolerance but finishes 6.7e-13 s out, under half an ulp of now: its
  // completion event fires at now with no time elapsed. The time arm of
  // the completion rule must complete it there, not re-arm the event at
  // the same instant.
  Simulation sim;
  std::vector<double> times;
  PsQueue q(sim, 3.0, [&](JobId) { times.push_back(sim.now()); });
  sim.schedule(100'000.0, [&] { q.add_job(2e-12); });
  for (int events = 0; sim.step(); ++events) ASSERT_LT(events, 100);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 100'000.0);
  EXPECT_EQ(q.jobs_in_service(), 0u);
  EXPECT_NEAR(q.work_done_gcycles(), 2e-12, 1e-15);
}

TEST(PsQueue, EqualMarksCompleteInAdmissionOrder) {
  // A job admitted at t = 0 with demand 2 and one admitted at t = 0.5 with
  // demand 1.5 share the same finish mark (each has 1.5 left at t = 0.5),
  // so they complete in one sync at t = 3.5; two equal jobs admitted
  // together later tie too. Each tie is delivered in admission order.
  Simulation sim;
  std::vector<std::uint64_t> tags;
  PsQueue q(sim, 1.0, [&](JobId, std::uint64_t tag) { tags.push_back(tag); });
  q.add_job(2.0, 1);
  sim.schedule(0.5, [&] { q.add_job(1.5, 2); });
  sim.run();
  EXPECT_EQ(sim.now(), 3.5);
  sim.schedule(sim.now() + 1.0, [&] {
    q.add_job(0.75, 3);
    q.add_job(0.75, 4);
  });
  sim.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(PsQueue, RejectsInvalidArguments) {
  Simulation sim;
  EXPECT_THROW(PsQueue(sim, -1.0, nullptr), std::invalid_argument);
  PsQueue q(sim, 1.0, [](JobId) {});
  EXPECT_THROW(q.add_job(0.0), std::invalid_argument);
  EXPECT_THROW(q.add_job(-1.0), std::invalid_argument);
  EXPECT_THROW(q.set_capacity(-2.0), std::invalid_argument);
}

class PsQueueFairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(PsQueueFairnessSweep, NEqualJobsFinishTogetherAtNTimesDemand) {
  const int n = GetParam();
  Simulation sim;
  std::vector<double> times;
  PsQueue q(sim, 2.0, [&](JobId) { times.push_back(sim.now()); });
  for (int i = 0; i < n; ++i) q.add_job(1.0);
  sim.run();
  ASSERT_EQ(times.size(), static_cast<std::size_t>(n));
  // Processor sharing: n equal jobs all finish at n * (demand / capacity).
  for (const double t : times) EXPECT_NEAR(t, n * 0.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PsQueueFairnessSweep, ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace vdc::sim
