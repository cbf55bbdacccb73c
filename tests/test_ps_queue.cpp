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

TEST(PsQueue, RemoveJobReturnsResidualWork) {
  Simulation sim;
  PsQueue q(sim, 1.0, [](JobId) {});
  const JobId id = q.add_job(2.0);
  sim.schedule(1.0, [&] {
    const double remaining = q.remove_job(id);
    EXPECT_NEAR(remaining, 1.0, 1e-9);
  });
  sim.run();
  EXPECT_EQ(q.jobs_in_service(), 0u);
  EXPECT_LT(q.remove_job(id), 0.0);  // unknown job
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

TEST(PsQueue, CallerTagsTravelWithTheirJobsInBothModes) {
  // Enough jobs to cross into the virtual-time index and back, with
  // distinct demands, so tags must survive both conversions.
  Simulation sim;
  std::vector<std::pair<JobId, std::uint64_t>> done;
  PsQueue q(sim, 50.0, [&](JobId id, std::uint64_t tag) { done.emplace_back(id, tag); });
  std::vector<std::pair<JobId, std::uint64_t>> admitted;
  const std::size_t jobs = PsQueue::kFastUpThreshold + 100;
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::uint64_t tag = 7000 + 3 * i;
    admitted.emplace_back(q.add_job(0.01 * static_cast<double>(1 + i % 37), tag), tag);
  }
  EXPECT_TRUE(q.fast_mode());
  sim.run();
  EXPECT_FALSE(q.fast_mode());
  ASSERT_EQ(done.size(), jobs);
  std::sort(done.begin(), done.end());
  EXPECT_EQ(done, admitted);  // ids ascend with admission, so both are sorted
}

TEST(PsQueue, HandlerMayReenterTheQueueMidDelivery) {
  // Three equal jobs finish in one sync. Each completion re-enters the
  // queue: it admits a tagged replacement, and the first also removes a
  // long job and changes the capacity.
  Simulation sim;
  std::vector<std::uint64_t> tags;
  PsQueue* queue = nullptr;
  JobId long_job = 0;
  PsQueue q(sim, 1.0, [&](JobId, std::uint64_t tag) {
    tags.push_back(tag);
    if (tag < 10) queue->add_job(0.5, tag + 10);
    if (tag == 1) {
      EXPECT_GT(queue->remove_job(long_job), 0.0);
      queue->set_capacity(2.0);
    }
  });
  queue = &q;
  q.add_job(1.0, 1);
  q.add_job(1.0, 2);
  q.add_job(1.0, 3);
  long_job = q.add_job(100.0, 99);
  sim.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, 2, 3, 11, 12, 13}));
  EXPECT_EQ(q.jobs_in_service(), 0u);
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
