// Differential replay tests: the optimized event loop (slab Simulation +
// dual-mode PsQueue) against the retained naive reference implementations in
// sim/naive.hpp. Both engines are driven through the same seeded closed-loop
// workload; below the dual-mode threshold the optimized queue reproduces the
// naive floating-point summation order exactly, so results must be
// bit-identical. Above the threshold the virtual-time formulation is used
// and only tight-tolerance agreement is required.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/naive.hpp"
#include "sim/ps_queue.hpp"
#include "sim/simulation.hpp"
#include "telemetry/export.hpp"
#include "util/rng.hpp"

namespace vdc {
namespace {

struct ReplayTrace {
  std::vector<std::uint64_t> order;  // completion order (job ids)
  std::vector<double> times;         // completion timestamps
  double busy_time_s = 0.0;
  double stalled_time_s = 0.0;
  double work_done_gcycles = 0.0;
};

/// Closed-loop workload with capacity modulation and occasional job
/// abandonment — exercises add, remove, completion, set_capacity and the
/// stall path on whichever engine is instantiated.
template <typename Sim, typename Queue>
ReplayTrace replay(std::size_t clients, std::uint64_t target_completions,
                   std::uint64_t seed) {
  Sim sim;
  util::Rng rng(seed);
  ReplayTrace trace;
  std::uint64_t completions = 0;

  Queue* queue_ptr = nullptr;
  Queue queue(sim, 2.0, [&](std::uint64_t job) {
    ++completions;
    trace.order.push_back(job);
    trace.times.push_back(sim.now());
    if (completions >= target_completions) return;
    sim.schedule_after(rng.exponential(0.02), [&] {
      const std::uint64_t id = queue_ptr->add_job(rng.bounded_pareto(1.2, 0.05, 4.0));
      // A slice of requests is abandoned shortly after admission.
      if (rng.bernoulli(0.05)) {
        sim.schedule_after(rng.exponential(0.005), [&, id] { queue_ptr->remove_job(id); });
      }
    });
  });
  queue_ptr = &queue;

  for (std::size_t i = 0; i < clients; ++i) queue.add_job(rng.bounded_pareto(1.2, 0.05, 4.0));
  // DVFS-style capacity steps, including a stall window at zero capacity.
  const double caps[] = {2.0, 1.0, 0.0, 3.0, 1.5};
  for (int k = 0; k < 40; ++k) {
    sim.schedule(0.25 * (k + 1), [&queue, &caps, k] { queue.set_capacity(caps[k % 5]); });
  }
  while (completions < target_completions && sim.step()) {
  }
  trace.busy_time_s = queue.busy_time_s();
  trace.stalled_time_s = queue.stalled_time_s();
  trace.work_done_gcycles = queue.work_done_gcycles();
  return trace;
}

TEST(EventLoopEquivalence, SmallWorkloadIsBitIdenticalToNaive) {
  // 120 clients stays far below the dual-mode threshold: the optimized queue
  // runs the historical summation order and every double must match bitwise.
  const ReplayTrace fast = replay<sim::Simulation, sim::PsQueue>(120, 3000, 42);
  const ReplayTrace ref = replay<sim::naive::Simulation, sim::naive::PsQueue>(120, 3000, 42);

  ASSERT_EQ(fast.order.size(), ref.order.size());
  EXPECT_EQ(fast.order, ref.order);
  for (std::size_t i = 0; i < fast.times.size(); ++i) {
    ASSERT_EQ(fast.times[i], ref.times[i]) << "timestamp diverged at completion " << i;
  }
  EXPECT_EQ(fast.busy_time_s, ref.busy_time_s);
  EXPECT_EQ(fast.stalled_time_s, ref.stalled_time_s);
  EXPECT_EQ(fast.work_done_gcycles, ref.work_done_gcycles);
}

TEST(EventLoopEquivalence, LargeWorkloadAgreesWithinTolerance) {
  // 1500 clients pushes the optimized queue into the virtual-time mode where
  // the summation order legitimately differs at ulp level; completion ORDER
  // must still be identical and every statistic tightly close.
  const ReplayTrace fast = replay<sim::Simulation, sim::PsQueue>(1500, 2500, 7);
  const ReplayTrace ref = replay<sim::naive::Simulation, sim::naive::PsQueue>(1500, 2500, 7);

  ASSERT_EQ(fast.order.size(), ref.order.size());
  EXPECT_EQ(fast.order, ref.order);
  for (std::size_t i = 0; i < fast.times.size(); ++i) {
    const double scale = std::max(1.0, std::abs(ref.times[i]));
    ASSERT_NEAR(fast.times[i], ref.times[i], 1e-9 * scale) << "completion " << i;
  }
  EXPECT_NEAR(fast.busy_time_s, ref.busy_time_s, 1e-9 * std::max(1.0, ref.busy_time_s));
  EXPECT_NEAR(fast.stalled_time_s, ref.stalled_time_s, 1e-9 * std::max(1.0, ref.stalled_time_s));
  EXPECT_NEAR(fast.work_done_gcycles, ref.work_done_gcycles, 1e-6 * std::max(1.0, ref.work_done_gcycles));
}

TEST(EventLoopEquivalence, DualModeCrossoverPreservesJobs) {
  sim::Simulation sim;
  std::size_t completed = 0;
  sim::PsQueue q(sim, 1.0, [&](sim::JobId) { ++completed; });

  std::vector<sim::JobId> ids;
  for (std::size_t i = 0; i < sim::PsQueue::kFastUpThreshold - 1; ++i) {
    ids.push_back(q.add_job(1000.0));
  }
  EXPECT_FALSE(q.fast_mode());
  ids.push_back(q.add_job(1000.0));  // crosses the up-threshold
  EXPECT_TRUE(q.fast_mode());
  EXPECT_EQ(q.jobs_in_service(), sim::PsQueue::kFastUpThreshold);

  // Removing back below the down-threshold (hysteresis) converts back; every
  // job must survive both conversions with its residual intact.
  while (q.jobs_in_service() > sim::PsQueue::kFastDownThreshold) {
    const double remaining = q.remove_job(ids.back());
    ids.pop_back();
    EXPECT_GT(remaining, 0.0);
  }
  EXPECT_FALSE(q.fast_mode());
  EXPECT_EQ(q.jobs_in_service(), sim::PsQueue::kFastDownThreshold);
  for (const sim::JobId id : ids) {
    EXPECT_NEAR(q.remove_job(id), 1000.0, 1e-6);
  }
  EXPECT_EQ(q.jobs_in_service(), 0u);
  EXPECT_EQ(completed, 0u);
}

TEST(EventLoopEquivalence, TelemetryCsvIsByteDeterministic) {
  // The monitor/statistics rewrite sits in the control loop; two identical
  // runs must still serialize to the very same CSV bytes.
  core::ScenarioSpec spec;
  spec.name = "determinism";
  spec.stack.app = app::default_two_tier_app("a", 1, 40);
  spec.policy = [](const std::optional<app::PeriodStats>&) {
    return std::vector<double>(2, 0.6);
  };
  spec.seed = 99;
  spec.duration_s = 120.0;

  const core::ScenarioResult first = core::ScenarioRunner().run(spec);
  const core::ScenarioResult second = core::ScenarioRunner().run(spec);
  const std::string csv_a = telemetry::to_csv(first.recorder);
  const std::string csv_b = telemetry::to_csv(second.recorder);
  EXPECT_FALSE(csv_a.empty());
  EXPECT_EQ(csv_a, csv_b);
}

}  // namespace
}  // namespace vdc
