// Differential replay tests: the optimized event loop (slab Simulation +
// virtual-time PsQueue) against the retained naive reference implementations
// in sim/naive.hpp. Both engines are driven through the same seeded
// closed-loop workload. The two queues sum service in different orders, so
// completion order must be identical and times agree to a tight tolerance;
// the event kernels alone must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
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

/// Closed-loop workload with capacity modulation — exercises add,
/// completion, set_capacity and the stall path on whichever engine is
/// instantiated.
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
    sim.schedule_after(rng.exponential(0.02),
                       [&] { queue_ptr->add_job(rng.bounded_pareto(1.2, 0.05, 4.0)); });
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

/// Same completion order as the oracle, every time within 1e-9 relative,
/// and the accounting tightly close.
void expect_agreement(const ReplayTrace& fast, const ReplayTrace& ref) {
  ASSERT_EQ(fast.order.size(), ref.order.size());
  EXPECT_EQ(fast.order, ref.order);
  for (std::size_t i = 0; i < fast.times.size(); ++i) {
    const double scale = std::max(1.0, std::abs(ref.times[i]));
    ASSERT_NEAR(fast.times[i], ref.times[i], 1e-9 * scale) << "completion " << i;
  }
  EXPECT_NEAR(fast.busy_time_s, ref.busy_time_s, 1e-9 * std::max(1.0, ref.busy_time_s));
  EXPECT_NEAR(fast.stalled_time_s, ref.stalled_time_s, 1e-9 * std::max(1.0, ref.stalled_time_s));
  EXPECT_NEAR(fast.work_done_gcycles, ref.work_done_gcycles,
              1e-6 * std::max(1.0, ref.work_done_gcycles));
}

TEST(EventLoopEquivalence, SmallWorkloadAgreesWithNaive) {
  // 120 clients: the queue depths of the figure benches.
  const ReplayTrace fast = replay<sim::Simulation, sim::PsQueue>(120, 3000, 42);
  const ReplayTrace ref = replay<sim::naive::Simulation, sim::naive::PsQueue>(120, 3000, 42);
  expect_agreement(fast, ref);
}

TEST(EventLoopEquivalence, LargeWorkloadAgreesWithinTolerance) {
  // 1500 clients: a deep queue, where one virtual-time addition replaces
  // 1500 per-job subtractions per sync.
  const ReplayTrace fast = replay<sim::Simulation, sim::PsQueue>(1500, 2500, 7);
  const ReplayTrace ref = replay<sim::naive::Simulation, sim::naive::PsQueue>(1500, 2500, 7);
  expect_agreement(fast, ref);
}

// ---- indexed event heap vs the naive kernel ----------------------------------

/// What a random schedule/cancel/reschedule script observed on one engine.
struct HeapTrace {
  std::vector<std::uint64_t> labels;  // firing order (event labels)
  std::vector<double> times;          // firing times
  std::vector<int> results;           // cancel/reschedule/step return values
  std::vector<std::size_t> pending;   // pending_events() after every op
  std::size_t stale_ops = 0;          // ops after which heap_size() != pending_events()
  std::uint64_t executed = 0;
};

/// Seeded random interleaving of schedule, cancel, reschedule, step and
/// run_until, with further schedule/cancel/reschedule calls made from
/// inside callbacks. Times are quantized to quarter seconds so many events
/// share a timestamp and the FIFO tie-break is exercised throughout. The
/// naive kernel has no reschedule; there it is cancel + schedule of the
/// same callback, which is the optimized kernel's contract.
template <typename Sim>
class HeapScript {
 public:
  static constexpr bool kOptimized = std::is_same_v<Sim, sim::Simulation>;

  explicit HeapScript(std::uint64_t seed) : rng_(seed) {}

  HeapTrace run(int ops) {
    for (int k = 0; k < ops; ++k) random_op(/*top_level=*/true);
    sim_.run();
    record();
    trace_.executed = sim_.events_executed();
    return trace_;
  }

 private:
  static constexpr std::size_t kMaxEvents = 6000;

  /// Mostly near-term times, a fifth of them up to 10 s out, so late
  /// schedules often land ahead of earlier ones in the heap.
  double quantized_time() {
    const std::int64_t quarters = rng_.bernoulli(0.2) ? 40 : 4;
    return sim_.now() + 0.25 * static_cast<double>(rng_.uniform_int(0, quarters));
  }

  auto callback(std::size_t label) {
    return [this, label] {
      trace_.labels.push_back(label);
      trace_.times.push_back(sim_.now());
      const std::int64_t nested = rng_.uniform_int(0, 2);
      for (std::int64_t k = 0; k < nested; ++k) random_op(/*top_level=*/false);
    };
  }

  void random_op(bool top_level) {
    switch (rng_.uniform_int(0, top_level ? 9 : 5)) {
      case 0:
      case 1:
      case 2:
        if (ids_.size() < kMaxEvents) {
          const std::size_t label = ids_.size();
          ids_.push_back(sim_.schedule(quantized_time(), callback(label)));
        }
        break;
      case 3:
        if (!ids_.empty()) trace_.results.push_back(sim_.cancel(ids_[rng_.index(ids_.size())]));
        break;
      case 4:
      case 5:
        if (!ids_.empty()) reschedule(rng_.index(ids_.size()), quantized_time());
        break;
      case 6:
      case 7:
        trace_.results.push_back(sim_.step());
        break;
      default:
        sim_.run_until(quantized_time());
        break;
    }
    record();
  }

  void reschedule(std::size_t label, double time_s) {
    if constexpr (kOptimized) {
      trace_.results.push_back(sim_.reschedule(ids_[label], time_s));
    } else {
      const bool pending = sim_.cancel(ids_[label]);
      if (pending) ids_[label] = sim_.schedule(time_s, callback(label));
      trace_.results.push_back(pending);
    }
  }

  void record() {
    trace_.pending.push_back(sim_.pending_events());
    if constexpr (kOptimized) {
      if (sim_.heap_size() != sim_.pending_events()) ++trace_.stale_ops;
    }
  }

  Sim sim_;
  util::Rng rng_;
  std::vector<sim::EventId> ids_;  // label -> current handle
  HeapTrace trace_;
};

TEST(EventLoopEquivalence, IndexedHeapMatchesNaiveUnderScheduleCancelReschedule) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    const HeapTrace fast = HeapScript<sim::Simulation>(seed).run(3000);
    const HeapTrace ref = HeapScript<sim::naive::Simulation>(seed).run(3000);

    ASSERT_GT(fast.labels.size(), 1000u);  // the script really ran events
    EXPECT_EQ(fast.labels, ref.labels);
    EXPECT_EQ(fast.times, ref.times);
    EXPECT_EQ(fast.results, ref.results);
    EXPECT_EQ(fast.pending, ref.pending);
    EXPECT_EQ(fast.executed, ref.executed);
    // No cancelled or moved event leaves an entry behind in the heap.
    EXPECT_EQ(fast.stale_ops, 0u);
  }
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
