#include "sim/sharded_engine.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace vdc::sim {

ShardedEngine::ShardedEngine(std::size_t shard_count, std::size_t threads)
    : threads_(threads), shards_(shard_count) {
  if (shard_count == 0) throw std::invalid_argument("ShardedEngine: need at least one shard");
}

void ShardedEngine::advance_shards(double t) {
  // Shard loops share no state below a barrier, so the advance is a plain
  // parallel_for; the caller participates, so this works on one core too.
  if (shards_.size() == 1) {
    shards_[0].run_until(t);
    return;
  }
  util::parallel_for(
      shards_.size(), [this, t](std::size_t i) { shards_[i].run_until(t); }, threads_);
}

void ShardedEngine::run_until(double t) {
  // A NaN bound compares false against every event time, so the barrier
  // loop below would run the self-rescheduling spine forever.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("ShardedEngine::run_until: time is not finite");
  }
  for (;;) {
    const std::optional<double> next = spine_.next_event_time();
    if (!next || *next > t) break;
    const double barrier = *next;
    // Shard events at exactly `barrier` run before the spine phase — the
    // spine observes every shard at time `barrier`, post workload.
    advance_shards(barrier);
    ++barriers_;
    // Serial control-plane phase. Spine callbacks may schedule into shard
    // loops (allocations, replica boots); those land at >= barrier and run
    // in a later advance.
    spine_.run_until(barrier);
  }
  advance_shards(t);
  spine_.run_until(t);  // no spine events remain <= t; advances the clock
}

std::uint64_t ShardedEngine::events_executed() const noexcept {
  std::uint64_t total = spine_.events_executed();
  for (const Simulation& shard : shards_) total += shard.events_executed();
  return total;
}

std::size_t ShardedEngine::pending_events() const noexcept {
  std::size_t total = spine_.pending_events();
  for (const Simulation& shard : shards_) total += shard.pending_events();
  return total;
}

}  // namespace vdc::sim
