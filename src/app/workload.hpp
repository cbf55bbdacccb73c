// Workload schedules: scripted concurrency-level changes applied to an
// application over simulated time — e.g. the paper's "breaking news" surge
// that doubles App5's concurrency between t=600 s and t=1200 s.
// vdc-lint: orphan-header-ok test-only, kept with its unit tests for now; ROADMAP lists its removal
#pragma once

#include <cstddef>
#include <vector>

#include "app/multi_tier_app.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace vdc::app {

struct ConcurrencyStep {
  double time_s;
  std::size_t concurrency;
};

/// Installs the steps as simulation events against `target`.
void apply_schedule(sim::Simulation& sim, MultiTierApp& target,
                    std::vector<ConcurrencyStep> steps);

/// The paper's Figure-3 scenario: baseline concurrency until `surge_start`,
/// `surge_factor`x concurrency until `surge_end`, baseline afterwards.
[[nodiscard]] std::vector<ConcurrencyStep> surge_schedule(std::size_t baseline,
                                                          double surge_start_s,
                                                          double surge_end_s,
                                                          double surge_factor = 2.0);

/// A pseudo-random-walk schedule for robustness experiments: concurrency
/// re-drawn uniformly in [lo, hi] every `interval_s`, for `duration_s`.
[[nodiscard]] std::vector<ConcurrencyStep> random_walk_schedule(
    util::Rng& rng, std::size_t lo, std::size_t hi, double interval_s, double duration_s);

}  // namespace vdc::app
