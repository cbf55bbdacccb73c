#include "core/trace_sim.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "trace/synthetic.hpp"

namespace vdc::core {
namespace {

trace::UtilizationTrace small_trace() {
  trace::SyntheticTraceOptions o;
  o.servers = 60;
  o.samples = 192;  // two days
  o.seed = 5;
  return generate_synthetic_trace(o);
}

TraceSimConfig small_config(ConsolidationAlgorithm algorithm) {
  TraceSimConfig config;
  config.num_vms = 60;
  config.pool_size = 100;
  config.algorithm = algorithm;
  config.dvfs = algorithm == ConsolidationAlgorithm::kIpac;
  return config;
}

TEST(TraceSim, ValidatesConfig) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  TraceSimConfig config = small_config(ConsolidationAlgorithm::kIpac);
  config.num_vms = 0;
  EXPECT_THROW((void)sim.run(config), std::invalid_argument);
  config = small_config(ConsolidationAlgorithm::kIpac);
  config.num_vms = 1000;  // > trace servers
  EXPECT_THROW((void)sim.run(config), std::invalid_argument);
  config = small_config(ConsolidationAlgorithm::kIpac);
  config.consolidation_period_s = 0.0;
  EXPECT_THROW((void)sim.run(config), std::invalid_argument);
}

// One rejection test per validated field: each config is the valid small
// IPAC config with exactly that field broken. The message must come from
// the simulator's entry check, not from a component that trips over the
// value later (the CPU constraint, the RNG).
template <typename Mutate>
void expect_rejected(Mutate mutate, const std::string& field = "") {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  TraceSimConfig config = small_config(ConsolidationAlgorithm::kIpac);
  mutate(config);
  try {
    (void)sim.run(config);
    ADD_FAILURE() << "config accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("TraceDrivenSimulator:", 0), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(TraceSim, RejectsUtilizationTargetOutsideUnitInterval) {
  expect_rejected([](TraceSimConfig& c) { c.utilization_target = 0.0; });
  expect_rejected([](TraceSimConfig& c) { c.utilization_target = -0.5; });
  expect_rejected([](TraceSimConfig& c) { c.utilization_target = 1.01; });
  expect_rejected([](TraceSimConfig& c) { c.utilization_target = std::nan(""); });
}

TEST(TraceSim, RejectsBadServerClassFractions) {
  expect_rejected([](TraceSimConfig& c) { c.quad_3ghz_fraction = -0.05; });
  expect_rejected([](TraceSimConfig& c) { c.dual_2ghz_fraction = -0.1; });
  expect_rejected([](TraceSimConfig& c) {
    c.quad_3ghz_fraction = 0.6;
    c.dual_2ghz_fraction = 0.5;  // sums to 1.1
  });
}

TEST(TraceSim, RejectsBadVmPeakRange) {
  expect_rejected([](TraceSimConfig& c) { c.vm_peak_lo_ghz = 0.0; });
  expect_rejected([](TraceSimConfig& c) { c.vm_peak_lo_ghz = -1.0; });
  expect_rejected([](TraceSimConfig& c) {
    c.vm_peak_lo_ghz = 3.0;
    c.vm_peak_hi_ghz = 2.0;
  });
}

TEST(TraceSim, RejectsEmptyVmMemoryChoices) {
  expect_rejected([](TraceSimConfig& c) { c.vm_memory_choices_mb.clear(); });
}

TEST(TraceSim, RejectsNegativeServerWakeEnergy) {
  expect_rejected([](TraceSimConfig& c) { c.server_wake_energy_wh = -1.0; });
}

TEST(TraceSim, RejectsNonPositiveForecastSafety) {
  expect_rejected([](TraceSimConfig& c) { c.forecast_safety = 0.0; });
  expect_rejected([](TraceSimConfig& c) { c.forecast_safety = -1.05; });
}

// The consolidation sub-configs are checked at entry too: a NaN epsilon
// would skip every Minimum Slack search, a NaN budget would lift the
// migration-energy budget.
TEST(TraceSim, RejectsBadMinSlackEpsilon) {
  const std::string field = "min_slack.epsilon_ghz";
  expect_rejected([](TraceSimConfig& c) { c.ipac.min_slack.epsilon_ghz = std::nan(""); }, field);
  expect_rejected([](TraceSimConfig& c) { c.ipac.min_slack.epsilon_ghz = 0.0; }, field);
  expect_rejected([](TraceSimConfig& c) { c.ipac.min_slack.epsilon_ghz = std::numeric_limits<double>::infinity(); }, field);
}

TEST(TraceSim, RejectsZeroMinSlackStepBudget) {
  expect_rejected([](TraceSimConfig& c) { c.ipac.min_slack.step_budget = 0; },
                  "min_slack.step_budget");
}

TEST(TraceSim, RejectsMinSlackEscalationNotAboveOne) {
  const std::string field = "min_slack.epsilon_escalation";
  expect_rejected([](TraceSimConfig& c) { c.ipac.min_slack.epsilon_escalation = 1.0; }, field);
  expect_rejected([](TraceSimConfig& c) { c.ipac.min_slack.epsilon_escalation = std::nan(""); },
                  field);
  expect_rejected([](TraceSimConfig& c) { c.ipac.min_slack.epsilon_escalation = std::numeric_limits<double>::infinity(); },
                  field);
}

TEST(TraceSim, RejectsBadRackBudget) {
  const std::string field = "rack.migration_energy_budget_j";
  expect_rejected([](TraceSimConfig& c) { c.rack.migration_energy_budget_j = -1.0; }, field);
  expect_rejected([](TraceSimConfig& c) { c.rack.migration_energy_budget_j = std::nan(""); },
                  field);
}

TEST(TraceSim, RejectsBadRackBenefitHorizon) {
  const std::string field = "rack.benefit_horizon_s";
  expect_rejected([](TraceSimConfig& c) { c.rack.benefit_horizon_s = -1.0; }, field);
  expect_rejected([](TraceSimConfig& c) { c.rack.benefit_horizon_s = std::numeric_limits<double>::infinity(); }, field);
  expect_rejected([](TraceSimConfig& c) { c.rack.benefit_horizon_s = std::nan(""); }, field);
}

TEST(TraceSim, AcceptsBoundaryConfigs) {
  // The edges of each validated range stay legal.
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  TraceSimConfig config = small_config(ConsolidationAlgorithm::kIpac);
  config.utilization_target = 1.0;
  config.quad_3ghz_fraction = 0.5;
  config.dual_2ghz_fraction = 0.5;
  config.vm_peak_lo_ghz = 2.0;
  config.vm_peak_hi_ghz = 2.0;
  config.server_wake_energy_wh = 0.0;
  config.ipac.min_slack.step_budget = 1;
  config.ipac.min_slack.epsilon_escalation = 1.5;
  config.rack.migration_energy_budget_j = 0.0;
  config.rack.benefit_horizon_s = 0.0;
  EXPECT_NO_THROW((void)sim.run(config));
}

TEST(TraceSim, ProducesSaneMetrics) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  const TraceSimResult r = sim.run(small_config(ConsolidationAlgorithm::kIpac));
  EXPECT_GT(r.total_energy_wh, 0.0);
  EXPECT_NEAR(r.energy_wh_per_vm * 60.0, r.total_energy_wh, 1e-6);
  EXPECT_EQ(r.power_series_w.size(), t.sample_count());
  EXPECT_GT(r.optimizer_invocations, 0u);
  EXPECT_GT(r.final_active_servers, 0u);
  EXPECT_LE(r.final_active_servers, r.peak_active_servers);
  EXPECT_GE(r.overload_fraction, 0.0);
  EXPECT_LE(r.overload_fraction, 1.0);
}

TEST(TraceSim, DeterministicPerSeed) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  const TraceSimResult a = sim.run(small_config(ConsolidationAlgorithm::kIpac));
  const TraceSimResult b = sim.run(small_config(ConsolidationAlgorithm::kIpac));
  EXPECT_DOUBLE_EQ(a.energy_wh_per_vm, b.energy_wh_per_vm);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(TraceSim, IpacUsesLessEnergyThanPMapper) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  const TraceSimResult ipac = sim.run(small_config(ConsolidationAlgorithm::kIpac));
  const TraceSimResult pmapper = sim.run(small_config(ConsolidationAlgorithm::kPMapper));
  EXPECT_LT(ipac.energy_wh_per_vm, pmapper.energy_wh_per_vm);
}

TEST(TraceSim, DvfsSavesEnergy) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  TraceSimConfig with = small_config(ConsolidationAlgorithm::kIpac);
  TraceSimConfig without = small_config(ConsolidationAlgorithm::kIpac);
  without.dvfs = false;
  EXPECT_LT(sim.run(with).energy_wh_per_vm, sim.run(without).energy_wh_per_vm);
}

TEST(TraceSim, ProbeObservesEverySample) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  TraceSimConfig config = small_config(ConsolidationAlgorithm::kIpac);
  std::size_t calls = 0;
  config.sample_probe = [&calls](const datacenter::Cluster& cluster, std::size_t k) {
    ++calls;
    EXPECT_GT(cluster.server_count(), 0u);
    EXPECT_LT(k, 192u);
  };
  (void)sim.run(config);
  EXPECT_EQ(calls, t.sample_count());
}

TEST(TraceSim, NoConsolidationBaselineUsesMorePower) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  TraceSimConfig ipac_config = small_config(ConsolidationAlgorithm::kIpac);
  TraceSimConfig none = small_config(ConsolidationAlgorithm::kNone);
  none.dvfs = true;  // same DVFS so the difference is consolidation alone
  const TraceSimResult consolidated = sim.run(ipac_config);
  const TraceSimResult fixed = sim.run(none);
  EXPECT_LE(consolidated.final_active_servers, fixed.final_active_servers);
}

// ---- plan identity ----------------------------------------------------------
// Pins of reduced trace runs, recorded before the planning state became
// persistent across plans: every plan must stay move-for-move what the
// rebuild-per-plan engine produced, and the energy bit-identical.

/// FNV-1a over every migration the run performs, tagged with the sample it
/// happened at: optimizer plans and guard reliefs alike are logged by the
/// cluster, so this hashes each plan's moves in order.
struct PlanHasher {
  std::uint64_t hash = 14695981039346656037ULL;
  std::size_t seen = 0;

  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }

  void observe(const datacenter::Cluster& cluster, std::size_t k) {
    const datacenter::MigrationLog& log = cluster.migration_log();
    const std::size_t fresh = log.count() - seen;
    if (fresh == 0) return;
    ASSERT_LE(fresh, datacenter::MigrationLog::kRetainedRecords);
    const std::vector<datacenter::MigrationRecord> records = log.records();
    for (std::size_t i = records.size() - fresh; i < records.size(); ++i) {
      mix(k);
      mix(records[i].vm);
      mix(records[i].from);
      mix(records[i].to);
    }
    seen = log.count();
  }
};

struct PlanPin {
  std::uint64_t seed;
  ConsolidationAlgorithm algorithm;
  bool guard;
  std::uint64_t plan_hash;
  std::size_t migrations;
  std::size_t guard_migrations;
  std::size_t wakes;
  std::uint64_t energy_bits;
  std::uint64_t overload_bits;
};

TEST(TraceSim, PlansMatchTheirPins) {
  const PlanPin pins[] = {
      {1, ConsolidationAlgorithm::kIpac, false, 0xdd2d4f575d484791ULL, 1180, 0, 35,
       0x4108d60f78fbdb9cULL, 0x0000000000000000ULL},
      {2, ConsolidationAlgorithm::kIpac, false, 0x2c47b45616c1e479ULL, 1200, 0, 30,
       0x41073bd4899174e5ULL, 0x0000000000000000ULL},
      {3, ConsolidationAlgorithm::kIpac, false, 0xc72033d09d4dc104ULL, 1211, 0, 32,
       0x4107866541976e0aULL, 0x0000000000000000ULL},
      {1, ConsolidationAlgorithm::kIpac, true, 0x6fdb3ff05850adf0ULL, 89, 516, 8,
       0x41091206f206fe32ULL, 0x3fb858d86b11f09fULL},
      {2, ConsolidationAlgorithm::kIpac, true, 0x3e50432460ee8cd5ULL, 97, 516, 8,
       0x41080214aa4100f9ULL, 0x3fb70a0d5a9dc0c1ULL},
      {1, ConsolidationAlgorithm::kPMapper, false, 0xd693a1549c463730ULL, 1200, 0, 31,
       0x410956f07d60846bULL, 0x3f471e95cb7fe12dULL},
  };

  for (const PlanPin& pin : pins) {
    trace::SyntheticTraceOptions options;
    options.servers = 300;
    options.samples = 192;  // two days
    options.seed = pin.seed;
    const trace::UtilizationTrace t = generate_synthetic_trace(options);
    const TraceDrivenSimulator sim(t);
    TraceSimConfig config;
    config.num_vms = 300;
    config.pool_size = 450;
    config.seed = pin.seed;
    config.consolidation_period_s = 3600.0;  // hourly
    if (pin.guard) {
      // Plans every 8 h packed to full capacity leave overloads between
      // them for the guard to relieve.
      config.consolidation_period_s = 8.0 * 3600.0;
      config.utilization_target = 1.0;
    }
    config.algorithm = pin.algorithm;
    config.on_demand_overload_guard = pin.guard;
    PlanHasher hasher;
    config.sample_probe = [&hasher](const datacenter::Cluster& cluster, std::size_t k) {
      hasher.observe(cluster, k);
    };
    const TraceSimResult r = sim.run(config);
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    EXPECT_EQ(hasher.hash, pin.plan_hash);
    EXPECT_EQ(r.migrations, pin.migrations);
    EXPECT_EQ(r.guard_migrations, pin.guard_migrations);
    EXPECT_EQ(r.server_wakes, pin.wakes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_energy_wh), pin.energy_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.overload_fraction), pin.overload_bits);
  }
}

}  // namespace
}  // namespace vdc::core
