#include "core/trace_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
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
void expect_rejected(Mutate mutate) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  TraceSimConfig config = small_config(ConsolidationAlgorithm::kIpac);
  mutate(config);
  try {
    (void)sim.run(config);
    ADD_FAILURE() << "config accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("TraceDrivenSimulator:", 0), 0u) << e.what();
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

TEST(TraceSim, SleepPowerAccountingToggle) {
  const trace::UtilizationTrace t = small_trace();
  const TraceDrivenSimulator sim(t);
  TraceSimConfig off = small_config(ConsolidationAlgorithm::kIpac);
  TraceSimConfig on = small_config(ConsolidationAlgorithm::kIpac);
  on.count_sleep_power = true;
  // Counting ACPI sleep power of the mostly-unused 100-server pool must
  // strictly increase energy.
  EXPECT_GT(sim.run(on).total_energy_wh, sim.run(off).total_energy_wh);
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

}  // namespace
}  // namespace vdc::core
