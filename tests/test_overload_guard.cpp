#include "core/overload_guard.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace vdc::core {
namespace {

using datacenter::Cluster;
using datacenter::Server;
using datacenter::Vm;

Cluster guarded_cluster() {
  Cluster c;
  c.add_server(Server(datacenter::dual_core_1_5ghz(),
                      datacenter::power_model_dual_1_5ghz(), 12288.0));
  c.add_server(Server(datacenter::dual_core_2ghz(), datacenter::power_model_dual_2ghz(),
                      16384.0));
  c.add_server(Server(datacenter::quad_core_3ghz(), datacenter::power_model_quad_3ghz(),
                      32768.0));
  return c;
}

Vm make_vm(double demand, double memory = 512.0) {
  Vm vm;
  vm.cpu_demand_ghz = demand;
  vm.memory_mb = memory;
  return vm;
}

OverloadGuardConfig trigger_after(std::size_t checks) {
  OverloadGuardConfig config;
  config.trigger_after_checks = checks;
  return config;
}

// One rejection test per validated Minimum Slack field; the message names
// the guard and the field.
template <typename Mutate>
void expect_guard_rejects(Mutate mutate, const std::string& field) {
  OverloadGuardConfig config;
  mutate(config);
  try {
    OverloadGuard guard(config);
    ADD_FAILURE() << "config accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("OverloadGuard: " + field, 0), 0u) << e.what();
  }
}

TEST(OverloadGuard, RejectsBadMinSlackEpsilon) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0,
                           std::numeric_limits<double>::infinity()}) {
    expect_guard_rejects([bad](OverloadGuardConfig& c) { c.min_slack.epsilon_ghz = bad; },
                         "min_slack.epsilon_ghz");
  }
}

TEST(OverloadGuard, RejectsZeroMinSlackStepBudget) {
  expect_guard_rejects([](OverloadGuardConfig& c) { c.min_slack.step_budget = 0; },
                       "min_slack.step_budget");
}

TEST(OverloadGuard, RejectsMinSlackEscalationNotAboveOne) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 1.0,
                           std::numeric_limits<double>::infinity()}) {
    expect_guard_rejects(
        [bad](OverloadGuardConfig& c) { c.min_slack.epsilon_escalation = bad; },
        "min_slack.epsilon_escalation");
  }
}

TEST(OverloadGuard, NoActionWithoutOverload) {
  Cluster c = guarded_cluster();
  (void)c.add_vm(make_vm(1.0), 0);
  OverloadGuard guard;
  const OverloadGuardReport report = guard.check(c, 0.0);
  EXPECT_EQ(report.overloaded_servers, 0u);
  EXPECT_EQ(report.migrations, 0u);
}

TEST(OverloadGuard, DebouncesTransientOverload) {
  Cluster c = guarded_cluster();
  const auto vm = c.add_vm(make_vm(4.0), 0);  // 4 > 3 GHz capacity
  OverloadGuard guard(trigger_after(3));
  EXPECT_EQ(guard.check(c, 0.0).migrations, 0u);  // strike 1
  // Overload disappears: counter resets.
  c.vm(vm).cpu_demand_ghz = 1.0;
  EXPECT_EQ(guard.check(c, 1.0).migrations, 0u);
  c.vm(vm).cpu_demand_ghz = 4.0;
  EXPECT_EQ(guard.check(c, 2.0).migrations, 0u);  // strike 1 again
  EXPECT_EQ(guard.check(c, 3.0).migrations, 0u);  // strike 2
  const OverloadGuardReport report = guard.check(c, 4.0);  // strike 3 -> act
  EXPECT_EQ(report.overloaded_servers, 1u);
  EXPECT_GE(report.migrations, 1u);
  EXPECT_TRUE(c.overloaded_servers().empty());
}

TEST(OverloadGuard, MovesSmallestVmsToRelieve) {
  Cluster c = guarded_cluster();
  (void)c.add_vm(make_vm(2.5), 0);
  const auto small = c.add_vm(make_vm(0.8), 0);  // total 3.3 > 3 GHz
  OverloadGuard guard(trigger_after(1));
  const OverloadGuardReport report = guard.check(c, 10.0);
  EXPECT_EQ(report.migrations, 1u);
  EXPECT_NE(c.host_of(small), 0u) << "the smallest VM is the one moved";
  EXPECT_TRUE(c.overloaded_servers().empty());
  EXPECT_EQ(c.migration_log().count(), 1u);
}

TEST(OverloadGuard, WakesSleepingServerWhenActiveOnesAreFull) {
  Cluster c = guarded_cluster();
  (void)c.add_vm(make_vm(2.0), 0);
  (void)c.add_vm(make_vm(2.0), 0);  // 4 > 3 GHz, no active alternative
  c.sleep_idle_servers();           // servers 1 and 2
  OverloadGuard guard(trigger_after(1));
  const OverloadGuardReport report = guard.check(c, 0.0);
  EXPECT_GE(report.migrations, 1u);
  EXPECT_GE(report.woken_servers, 1u);
  EXPECT_TRUE(c.overloaded_servers().empty());
  EXPECT_EQ(guard.total_activations(), report.woken_servers);
}

TEST(OverloadGuard, ReportsUnplacedWhenClusterSaturated) {
  datacenter::Cluster c;
  c.add_server(Server(datacenter::dual_core_1_5ghz(),
                      datacenter::power_model_dual_1_5ghz(), 12288.0));
  (void)c.add_vm(make_vm(2.0), 0);
  (void)c.add_vm(make_vm(2.0), 0);  // nowhere else to go
  OverloadGuard guard(trigger_after(1));
  const OverloadGuardReport report = guard.check(c, 0.0);
  EXPECT_GT(report.unplaced, 0u);
  EXPECT_EQ(report.migrations, 0u);
  // The evicted-but-unplaced VM stays where it was.
  EXPECT_EQ(c.vms_on(0).size(), 2u);
}

TEST(OverloadGuard, CountersAccumulateAcrossChecks) {
  Cluster c = guarded_cluster();
  const auto vm = c.add_vm(make_vm(4.0), 0);
  OverloadGuard guard(trigger_after(1));
  (void)guard.check(c, 0.0);
  const std::size_t first = guard.total_migrations();
  EXPECT_GE(first, 1u);
  // Re-overload the new host.
  c.vm(vm).cpu_demand_ghz = 30.0;
  (void)guard.check(c, 1.0);
  (void)guard.check(c, 2.0);
  EXPECT_GE(guard.total_migrations(), first);
}

}  // namespace
}  // namespace vdc::core
