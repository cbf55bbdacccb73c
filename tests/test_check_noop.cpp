// Proof that the check macros compile to no-ops when checks are off: this
// translation unit forces VDC_CHECKS_ENABLED to 0 before including the
// header (exactly what building with -DVDC_CHECKS=OFF does globally) and
// shows that failing conditions neither throw nor get evaluated.
#define VDC_CHECKS_ENABLED 0
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "check/dc_audit.hpp"
#include "check/sim_audit.hpp"
#include "sim/simulation.hpp"

namespace {

TEST(CheckDisabled, FailingConditionsAreSilent) {
  EXPECT_NO_THROW(VDC_ASSERT(false));
  EXPECT_NO_THROW(VDC_ASSERT(false, "message is also dropped"));
  EXPECT_NO_THROW(VDC_INVARIANT(1 == 2));
}

TEST(CheckDisabled, ConditionIsNeverEvaluated) {
  int evaluations = 0;
  // vdc-lint: check-side-effect-ok this test proves conditions compile out; the mutation is the subject under test
  VDC_ASSERT(++evaluations > 0);
  // vdc-lint: check-side-effect-ok this test proves messages compile out too; the mutation is the subject under test
  VDC_INVARIANT(++evaluations > 0, "side effects " << ++evaluations);
  EXPECT_EQ(evaluations, 0);
}

// Behavioral parity for the hot-path auditors: every header-only audit
// function must degrade to a silent no-op in a checks-off build, even when
// fed inputs that would fire the invariant with checks on (the mirror-image
// cases of tests/test_check.cpp). A throw here means an auditor does real
// work outside the macros and release builds pay for (or crash on) it.
TEST(CheckDisabled, SimAuditorsAreSilentOnViolatingInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NO_THROW(vdc::sim::audit::clock_monotonic(2.0, 1.0));  // clock rewind
  EXPECT_NO_THROW(vdc::sim::audit::ps_residual(-1.0));          // negative residual
  EXPECT_NO_THROW(vdc::sim::audit::ps_accounting(-1.0, -1.0));
  EXPECT_NO_THROW(vdc::sim::audit::ps_stall_accounting(nan, -2.0));
  EXPECT_NO_THROW(vdc::sim::audit::ps_finish_mark(5.0, 1.0));  // mark in virtual past
  EXPECT_NO_THROW(vdc::sim::audit::event_slab(3, 2, 0));       // slab leak
}

// The event kernel's time validation does not rest on the auditors, which
// compile out in a checks-off build (as shown above): a NaN bound must still
// be rejected, rather than fire every pending event and leave the clock at
// NaN. The -DVDC_CHECKS=OFF CI build runs this against a checks-off kernel.
TEST(CheckDisabled, SimulationStillRejectsNanRunUntil) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  vdc::sim::Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&fired] { ++fired; });
  EXPECT_THROW(sim.run_until(nan), std::invalid_argument);
  EXPECT_THROW(sim.schedule(nan, [] {}), std::invalid_argument);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(CheckDisabled, DataCenterAuditorsAreSilentOnViolatingInputs) {
  namespace dc = vdc::datacenter;
  // A sleeping server drawing more than its sleep power.
  dc::Server server(dc::dual_core_2ghz(), dc::power_model_dual_2ghz(), 4096.0);
  server.set_state(dc::ServerState::kSleeping);
  EXPECT_NO_THROW(dc::audit::server_power(server, server.power_model().sleep_w + 5.0));
  // Grants that overcommit the capacity at a frequency above f_max.
  const std::vector<double> demands = {1.0};
  dc::ArbitrationResult result;
  result.frequency_ghz = 3.5;
  result.capacity_ghz = 1.0;
  result.allocations_ghz = {2.0};
  EXPECT_NO_THROW(dc::audit::arbitration(server.cpu(), demands, result));
}

TEST(CheckDisabled, IsExactlyZeroIsIndependentOfChecksMode) {
  // The exactness helper is a plain function, not a check macro: it keeps
  // returning real answers when checks are off.
  EXPECT_TRUE(vdc::check::is_exactly_zero(0.0));
  EXPECT_TRUE(vdc::check::is_exactly_zero(-0.0));
  EXPECT_FALSE(vdc::check::is_exactly_zero(1e-300));
  EXPECT_FALSE(vdc::check::is_exactly_zero(std::numeric_limits<double>::quiet_NaN()));
}

TEST(CheckDisabled, FailHelperStillWorks) {
  // The runtime helper stays linked even in no-op builds (the macros gate
  // the call sites, not the function).
  EXPECT_THROW(vdc::check::fail("assertion", "expr", "msg", "file.cpp", 1, "fn"),
               vdc::check::CheckFailure);
}

}  // namespace
