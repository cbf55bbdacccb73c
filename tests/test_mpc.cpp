#include "control/mpc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/log.hpp"

namespace vdc::control {
namespace {

ArxModel siso_model() {
  // t(k) = 0.5 t(k-1) - 1.0 c(k-1) + 2.0  (steady state: t = (2 - c)/0.5).
  ArxModel m;
  m.na = 1;
  m.nb = 1;
  m.nu = 1;
  m.a = {0.5};
  m.b = linalg::Matrix(1, 1);
  m.b(0, 0) = -1.0;
  m.bias = 2.0;
  return m;
}

ArxModel mimo_model() {
  ArxModel m;
  m.na = 1;
  m.nb = 2;
  m.nu = 2;
  m.a = {0.5};
  m.b = linalg::Matrix(2, 2);
  m.b(0, 0) = -0.5;
  m.b(0, 1) = -1.5;
  m.b(1, 0) = 0.0;
  m.b(1, 1) = 0.2;
  m.bias = 2.0;
  return m;
}

MpcConfig base_config() {
  MpcConfig c;
  c.prediction_horizon = 10;
  c.control_horizon = 3;
  c.q_weight = 1.0;
  c.r_weight = {0.5};
  c.period_s = 4.0;
  c.tref_s = 12.0;
  c.setpoint = 1.0;
  c.c_min = {0.1};
  c.c_max = {3.0};
  c.delta_max = 0.5;
  c.terminal = MpcConfig::Terminal::kSoft;
  return c;
}

/// Runs the controller against its own (exact) model as the plant.
double closed_loop_final(const ArxModel& model, const MpcConfig& config, double t0,
                         std::vector<double> c0, int steps = 120,
                         std::vector<double>* final_c = nullptr) {
  MpcController ctl(model, config);
  ctl.reset(t0, c0);
  std::vector<double> t_hist(model.na, t0);
  std::vector<std::vector<double>> c_hist(model.nb, c0);
  double t = t0;
  for (int k = 0; k < steps; ++k) {
    const std::vector<double> c = ctl.step(t);
    c_hist.insert(c_hist.begin(), c);
    c_hist.pop_back();
    t = model.predict(t_hist, c_hist);
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
    if (final_c) *final_c = c;
  }
  return t;
}

TEST(MpcConfig, ValidationAndBroadcast) {
  MpcConfig c = base_config();
  const MpcConfig wide = c.broadcast(3);
  EXPECT_EQ(wide.r_weight.size(), 3u);
  EXPECT_EQ(wide.c_min.size(), 3u);
  EXPECT_NO_THROW(wide.validate(3));
  c.control_horizon = 0;
  EXPECT_THROW(c.validate(1), std::invalid_argument);
  c = base_config();
  c.control_horizon = 20;  // > P
  EXPECT_THROW(c.validate(1), std::invalid_argument);
  c = base_config();
  c.r_weight = {0.0};
  EXPECT_THROW(c.validate(1), std::invalid_argument);
  c = base_config();
  c.c_min = {2.0};
  c.c_max = {1.0};
  EXPECT_THROW(c.validate(1), std::invalid_argument);
}

TEST(Mpc, StepResponseMatchesHandComputation) {
  const MpcController ctl(siso_model(), base_config());
  const linalg::Matrix& s = ctl.step_response();
  // s(1) = b1 = -1; s(2) = a*s(1) + b1 = -1.5; s(3) = 0.5*(-1.5) - 1 = -1.75.
  EXPECT_NEAR(s(0, 0), -1.0, 1e-12);
  EXPECT_NEAR(s(1, 0), -1.5, 1e-12);
  EXPECT_NEAR(s(2, 0), -1.75, 1e-12);
  // Converges to the DC gain -2.
  EXPECT_NEAR(s(9, 0), -2.0, 0.01);
}

TEST(Mpc, StepRequiresReset) {
  MpcController ctl(siso_model(), base_config());
  EXPECT_THROW((void)ctl.step(1.0), std::logic_error);
  EXPECT_THROW((void)ctl.current_allocations(), std::logic_error);
  ctl.reset(1.0, std::vector<double>{0.5});
  EXPECT_EQ(ctl.current_allocations(), (std::vector<double>{0.5}));
  EXPECT_THROW(ctl.reset(1.0, std::vector<double>{0.5, 0.5}), std::invalid_argument);
}

TEST(Mpc, ConvergesToSetpointOnNominalPlant) {
  const double t_final = closed_loop_final(siso_model(), base_config(), 3.0, {0.5});
  EXPECT_NEAR(t_final, 1.0, 1e-3);
}

TEST(Mpc, ConvergesFromBelow) {
  const double t_final = closed_loop_final(siso_model(), base_config(), 0.2, {2.0});
  EXPECT_NEAR(t_final, 1.0, 1e-3);
}

TEST(Mpc, MimoConvergesToSetpoint) {
  MpcConfig config = base_config();
  config.r_weight = {0.5, 0.5};
  config.c_min = {0.1, 0.1};
  config.c_max = {3.0, 3.0};
  const double t_final = closed_loop_final(mimo_model(), config, 2.5, {0.5, 0.5});
  EXPECT_NEAR(t_final, 1.0, 1e-3);
}

class TerminalModeSweep : public ::testing::TestWithParam<MpcConfig::Terminal> {};

TEST_P(TerminalModeSweep, AllModesConvergeNominally) {
  MpcConfig config = base_config();
  config.terminal = GetParam();
  const double t_final = closed_loop_final(siso_model(), config, 2.0, {0.5});
  EXPECT_NEAR(t_final, 1.0, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Modes, TerminalModeSweep,
                         ::testing::Values(MpcConfig::Terminal::kHard,
                                           MpcConfig::Terminal::kSoft,
                                           MpcConfig::Terminal::kOff));

TEST(Mpc, RespectsActuatorBounds) {
  MpcConfig config = base_config();
  config.c_min = {0.3};
  config.c_max = {0.9};
  MpcController ctl(siso_model(), config);
  ctl.reset(5.0, std::vector<double>{0.5});
  double t = 5.0;
  for (int k = 0; k < 50; ++k) {
    const std::vector<double> c = ctl.step(t);
    EXPECT_GE(c[0], 0.3 - 1e-9);
    EXPECT_LE(c[0], 0.9 + 1e-9);
    t = std::max(0.1, t * 0.8);
  }
}

TEST(Mpc, RespectsRateLimit) {
  MpcConfig config = base_config();
  config.delta_max = 0.05;
  MpcController ctl(siso_model(), config);
  ctl.reset(4.0, std::vector<double>{0.5});
  std::vector<double> prev = {0.5};
  for (int k = 0; k < 30; ++k) {
    const std::vector<double> c = ctl.step(4.0);  // persistent high error
    EXPECT_LE(std::abs(c[0] - prev[0]), 0.05 + 1e-9);
    prev = c;
  }
}

TEST(Mpc, RejectsConstantDisturbanceViaBiasCorrection) {
  // Plant = model + constant offset the model does not know about.
  const ArxModel model = siso_model();
  MpcConfig config = base_config();
  MpcController ctl(model, config);
  ctl.reset(1.0, std::vector<double>{0.5});
  std::vector<double> t_hist = {1.0};
  std::vector<std::vector<double>> c_hist = {{0.5}};
  double t = 1.0;
  const double offset = 0.8;  // unmodeled load increase
  for (int k = 0; k < 150; ++k) {
    const std::vector<double> c = ctl.step(t);
    c_hist.insert(c_hist.begin(), c);
    c_hist.pop_back();
    t = model.predict(t_hist, c_hist) + offset;
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
  }
  EXPECT_NEAR(t, 1.0, 5e-3) << "disturbance must be rejected (offset-free tracking)";
}

TEST(Mpc, NoDisturbanceGainLeavesOffset) {
  const ArxModel model = siso_model();
  MpcConfig config = base_config();
  config.disturbance_gain = 0.0;
  config.terminal = MpcConfig::Terminal::kOff;  // no terminal pull either
  MpcController ctl(model, config);
  ctl.reset(1.0, std::vector<double>{0.5});
  std::vector<double> t_hist = {1.0};
  std::vector<std::vector<double>> c_hist = {{0.5}};
  double t = 1.0;
  for (int k = 0; k < 150; ++k) {
    const std::vector<double> c = ctl.step(t);
    c_hist.insert(c_hist.begin(), c);
    c_hist.pop_back();
    t = model.predict(t_hist, c_hist) + 0.8;
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
  }
  EXPECT_GT(std::abs(t - 1.0), 0.05) << "without correction a steady offset remains";
}

TEST(Mpc, SetpointChangeTracked) {
  const ArxModel model = siso_model();
  MpcController ctl(model, base_config());
  ctl.reset(1.0, std::vector<double>{0.5});
  std::vector<double> t_hist = {1.0};
  std::vector<std::vector<double>> c_hist = {{0.5}};
  double t = 1.0;
  ctl.set_setpoint(1.6);
  EXPECT_DOUBLE_EQ(ctl.setpoint(), 1.6);
  for (int k = 0; k < 120; ++k) {
    const std::vector<double> c = ctl.step(t);
    c_hist.insert(c_hist.begin(), c);
    c_hist.pop_back();
    t = model.predict(t_hist, c_hist);
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
  }
  EXPECT_NEAR(t, 1.6, 1e-3);
}

TEST(Mpc, DiagnosticsPopulated) {
  MpcController ctl(siso_model(), base_config());
  ctl.reset(2.0, std::vector<double>{0.5});
  (void)ctl.step(2.0);
  const MpcDiagnostics& d = ctl.diagnostics();
  EXPECT_TRUE(d.qp_converged);
  EXPECT_TRUE(std::isfinite(d.predicted_terminal));
  EXPECT_TRUE(std::isfinite(d.cost));
}

TEST(Mpc, HardTerminalInfeasibleFallsBackGracefully) {
  // Huge initial error with a tight rate limit: the hard terminal equality
  // cannot be met. The controller must still return a bounded, in-range
  // move rather than throwing.
  MpcConfig config = base_config();
  config.terminal = MpcConfig::Terminal::kHard;
  config.delta_max = 0.02;
  MpcController ctl(siso_model(), config);
  ctl.reset(50.0, std::vector<double>{0.5});
  const std::vector<double> c = ctl.step(50.0);
  EXPECT_GE(c[0], config.c_min[0] - 1e-9);
  EXPECT_LE(c[0], config.c_max[0] + 1e-9);
}

TEST(Mpc, HardTerminalThatCannotBePreparedLogsOnce) {
  // One input and M = 1: the terminal equality would fix the only move, so
  // the null-space elimination is impossible. That depends only on the
  // model and the config: it is found once, at construction, and every
  // period then solves the unconstrained (inequality-only) QP.
  MpcConfig config = base_config();
  config.terminal = MpcConfig::Terminal::kHard;
  config.control_horizon = 1;
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  testing::internal::CaptureStderr();
  MpcController ctl(siso_model(), config);
  ctl.reset(2.0, std::vector<double>{0.5});
  std::vector<double> c;
  for (int k = 0; k < 20; ++k) c = ctl.step(2.0 - 0.05 * k);
  const MpcController copy = ctl;
  const std::string log = testing::internal::GetCapturedStderr();
  util::set_log_level(saved);

  std::size_t mentions = 0;
  for (std::size_t at = log.find("terminal-constrained"); at != std::string::npos;
       at = log.find("terminal-constrained", at + 1)) {
    ++mentions;
  }
  EXPECT_EQ(mentions, 1u) << log;
  EXPECT_FALSE(ctl.problem().terminal_equality);
  ASSERT_TRUE(ctl.problem().qp.has_value());
  EXPECT_TRUE(ctl.diagnostics().qp_converged);
  EXPECT_GE(c[0], config.c_min[0]);
  EXPECT_LE(c[0], config.c_max[0]);
}

TEST(Mpc, HardTerminalIsEliminatedWhenPossible) {
  MpcConfig config = base_config();
  config.terminal = MpcConfig::Terminal::kHard;
  const MpcController ctl(mimo_model(), config);
  EXPECT_TRUE(ctl.problem().terminal_equality);
  const MpcController soft(mimo_model(), base_config());
  EXPECT_FALSE(soft.problem().terminal_equality);
}

TEST(Mpc, CopiesShareTheProblemAndKeepTheirOwnState) {
  MpcConfig config = base_config();
  MpcController original(mimo_model(), config);
  original.reset(2.0, std::vector<double>{0.5, 0.5});
  MpcController copy = original;
  EXPECT_EQ(&copy.problem(), &original.problem());

  // Same measurements: identical allocations and diagnostics, bit for bit.
  for (const double t : {2.0, 1.7, 1.4, 1.2, 1.1}) {
    EXPECT_EQ(copy.step(t), original.step(t));
    EXPECT_EQ(copy.diagnostics().qp_iterations, original.diagnostics().qp_iterations);
    EXPECT_EQ(copy.diagnostics().qp_converged, original.diagnostics().qp_converged);
    EXPECT_EQ(copy.diagnostics().cost, original.diagnostics().cost);
    EXPECT_EQ(copy.diagnostics().predicted_terminal,
              original.diagnostics().predicted_terminal);
  }

  // Diverging measurements: the copy's history, disturbance estimate and
  // setpoint do not leak into the original, which keeps matching a
  // controller built on its own and fed the original's sequence.
  MpcController independent(mimo_model(), config);
  independent.reset(2.0, std::vector<double>{0.5, 0.5});
  for (const double t : {2.0, 1.7, 1.4, 1.2, 1.1}) (void)independent.step(t);
  copy.set_setpoint(0.6);
  for (int k = 0; k < 10; ++k) {
    (void)copy.step(3.0);
    (void)copy.hold();
    const double t = 1.0 + 0.01 * k;
    EXPECT_EQ(original.step(t), independent.step(t));
    EXPECT_EQ(original.diagnostics().cost, independent.diagnostics().cost);
    // The warm-start hint is per controller: the original's follows its own
    // solves, not the copy's.
    EXPECT_EQ(original.diagnostics().qp_active, independent.diagnostics().qp_active);
  }
  EXPECT_EQ(original.setpoint(), config.setpoint);
  EXPECT_NE(copy.current_allocations(), original.current_allocations());
  EXPECT_NE(copy.diagnostics().qp_active, original.diagnostics().qp_active);
}

TEST(Mpc, SteadyStateStepEndsAfterOneWarmCheck) {
  // Response time far below the setpoint: the controller releases capacity
  // down to c_min and then solves the same QP every period, so the previous
  // active set is offered, checked once and kept.
  MpcController ctl(mimo_model(), base_config());
  ctl.reset(0.3, std::vector<double>{0.5, 0.5});
  for (int k = 0; k < 30; ++k) (void)ctl.step(0.3);
  for (int k = 0; k < 5; ++k) {
    const std::vector<double> c = ctl.step(0.3);
    EXPECT_EQ(ctl.diagnostics().qp_iterations, 1u);
    EXPECT_TRUE(ctl.diagnostics().qp_converged);
    EXPECT_FALSE(ctl.diagnostics().qp_active.empty());
    // The bound the QP holds active is applied exactly.
    EXPECT_EQ(c, (std::vector<double>{0.1, 0.1}));
  }
}

}  // namespace
}  // namespace vdc::control
