#include "control/arx.hpp"

#include <gtest/gtest.h>

namespace vdc::control {
namespace {

ArxModel paper_equation_1() {
  // t(k) = 0.5 t(k-1) - 0.8 c1(k-1) - 0.2 c1(k-2) + 1.0 (shape of eq. (1)).
  ArxModel m;
  m.na = 1;
  m.nb = 2;
  m.nu = 1;
  m.a = {0.5};
  m.b = linalg::Matrix(2, 1);
  m.b(0, 0) = -0.8;
  m.b(1, 0) = -0.2;
  m.bias = 1.0;
  return m;
}

TEST(Arx, PredictMatchesHandComputation) {
  const ArxModel m = paper_equation_1();
  const std::vector<double> t_hist = {2.0};
  const std::vector<std::vector<double>> c_hist = {{1.0}, {0.5}};
  // 0.5*2 - 0.8*1 - 0.2*0.5 + 1 = 1.0 + (-0.8) + (-0.1) + 1 = 1.1.
  EXPECT_NEAR(m.predict(t_hist, c_hist), 1.1, 1e-12);
}

TEST(Arx, PredictValidatesHistoryLengths) {
  const ArxModel m = paper_equation_1();
  const std::vector<double> empty_t;
  const std::vector<double> one_t = {1.0};
  const std::vector<std::vector<double>> two_c = {{1.0}, {1.0}};
  const std::vector<std::vector<double>> one_c = {{1.0}};
  const std::vector<std::vector<double>> wide_c = {{1.0, 2.0}, {1.0, 2.0}};
  EXPECT_THROW(static_cast<void>(m.predict(empty_t, two_c)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(m.predict(one_t, one_c)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(m.predict(one_t, wide_c)), std::invalid_argument);
}

TEST(Arx, MimoPredict) {
  ArxModel m;
  m.na = 2;
  m.nb = 1;
  m.nu = 2;
  m.a = {0.3, 0.1};
  m.b = linalg::Matrix(1, 2);
  m.b(0, 0) = -1.0;
  m.b(0, 1) = -2.0;
  m.bias = 0.5;
  const double t = m.predict(std::vector<double>{1.0, 2.0},
                             std::vector<std::vector<double>>{{0.2, 0.3}});
  // 0.3*1 + 0.1*2 - 1*0.2 - 2*0.3 + 0.5 = 0.3+0.2-0.2-0.6+0.5 = 0.2.
  EXPECT_NEAR(t, 0.2, 1e-12);
}

TEST(Arx, DcGain) {
  const ArxModel m = paper_equation_1();
  // Gain = (b1+b2)/(1-a) = (-1.0)/(0.5) = -2.0.
  const std::vector<double> gain = m.dc_gain();
  ASSERT_EQ(gain.size(), 1u);
  EXPECT_NEAR(gain[0], -2.0, 1e-12);
}

TEST(Arx, DcGainThrowsOnIntegrator) {
  ArxModel m = paper_equation_1();
  m.a = {1.0};
  EXPECT_THROW(m.dc_gain(), std::runtime_error);
}

TEST(Arx, ValidateCatchesShapeErrors) {
  ArxModel m = paper_equation_1();
  EXPECT_NO_THROW(m.validate());
  m.a = {0.5, 0.1};
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = paper_equation_1();
  m.b = linalg::Matrix(1, 1);
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = paper_equation_1();
  m.nu = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = paper_equation_1();
  m.nb = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Arx, ParameterCount) {
  const ArxModel m = paper_equation_1();
  EXPECT_EQ(m.parameter_count(), 1u + 2u + 1u);  // na + nb*nu + bias
}

}  // namespace
}  // namespace vdc::control
