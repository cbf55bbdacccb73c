// Differential test of the prepared QP solvers (InequalityQp, GeneralQp)
// against a dense reference: the one-shot Hildreth solver that factors H,
// forms P = M H^-1 M^T and sweeps every multiplier on every call. The
// prepared solvers cache the factorization and sum only over nonzero
// multipliers; both must reproduce the reference bit for bit — every entry
// of x, the iteration count and the convergence flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "control/mpc.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qp.hpp"
#include "linalg/qr.hpp"
#include "util/rng.hpp"

namespace vdc::linalg {
namespace {

constexpr std::size_t kCap = 2000;

// ---- dense reference -------------------------------------------------------

QpResult reference_inequality_qp(const Matrix& h, std::span<const double> g, const Matrix& m,
                                 std::span<const double> gamma,
                                 std::size_t max_iterations = kCap, double tolerance = 1e-9) {
  const std::size_t n = h.rows();
  const std::size_t q = m.rows();
  const CholeskyDecomposition chol(h);
  const Vector x0 = chol.solve(scale(g, -1.0));

  QpResult result;
  if (q == 0) {
    result.x = x0;
    result.converged = true;
    result.objective = qp_objective(h, g, result.x);
    return result;
  }
  const Vector mx0 = m * x0;
  bool feasible = true;
  for (std::size_t i = 0; i < q; ++i) {
    if (mx0[i] > gamma[i] + tolerance) {
      feasible = false;
      break;
    }
  }
  if (feasible) {
    result.x = x0;
    result.converged = true;
    result.iterations = 0;
    result.objective = qp_objective(h, g, result.x);
    return result;
  }

  Matrix hinv_mt(n, q);
  {
    Vector col(n);
    for (std::size_t c = 0; c < q; ++c) {
      for (std::size_t r = 0; r < n; ++r) col[r] = m(c, r);
      const Vector sol = chol.solve(col);
      for (std::size_t r = 0; r < n; ++r) hinv_mt(r, c) = sol[r];
    }
  }
  const Matrix p = m * hinv_mt;
  Vector k(q);
  for (std::size_t i = 0; i < q; ++i) k[i] = gamma[i] - mx0[i];

  Vector lambda(q, 0.0);
  std::size_t iter = 0;
  bool converged = false;
  for (; iter < max_iterations; ++iter) {
    double max_change = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      const double pii = p(i, i);
      if (pii <= 1e-14) continue;
      double s = k[i];
      for (std::size_t j = 0; j < q; ++j) {
        if (j != i) s += p(i, j) * lambda[j];
      }
      const double updated = std::max(0.0, -s / pii);
      max_change = std::max(max_change, std::abs(updated - lambda[i]));
      lambda[i] = updated;
    }
    if (max_change < tolerance) {
      converged = true;
      ++iter;
      break;
    }
  }

  Vector x = x0;
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < q; ++c) s += hinv_mt(r, c) * lambda[c];
    x[r] -= s;
  }
  result.x = std::move(x);
  result.converged = converged;
  result.iterations = iter;
  result.objective = qp_objective(h, g, result.x);
  return result;
}

QpResult reference_general_qp(const Matrix& h, std::span<const double> g, const Matrix& a,
                              std::span<const double> b, const Matrix& m,
                              std::span<const double> gamma) {
  const std::size_t n = h.rows();
  const std::size_t p = a.rows();
  const std::size_t q = m.rows();
  if (p == 0) return reference_inequality_qp(h, g, m, gamma);

  const QrDecomposition qr(a.transpose());
  const Matrix r = qr.r();
  Vector y1(p);
  for (std::size_t i = 0; i < p; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= r(j, i) * y1[j];
    y1[i] = s / r(i, i);
  }
  Vector y_full(n, 0.0);
  std::copy(y1.begin(), y1.end(), y_full.begin());
  const Vector x_particular = qr.q_apply(y_full);

  const Matrix q_full = qr.q_full();
  const std::size_t nz = n - p;
  Matrix z(n, nz);
  for (std::size_t rr = 0; rr < n; ++rr) {
    for (std::size_t c = 0; c < nz; ++c) z(rr, c) = q_full(rr, p + c);
  }
  const Matrix hz = z.transpose() * h * z;
  const Vector hxp = h * std::span<const double>(x_particular);
  const Vector tmp = add(g, hxp);
  const Vector gz = z.transpose() * std::span<const double>(tmp);
  Matrix mz;
  Vector gamma_z;
  if (q > 0) {
    mz = m * z;
    const Vector mxp = m * std::span<const double>(x_particular);
    gamma_z = sub(gamma, mxp);
  }
  const QpResult reduced = reference_inequality_qp(hz, gz, mz, gamma_z);

  QpResult result;
  result.converged = reduced.converged;
  result.iterations = reduced.iterations;
  const Vector zx = z * std::span<const double>(reduced.x);
  result.x = add(x_particular, zx);
  result.objective = qp_objective(h, g, result.x);
  return result;
}

// ---- helpers ---------------------------------------------------------------

void expect_identical(const QpResult& got, const QpResult& want) {
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) EXPECT_EQ(got.x[i], want.x[i]) << "x[" << i << "]";
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.objective, want.objective);
}

Matrix random_spd(util::Rng& rng, std::size_t n) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix h = b.transpose() * b;
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  return h;
}

/// Box bounds as inequality rows, laid out as solve_box_qp does.
void box_rows(std::span<const double> lo, std::span<const double> hi, Matrix& m, Vector& gamma) {
  const std::size_t n = lo.size();
  m = Matrix(2 * n, n);
  gamma.assign(2 * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    m(2 * i, i) = 1.0;
    gamma[2 * i] = hi[i];
    m(2 * i + 1, i) = -1.0;
    gamma[2 * i + 1] = -lo[i];
  }
}

// ---- the sweeps of test_qp.cpp, compared bit for bit -------------------------

class DifferentialBoxSweep : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialBoxSweep, MatchesDenseReference) {
  util::Rng rng(static_cast<std::uint64_t>(400 + GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 4;
  const Matrix h = random_spd(rng, n);
  Vector g(n);
  for (double& v : g) v = rng.uniform(-2.0, 2.0);
  Matrix m;
  Vector gamma;
  box_rows(Vector(n, -0.4), Vector(n, 0.4), m, gamma);

  const QpResult want = reference_general_qp(h, g, Matrix(), {}, m, gamma);
  expect_identical(solve_general_qp(h, g, Matrix(), {}, m, gamma), want);
  expect_identical(InequalityQp(h, m).solve(g, gamma), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialBoxSweep, ::testing::Range(0, 16));

class DifferentialGeneralSweep : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialGeneralSweep, MatchesDenseReference) {
  util::Rng rng(static_cast<std::uint64_t>(800 + GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 4;
  const Matrix h = random_spd(rng, n);
  Vector g(n);
  for (double& v : g) v = rng.uniform(-2.0, 2.0);
  Matrix a(1, n);
  for (std::size_t j = 0; j < n; ++j) a(0, j) = rng.uniform(0.5, 1.5);
  Vector interior(n);
  for (double& v : interior) v = rng.uniform(-0.2, 0.2);
  const Vector ax = a * std::span<const double>(interior);
  const Vector rhs = {ax[0]};
  Matrix m;
  Vector gamma;
  box_rows(Vector(n, -0.5), Vector(n, 0.5), m, gamma);

  const QpResult want = reference_general_qp(h, g, a, rhs, m, gamma);
  expect_identical(solve_general_qp(h, g, a, rhs, m, gamma), want);
  // One prepared problem, solved twice: the second solve sees no state of
  // the first.
  const GeneralQp prepared(h, a, m);
  expect_identical(prepared.solve(g, rhs, gamma), want);
  expect_identical(prepared.solve(g, rhs, gamma), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialGeneralSweep, ::testing::Range(0, 12));

// ---- MPC-shaped problems ---------------------------------------------------

/// The controller's own QP data for a random stable two-input model: the
/// cumulative-sum range rows and the rate rows of MpcProblem.
control::MpcProblem mpc_problem(util::Rng& rng, control::MpcConfig::Terminal terminal) {
  control::ArxModel model;
  model.na = 1;
  model.nb = 2;
  model.nu = 2;
  model.a = {rng.uniform(0.2, 0.8)};
  model.b = Matrix(2, 2);
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t m = 0; m < 2; ++m) model.b(j, m) = rng.uniform(-1.5, 0.2);
  }
  control::MpcConfig config;
  config.prediction_horizon = 8;
  config.control_horizon = 3;
  config.r_weight = {0.01};
  config.c_min = {0.05};
  config.c_max = {4.0};
  config.delta_max = 0.5;
  config.terminal = terminal;
  return control::MpcProblem(model, config.broadcast(2));
}

/// Range bounds around a random previous allocation and the rate limits,
/// in MpcProblem's row order. `squeeze` < 0 makes the range rows
/// contradictory (sum <= squeeze and -sum <= squeeze), so Hildreth runs to
/// its cap.
Vector mpc_gamma(util::Rng& rng, std::size_t rows, double squeeze) {
  Vector gamma(rows);
  const std::size_t range_rows = rows / 2;
  for (std::size_t r = 0; r < range_rows; r += 2) {
    const double c_prev = rng.uniform(0.05, 4.0);
    gamma[r] = squeeze < 0.0 ? squeeze : 4.0 - c_prev;
    gamma[r + 1] = squeeze < 0.0 ? squeeze : c_prev - 0.05;
  }
  for (std::size_t r = range_rows; r < rows; r += 2) {
    gamma[r] = 0.5;
    gamma[r + 1] = 0.1;
  }
  return gamma;
}

class DifferentialMpcSweep : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialMpcSweep, SoftAndHardTerminalMatchDenseReference) {
  util::Rng rng(static_cast<std::uint64_t>(1200 + GetParam()));
  for (const auto terminal :
       {control::MpcConfig::Terminal::kSoft, control::MpcConfig::Terminal::kHard}) {
    const control::MpcProblem problem = mpc_problem(rng, terminal);
    ASSERT_TRUE(problem.qp.has_value());
    const Matrix& m = problem.inequalities;
    ASSERT_EQ(m.rows(), 24u);  // 2 * (3 * 2) range rows + 2 * (3 * 2) rate rows
    Matrix a;
    if (problem.terminal_equality) a = problem.prediction.block(2, 0, 1, 6);
    ASSERT_EQ(problem.terminal_equality, terminal == control::MpcConfig::Terminal::kHard);
    for (int trial = 0; trial < 8; ++trial) {
      Vector g(6);
      const double scale_g = trial % 2 == 0 ? 2.0 : 200.0;  // large g saturates the box
      for (double& v : g) v = rng.uniform(-scale_g, scale_g);
      const Vector gamma = mpc_gamma(rng, m.rows(), trial == 7 ? -0.3 : 1.0);
      const Vector b = problem.terminal_equality ? Vector{rng.uniform(-0.5, 0.5)} : Vector{};
      const QpResult want = reference_general_qp(problem.hessian, g, a, b, m, gamma);
      expect_identical(problem.qp->solve(g, b, gamma), want);
      if (trial == 7) {
        EXPECT_EQ(want.iterations, kCap);
        EXPECT_FALSE(want.converged);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialMpcSweep, ::testing::Range(0, 8));

TEST(DifferentialQp, FeasibleUnconstrainedMinimizerExitsEarly) {
  const Matrix h{{2.0, 0.5}, {0.5, 1.0}};
  const Vector g = {-0.3, 0.2};
  Matrix m;
  Vector gamma;
  box_rows(Vector{-5.0, -5.0}, Vector{5.0, 5.0}, m, gamma);
  const QpResult want = reference_inequality_qp(h, g, m, gamma);
  ASSERT_EQ(want.iterations, 0u);
  ASSERT_TRUE(want.converged);
  expect_identical(InequalityQp(h, m).solve(g, gamma), want);
}

TEST(DifferentialQp, DegenerateZeroRowIsSkipped) {
  // Row 1 is all zeros, so its P diagonal is 0 <= 1e-14 and the sweep
  // skips it; the other rows bind.
  const Matrix h = Matrix::identity(3);
  Matrix m(4, 3);
  m(0, 0) = 1.0;
  m(2, 1) = 1.0;
  m(3, 0) = 1.0;
  m(3, 2) = 1.0;
  const Vector g = {-1.0, -2.0, -1.5};
  const Vector gamma = {0.2, 0.0, 0.4, 0.5};
  const QpResult want = reference_inequality_qp(h, g, m, gamma);
  ASSERT_GT(want.iterations, 0u);
  expect_identical(InequalityQp(h, m).solve(g, gamma), want);
}

TEST(DifferentialQp, UnconstrainedProblemMatches) {
  util::Rng rng(77);
  const Matrix h = random_spd(rng, 4);
  const Vector g = {1.0, -2.0, 0.5, 0.25};
  const QpResult want = reference_inequality_qp(h, g, Matrix(), {});
  expect_identical(InequalityQp(h, Matrix()).solve(g, {}), want);
}

TEST(DifferentialQp, PreparedProblemRejectsBadShapes) {
  const Matrix h = Matrix::identity(2);
  Matrix m(1, 3);
  EXPECT_THROW(InequalityQp(h, m), std::invalid_argument);
  const InequalityQp qp(h, Matrix(1, 2));
  EXPECT_THROW((void)qp.solve(Vector{0.0}, Vector{1.0}), std::invalid_argument);
  EXPECT_THROW((void)qp.solve(Vector{0.0, 0.0}, Vector{}), std::invalid_argument);
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  EXPECT_THROW(GeneralQp(h, a, Matrix()), std::invalid_argument);  // p >= n
}

}  // namespace
}  // namespace vdc::linalg
