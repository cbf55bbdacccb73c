// Differential test of the prepared QP solvers (InequalityQp, GeneralQp)
// against the dense reference: Hildreth's dual coordinate ascent in the
// test-only oracle target, the solver the MPC used before the dual
// active-set method. The two are different algorithms, so they are compared
// by what they solve, not by their bits: the active-set result must satisfy
// the KKT conditions (primal, dual, complementarity, stationarity) tightly,
// reach the oracle's objective within 1e-9 relative, and hold the same rows
// active wherever the problem is non-degenerate. Only the paths that do no
// active-set work (a feasible unconstrained minimizer, no rows) must still
// match the oracle bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "control/mpc.hpp"
#include "linalg/hildreth.hpp"
#include "linalg/qp.hpp"
#include "util/rng.hpp"

namespace vdc::linalg {
namespace {

using oracle::hildreth_general_qp;
using oracle::hildreth_qp;
using oracle::kHildrethCap;

/// KKT residual bound for the active-set solver: its feasibility test stops
/// at 1e-9 relative and it holds active rows tight to rounding.
constexpr double kKktTol = 1e-9;
constexpr std::size_t kTightSweeps = 100000;
constexpr double kTightTolerance = 1e-13;

// ---- helpers ---------------------------------------------------------------

void expect_identical(const QpResult& got, const QpResult& want) {
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) EXPECT_EQ(got.x[i], want.x[i]) << "x[" << i << "]";
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.objective, want.objective);
}

void expect_kkt(const Matrix& h, std::span<const double> g, const Matrix& a,
                std::span<const double> b, const Matrix& m, std::span<const double> gamma,
                const QpResult& got) {
  const oracle::KktResiduals kkt = oracle::kkt_residuals(h, g, a, b, m, gamma, got);
  EXPECT_LE(kkt.primal, kKktTol);
  EXPECT_LE(kkt.dual, 0.0);  // the solver clamps its multipliers at zero
  EXPECT_LE(kkt.complementarity, kKktTol);
  EXPECT_LE(kkt.stationarity, kKktTol);
}

std::vector<std::size_t> sorted(std::vector<std::size_t> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// True when the oracle's solution is non-degenerate: converged, every
/// multiplier well above zero, every other row well inside its bound, and
/// the active rows of M independent on the null space of A. Its active set
/// is then the unique optimal one.
bool non_degenerate(const Matrix& a, const Matrix& m, std::span<const double> gamma,
                    const QpResult& want) {
  if (!want.converged) return false;
  for (const double lambda : want.multipliers) {
    if (lambda < 1e-6) return false;
  }
  const std::size_t n = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (std::binary_search(want.active.begin(), want.active.end(), r)) continue;
    double row = 0.0;
    for (std::size_t c = 0; c < n; ++c) row += m(r, c) * want.x[c];
    if (gamma[r] - row < 1e-6 * std::max(1.0, std::abs(gamma[r]))) return false;
  }
  // Gram-Schmidt over the rows of A, then the active rows of M: each active
  // row must keep a tenth of its norm.
  std::vector<Vector> basis;
  const auto reduce = [&](Vector v) {
    for (const Vector& e : basis) {
      const double d = dot(v, e);
      for (std::size_t c = 0; c < n; ++c) v[c] -= d * e[c];
    }
    return v;
  };
  const auto push = [&](Vector v) {
    const double norm = std::sqrt(dot(v, v));
    for (double& e : v) e /= norm;
    basis.push_back(std::move(v));
  };
  for (std::size_t r = 0; r < a.rows(); ++r) {
    push(reduce(Vector(a.data().begin() + static_cast<std::ptrdiff_t>(r * n),
                       a.data().begin() + static_cast<std::ptrdiff_t>((r + 1) * n))));
  }
  for (const std::size_t r : want.active) {
    const Vector row(m.data().begin() + static_cast<std::ptrdiff_t>(r * n),
                     m.data().begin() + static_cast<std::ptrdiff_t>((r + 1) * n));
    const Vector left = reduce(row);
    if (dot(left, left) < 1e-2 * dot(row, row)) return false;
    push(left);
  }
  return true;
}

/// How far an oracle comparison went.
enum class Compared { kKktOnly, kObjective, kActiveSet };

/// The active-set result `got` against the oracle's `want` on the same
/// problem. `got` must converge and pass the KKT check; when the oracle
/// converged too, the objectives must agree, and when the problem is
/// non-degenerate, so must the active sets.
Compared expect_matches_oracle(const Matrix& h, std::span<const double> g, const Matrix& a,
                               std::span<const double> b, const Matrix& m,
                               std::span<const double> gamma, const QpResult& got,
                               const QpResult& want) {
  EXPECT_TRUE(got.converged);
  EXPECT_LE(got.iterations, m.rows());
  expect_kkt(h, g, a, b, m, gamma, got);
  if (!want.converged) return Compared::kKktOnly;
  EXPECT_NEAR(got.objective, want.objective, 1e-9 * std::max(1.0, std::abs(want.objective)));
  if (!non_degenerate(a, m, gamma, want)) return Compared::kObjective;
  EXPECT_EQ(sorted(got.active), want.active);
  return Compared::kActiveSet;
}

/// Hildreth run far past its production stopping rule (1e-9 on the largest
/// multiplier change, 2,000 sweeps), so that its objective is accurate to
/// well below the 1e-9 the comparison asks for.
QpResult oracle_solution(const Matrix& h, std::span<const double> g, const Matrix& a,
                         std::span<const double> b, const Matrix& m,
                         std::span<const double> gamma) {
  return hildreth_general_qp(h, g, a, b, m, gamma, kTightSweeps, kTightTolerance);
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

// ---- the sweeps of test_qp.cpp ---------------------------------------------

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

  const QpResult want = oracle_solution(h, g, Matrix(), {}, m, gamma);
  expect_matches_oracle(h, g, Matrix(), {}, m, gamma, GeneralQp(h, Matrix(), m).solve(g, {}, gamma),
                        want);
  expect_matches_oracle(h, g, Matrix(), {}, m, gamma, InequalityQp(h, m).solve(g, gamma), want);
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

  const QpResult want = oracle_solution(h, g, a, rhs, m, gamma);
  // One prepared problem, solved twice: the second solve sees no state of
  // the first.
  const GeneralQp prepared(h, a, m);
  const QpResult first = prepared.solve(g, rhs, gamma);
  expect_matches_oracle(h, g, a, rhs, m, gamma, first, want);
  expect_identical(prepared.solve(g, rhs, gamma), first);
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
/// contradictory (sum <= squeeze and -sum <= squeeze): no point is feasible.
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

/// Gaussian elimination with partial pivoting: v <- K^-1 v. False when K is
/// singular to working precision (its rows are then dependent).
bool solve_in_place(Matrix& k, Vector& v) {
  const std::size_t n = v.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(k(r, col)) > std::abs(k(pivot, col))) pivot = r;
    }
    if (std::abs(k(pivot, col)) < 1e-12) return false;
    for (std::size_t c = 0; c < n; ++c) std::swap(k(col, c), k(pivot, c));
    std::swap(v[col], v[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = k(r, col) / k(col, col);
      for (std::size_t c = col; c < n; ++c) k(r, c) -= f * k(col, c);
      v[r] -= f * v[col];
    }
  }
  for (std::size_t r = n; r-- > 0;) {
    for (std::size_t c = r + 1; c < n; ++c) v[r] -= k(r, c) * v[c];
    v[r] /= k(r, r);
  }
  return true;
}

/// Whether {x : A x = b, M x <= gamma} is nonempty, for a bounded set (the
/// MPC's range rows bound every move). A nonempty bounded polyhedron has a
/// vertex, where the rows of A and n - p independent rows of M are tight,
/// so the set is empty exactly when no such choice of rows gives a point
/// that satisfies every row.
bool has_feasible_vertex(const Matrix& a, std::span<const double> b, const Matrix& m,
                         std::span<const double> gamma) {
  const std::size_t n = m.cols();
  const std::size_t p = a.rows();
  const std::size_t q = m.rows();
  std::vector<std::size_t> pick(n - p);
  std::iota(pick.begin(), pick.end(), 0);
  while (true) {
    Matrix kkt(n, n);
    Vector rhs(n);
    for (std::size_t r = 0; r < n; ++r) {
      const bool equality = r < p;
      const std::size_t row = equality ? r : pick[r - p];
      for (std::size_t c = 0; c < n; ++c) kkt(r, c) = equality ? a(row, c) : m(row, c);
      rhs[r] = equality ? b[row] : gamma[row];
    }
    if (solve_in_place(kkt, rhs)) {
      const Vector mx = m * std::span<const double>(rhs);
      bool feasible = true;
      for (std::size_t r = 0; r < q && feasible; ++r) {
        feasible = mx[r] <= gamma[r] + 1e-9 * std::max(1.0, std::abs(gamma[r]));
      }
      if (feasible) return true;
    }
    // Next combination of n - p rows out of q.
    std::size_t i = pick.size();
    while (i > 0 && pick[i - 1] == q - pick.size() + i - 1) --i;
    if (i == 0) return false;
    ++pick[i - 1];
    for (std::size_t j = i; j < pick.size(); ++j) pick[j] = pick[j - 1] + 1;
  }
}

class DifferentialMpcSweep : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialMpcSweep, SoftAndHardTerminalMatchDenseReference) {
  util::Rng rng(static_cast<std::uint64_t>(1200 + GetParam()));
  int infeasible = 0;
  std::array<int, 3> counts{};  // by Compared
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
      const QpResult got = problem.qp->solve(g, b, gamma);
      if (trial == 7) {
        // Hildreth runs to its cap on the squeezed range rows.
        const QpResult capped = hildreth_general_qp(problem.hessian, g, a, b, m, gamma);
        EXPECT_EQ(capped.iterations, kHildrethCap);
        EXPECT_FALSE(capped.converged);
      }
      if (!got.converged) {
        // The active-set method proves infeasibility within a few
        // additions and returns the finite point it reached. Besides the
        // squeezed trial, a random terminal value b can be out of reach of
        // the rate limits in kHard.
        EXPECT_TRUE(trial == 7 || problem.terminal_equality);
        EXPECT_FALSE(has_feasible_vertex(a, b, m, gamma));
        EXPECT_LE(got.iterations, m.rows());
        for (const double v : got.x) EXPECT_TRUE(std::isfinite(v));
        ++infeasible;
        continue;
      }
      const QpResult want = oracle_solution(problem.hessian, g, a, b, m, gamma);
      ++counts[static_cast<std::size_t>(
          expect_matches_oracle(problem.hessian, g, a, b, m, gamma, got, want))];
    }
  }
  // The sweep exercises every kind of comparison.
  EXPECT_GE(infeasible, 2);
  EXPECT_GT(counts[static_cast<std::size_t>(Compared::kActiveSet)], 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialMpcSweep, ::testing::Range(0, 8));

TEST(DifferentialQp, FeasibleUnconstrainedMinimizerExitsEarly) {
  const Matrix h{{2.0, 0.5}, {0.5, 1.0}};
  const Vector g = {-0.3, 0.2};
  Matrix m;
  Vector gamma;
  box_rows(Vector{-5.0, -5.0}, Vector{5.0, 5.0}, m, gamma);
  const QpResult want = hildreth_qp(h, g, m, gamma);
  ASSERT_EQ(want.iterations, 0u);
  ASSERT_TRUE(want.converged);
  // No active-set work is done, so the point keeps the oracle's bits.
  const QpResult got = InequalityQp(h, m).solve(g, gamma);
  expect_identical(got, want);
  EXPECT_TRUE(got.active.empty());
}

TEST(DifferentialQp, DegenerateZeroRowIsSkipped) {
  // Row 1 is all zeros with a nonnegative bound, so it never binds; the
  // other rows do.
  const Matrix h = Matrix::identity(3);
  Matrix m(4, 3);
  m(0, 0) = 1.0;
  m(2, 1) = 1.0;
  m(3, 0) = 1.0;
  m(3, 2) = 1.0;
  const Vector g = {-1.0, -2.0, -1.5};
  const Vector gamma = {0.2, 0.0, 0.4, 0.5};
  const QpResult want = hildreth_qp(h, g, m, gamma, kTightSweeps, kTightTolerance);
  ASSERT_GT(want.iterations, 0u);
  const QpResult got = InequalityQp(h, m).solve(g, gamma);
  EXPECT_EQ(expect_matches_oracle(h, g, Matrix(), {}, m, gamma, got, want), Compared::kObjective);
  // x = (0, 0.4, 0.5): rows 2 and 3 bind; the zero row is tight but never
  // active.
  EXPECT_EQ(sorted(got.active), (std::vector<std::size_t>{2, 3}));
}

TEST(DifferentialQp, UnconstrainedProblemMatches) {
  util::Rng rng(77);
  const Matrix h = random_spd(rng, 4);
  const Vector g = {1.0, -2.0, 0.5, 0.25};
  const QpResult want = hildreth_qp(h, g, Matrix(), {});
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
