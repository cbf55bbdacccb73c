#include "linalg/qp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/hildreth.hpp"
#include "util/rng.hpp"

namespace vdc::linalg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EqualityQp, UnconstrainedMinimizer) {
  const Matrix h{{2.0, 0.0}, {0.0, 4.0}};
  const std::vector<double> g = {-2.0, -8.0};  // minimizer (1, 2)
  const QpResult r = solve_equality_qp(h, g, Matrix(), {});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-10);
  EXPECT_NEAR(r.x[1], 2.0, 1e-10);
}

TEST(EqualityQp, ProjectsOntoConstraint) {
  // min 1/2||x||^2 s.t. x1 + x2 = 2 -> (1, 1).
  const Matrix h = Matrix::identity(2);
  Matrix a(1, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  const QpResult r = solve_equality_qp(h, std::vector<double>{0.0, 0.0}, a,
                                       std::vector<double>{2.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-10);
  EXPECT_NEAR(r.x[1], 1.0, 1e-10);
  EXPECT_NEAR(r.objective, 1.0, 1e-10);
}

TEST(EqualityQp, DimensionChecks) {
  const Matrix h = Matrix::identity(2);
  EXPECT_THROW(solve_equality_qp(h, std::vector<double>{0.0}, Matrix(), {}),
               std::invalid_argument);
  Matrix a(1, 3);
  EXPECT_THROW(solve_equality_qp(h, std::vector<double>{0.0, 0.0}, a,
                                 std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(InequalityQp, InactiveConstraintsGiveUnconstrainedPoint) {
  const Matrix h = Matrix::identity(2);
  const std::vector<double> g = {-1.0, -1.0};  // minimizer (1,1)
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  const QpResult r = InequalityQp(h, m).solve(g, std::vector<double>{5.0, 5.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
}

TEST(InequalityQp, ActiveBoundClamps) {
  // min 1/2||x||^2 - [1,1]x s.t. x <= 0.2 -> (0.2, 0.2).
  const Matrix h = Matrix::identity(2);
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  const QpResult r =
      InequalityQp(h, m).solve(std::vector<double>{-1.0, -1.0}, std::vector<double>{0.2, 0.2});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.2, 1e-7);
  EXPECT_NEAR(r.x[1], 0.2, 1e-7);
}

TEST(InequalityQp, RedundantRowsHarmless) {
  const Matrix h = Matrix::identity(2);
  Matrix m(5, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  m(2, 0) = 1.0;  // duplicate of row 0
  m(3, 1) = 1.0;  // duplicate of row 1
  m(4, 0) = 1.0;
  m(4, 1) = 1.0;
  const QpResult r = InequalityQp(h, m).solve(std::vector<double>{-1.0, -1.0},
                                              std::vector<double>{0.2, 0.2, 0.2, 0.2, 0.4});
  EXPECT_NEAR(r.x[0], 0.2, 1e-6);
  EXPECT_NEAR(r.x[1], 0.2, 1e-6);
}

TEST(GeneralQp, EqualityPlusActiveInequality) {
  // min 1/2||x||^2 s.t. x1+x2 = 0.8, x1 <= 0.1 -> (0.1, 0.7).
  const Matrix h = Matrix::identity(2);
  Matrix a(1, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  const QpResult r = GeneralQp(h, a, m).solve(std::vector<double>{0.0, 0.0},
                                              std::vector<double>{0.8},
                                              std::vector<double>{0.1, 2.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.1, 1e-6);
  EXPECT_NEAR(r.x[1], 0.7, 1e-6);
}

TEST(GeneralQp, DependentEqualityRowsThrow) {
  const Matrix h = Matrix::identity(3);
  Matrix a(2, 3);
  a(0, 0) = 1.0;
  a(1, 0) = 2.0;  // scalar multiple of row 0
  EXPECT_THROW(GeneralQp(h, a, Matrix()), std::runtime_error);
}

TEST(BoxQp, UnconstrainedInteriorSolution) {
  const Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  const std::vector<double> g = {-1.0, 1.0};  // minimizer (0.5, -0.5)
  const QpResult r = solve_box_qp(h, g, std::vector<double>{-1.0, -1.0},
                                  std::vector<double>{1.0, 1.0});
  EXPECT_NEAR(r.x[0], 0.5, 1e-8);
  EXPECT_NEAR(r.x[1], -0.5, 1e-8);
}

TEST(BoxQp, ClampsAtBound) {
  const Matrix h{{2.0, 0.0}, {0.0, 0.1}};
  const std::vector<double> g = {1.0, -3.0};  // unconstrained (-0.5, 30)
  const QpResult r = solve_box_qp(h, g, std::vector<double>{-1.0, -1.0},
                                  std::vector<double>{1.0, 1.0});
  EXPECT_NEAR(r.x[0], -0.5, 1e-7);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(BoxQp, InfiniteBoundsSkipRows) {
  const Matrix h = Matrix::identity(1);
  const QpResult r = solve_box_qp(h, std::vector<double>{-4.0},
                                  std::vector<double>{-kInf}, std::vector<double>{kInf});
  EXPECT_NEAR(r.x[0], 4.0, 1e-10);
}

TEST(BoxQp, EqualityPlusTightBox) {
  // min 1/2||x||^2 s.t. x1+x2 = 1.8, x1 <= 0.5, x2 <= 1.5 -> (0.5, 1.3).
  const Matrix h = Matrix::identity(2);
  Matrix a(1, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  const QpResult r = solve_box_qp(h, std::vector<double>{0.0, 0.0},
                                  std::vector<double>{-kInf, -kInf},
                                  std::vector<double>{0.5, 1.5}, a,
                                  std::vector<double>{1.8});
  EXPECT_NEAR(r.x[0], 0.5, 1e-6);
  EXPECT_NEAR(r.x[1], 1.3, 1e-6);
}

TEST(BoxQp, RejectsInvertedBounds) {
  const Matrix h = Matrix::identity(1);
  EXPECT_THROW(solve_box_qp(h, std::vector<double>{0.0}, std::vector<double>{1.0},
                            std::vector<double>{-1.0}),
               std::invalid_argument);
}

class RandomBoxQpSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomBoxQpSweep, SatisfiesKktConditions) {
  util::Rng rng(static_cast<std::uint64_t>(400 + GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 4;
  // SPD Hessian.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix h = b.transpose() * b;
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  std::vector<double> g(n);
  for (double& v : g) v = rng.uniform(-2.0, 2.0);
  const std::vector<double> lo(n, -0.4);
  const std::vector<double> hi(n, 0.4);

  const QpResult r = solve_box_qp(h, g, lo, hi);
  ASSERT_TRUE(r.converged);
  // Feasibility.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(r.x[i], lo[i] - 1e-8);
    EXPECT_LE(r.x[i], hi[i] + 1e-8);
  }
  // Stationarity: for interior coordinates the gradient must vanish; at an
  // active bound the gradient must point outward.
  const Vector hx = h * std::span<const double>(r.x);
  for (std::size_t i = 0; i < n; ++i) {
    const double grad = hx[i] + g[i];
    if (r.x[i] > lo[i] + 1e-6 && r.x[i] < hi[i] - 1e-6) {
      EXPECT_NEAR(grad, 0.0, 1e-5) << "interior coordinate " << i;
    } else if (r.x[i] <= lo[i] + 1e-6) {
      EXPECT_GE(grad, -1e-5) << "lower-bound coordinate " << i;
    } else {
      EXPECT_LE(grad, 1e-5) << "upper-bound coordinate " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBoxQpSweep, ::testing::Range(0, 16));

class RandomGeneralQpSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomGeneralQpSweep, SatisfiesKktWithEqualityAndBoxConstraints) {
  util::Rng rng(static_cast<std::uint64_t>(800 + GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 4;
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix h = b.transpose() * b;
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  std::vector<double> g(n);
  for (double& v : g) v = rng.uniform(-2.0, 2.0);

  // One equality row through a feasible interior point.
  Matrix a(1, n);
  for (std::size_t j = 0; j < n; ++j) a(0, j) = rng.uniform(0.5, 1.5);
  std::vector<double> interior(n);
  for (double& v : interior) v = rng.uniform(-0.2, 0.2);
  const Vector ax = a * std::span<const double>(interior);
  const std::vector<double> rhs = {ax[0]};
  const std::vector<double> lo(n, -0.5);
  const std::vector<double> hi(n, 0.5);

  const QpResult r = solve_box_qp(h, g, lo, hi, a, rhs);
  ASSERT_TRUE(r.converged);
  // Feasibility: equality within tolerance, bounds exactly.
  const Vector axr = a * std::span<const double>(r.x);
  EXPECT_NEAR(axr[0], rhs[0], 1e-5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(r.x[i], lo[i] - 1e-8);
    EXPECT_LE(r.x[i], hi[i] + 1e-8);
  }
  // Optimality: the objective cannot be improved by feasible perturbations
  // inside the null space of A and the inactive box region.
  const double f0 = qp_objective(h, g, r.x);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<double> direction(n);
    for (double& v : direction) v = rng.uniform(-1.0, 1.0);
    // Project onto null(A).
    const Vector ad = a * std::span<const double>(direction);
    double norm_a2 = 0.0;
    for (std::size_t j = 0; j < n; ++j) norm_a2 += a(0, j) * a(0, j);
    for (std::size_t j = 0; j < n; ++j) direction[j] -= ad[0] * a(0, j) / norm_a2;
    for (const double eps : {1e-4, -1e-4}) {
      std::vector<double> candidate = r.x;
      bool feasible = true;
      for (std::size_t j = 0; j < n; ++j) {
        candidate[j] += eps * direction[j];
        if (candidate[j] < lo[j] || candidate[j] > hi[j]) feasible = false;
      }
      if (!feasible) continue;
      EXPECT_GE(qp_objective(h, g, candidate), f0 - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGeneralQpSweep, ::testing::Range(0, 12));

// ---- exact active-set solver ------------------------------------------------

/// KKT residuals of `r` must be at rounding level.
void expect_kkt(const Matrix& h, std::span<const double> g, const Matrix& m,
                std::span<const double> gamma, const QpResult& r) {
  const oracle::KktResiduals kkt = oracle::kkt_residuals(h, g, Matrix(), {}, m, gamma, r);
  EXPECT_LE(kkt.primal, 1e-9);
  EXPECT_LE(kkt.dual, 0.0);
  EXPECT_LE(kkt.complementarity, 1e-9);
  EXPECT_LE(kkt.stationarity, 1e-9);
}

/// One QP of the perfbench `crowd` workload (seed 1), captured during the
/// flash crowd: two tiers, control horizon 3, both VMs at c_max with p90
/// far above the setpoint. Rows: the range rows (+, -) per move and input,
/// then the rate rows (+, -) per move variable.
struct CrowdQp {
  Matrix h{
      {180.52305447277604, 537.10371666502681, 161.17664105412666,
       499.83070338031763, 131.87094979667688, 437.69557451469427},
      {537.10371666502681, 1618.502247597165, 484.08645714722337,
       1501.8504822867233, 395.37413227249203, 1313.484295742815},
      {161.17664105412666, 484.08645714722337, 148.93359990675248,
       455.09393105839007, 120.84000661376919, 400.01553210595102},
      {499.83070338031769, 1501.850482286723, 455.09393105839007,
       1412.7862197283862, 372.92001557748756, 1236.7844111282686},
      {131.87094979667691, 395.37413227249203, 120.84000661376919,
       372.92001557748756, 103.20973197849236, 332.9614671463367},
      {437.69557451469427, 1313.4842957428148, 400.01553210595102,
       1236.7844111282686, 332.9614671463367, 1102.2920210840018},
  };
  Matrix m{
      {1, 0, 0, 0, 0, 0},
      {-1, 0, 0, 0, 0, 0},
      {0, 1, 0, 0, 0, 0},
      {0, -1, 0, 0, 0, 0},
      {1, 0, 1, 0, 0, 0},
      {-1, 0, -1, 0, 0, 0},
      {0, 1, 0, 1, 0, 0},
      {0, -1, 0, -1, 0, 0},
      {1, 0, 1, 0, 1, 0},
      {-1, 0, -1, 0, -1, 0},
      {0, 1, 0, 1, 0, 1},
      {0, -1, 0, -1, 0, -1},
      {1, 0, 0, 0, 0, 0},
      {-1, 0, 0, 0, 0, 0},
      {0, 1, 0, 0, 0, 0},
      {0, -1, 0, 0, 0, 0},
      {0, 0, 1, 0, 0, 0},
      {0, 0, -1, 0, 0, 0},
      {0, 0, 0, 1, 0, 0},
      {0, 0, 0, -1, 0, 0},
      {0, 0, 0, 0, 1, 0},
      {0, 0, 0, 0, -1, 0},
      {0, 0, 0, 0, 0, 1},
      {0, 0, 0, 0, 0, -1},
  };
  Vector g{
      -941.38799645685663, -2832.4306493461468, -852.21562775023017,
      -2647.0138668847949, -695.93629253514825, -2322.1334304026373};
  Vector gamma{
      1.0442793304581581, 0.30572066954184185, 1.1565779903917159, 0.19342200960828407,
      1.0442793304581581, 0.30572066954184185, 1.1565779903917159, 0.19342200960828407,
      1.0442793304581581, 0.30572066954184185, 1.1565779903917159, 0.19342200960828407,
      0.29999999999999999, 0.29999999999999999, 0.29999999999999999, 0.29999999999999999,
      0.29999999999999999, 0.29999999999999999, 0.29999999999999999, 0.29999999999999999,
      0.29999999999999999, 0.29999999999999999, 0.29999999999999999, 0.29999999999999999};
};

TEST(InequalityQp, CrowdQpThatCappedHildrethConverges) {
  const CrowdQp crowd;
  const std::size_t q = crowd.m.rows();
  ASSERT_EQ(q, 24u);
  const QpResult hildreth = oracle::hildreth_qp(crowd.h, crowd.g, crowd.m, crowd.gamma);
  EXPECT_FALSE(hildreth.converged);
  EXPECT_EQ(hildreth.iterations, oracle::kHildrethCap);

  const QpResult r = InequalityQp(crowd.h, crowd.m).solve(crowd.g, crowd.gamma);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, q);
  expect_kkt(crowd.h, crowd.g, crowd.m, crowd.gamma, r);
  // Hildreth's unconverged point violates rows by far more than rounding.
  EXPECT_GT(oracle::kkt_residuals(crowd.h, crowd.g, Matrix(), {}, crowd.m, crowd.gamma, hildreth)
                .primal,
            1e-6);
}

TEST(InequalityQp, SteadyRepeatEndsAfterOneWarmCheck) {
  const CrowdQp crowd;
  const InequalityQp qp(crowd.h, crowd.m);
  const QpResult cold = qp.solve(crowd.g, crowd.gamma);
  ASSERT_TRUE(cold.converged);
  ASSERT_FALSE(cold.active.empty());
  ASSERT_GT(cold.iterations, 1u);

  // Same bounds, previous active set as the hint: one KKT solve accepts it
  // and, as it ends on the same active set, returns the cold point's bits.
  const QpResult warm = qp.solve(crowd.g, crowd.gamma, cold.active);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iterations, 1u);
  EXPECT_EQ(warm.active, cold.active);
  EXPECT_EQ(warm.x, cold.x);
  EXPECT_EQ(warm.multipliers, cold.multipliers);
  EXPECT_EQ(warm.objective, cold.objective);
}

TEST(InequalityQp, StaleHintGivesTheColdOptimum) {
  const CrowdQp crowd;
  const InequalityQp qp(crowd.h, crowd.m);
  const QpResult before = qp.solve(crowd.g, crowd.gamma);
  ASSERT_TRUE(before.converged);
  const std::vector<std::size_t> hint = before.active;

  // Bounds that move under the hint: the upward rate limit widens and the
  // range rows tighten, the gradient flips sign, or every row relaxes.
  Vector wider = crowd.gamma;
  for (std::size_t r = 12; r < 24; r += 2) wider[r] = 0.45;
  for (std::size_t r = 0; r < 12; r += 2) wider[r] *= 0.5;
  Vector flipped = crowd.g;
  for (double& v : flipped) v = -v;
  Vector loose = crowd.gamma;
  for (double& v : loose) v += 100.0;
  const std::vector<std::pair<Vector, Vector>> cases = {
      {crowd.g, wider}, {flipped, crowd.gamma}, {crowd.g, loose}};
  for (const auto& [g, gamma] : cases) {
    const QpResult cold = qp.solve(g, gamma);
    const QpResult warm = qp.solve(g, gamma, hint);
    ASSERT_TRUE(cold.converged);
    EXPECT_TRUE(warm.converged);
    expect_kkt(crowd.h, g, crowd.m, gamma, warm);
    std::vector<std::size_t> cold_rows = cold.active;
    std::vector<std::size_t> warm_rows = warm.active;
    std::sort(cold_rows.begin(), cold_rows.end());
    std::sort(warm_rows.begin(), warm_rows.end());
    EXPECT_EQ(warm_rows, cold_rows);
    for (std::size_t i = 0; i < cold.x.size(); ++i) EXPECT_NEAR(warm.x[i], cold.x[i], 1e-9);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * std::max(1.0, std::abs(cold.objective)));
  }
}

TEST(InequalityQp, MalformedHintFallsBackToColdStart) {
  const CrowdQp crowd;
  const InequalityQp qp(crowd.h, crowd.m);
  const QpResult cold = qp.solve(crowd.g, crowd.gamma);
  // Out of range, repeated, and dependent (rows 0 and 12 share a normal).
  const std::vector<std::vector<std::size_t>> hints = {{99}, {12, 12}, {0, 12}};
  for (const std::vector<std::size_t>& hint : hints) {
    const QpResult r = qp.solve(crowd.g, crowd.gamma, hint);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, cold.iterations + 1);  // the rejected check, then cold
    EXPECT_EQ(r.x, cold.x);
  }
}

TEST(InequalityQp, ParallelRangeAndRateRowsActiveTogether) {
  // One input, control horizon 2: x = (dc0, dc1). Rows: range (+, -) for
  // move 0 (dc0) and move 1 (dc0 + dc1), then rate (+, -) for dc0 and dc1.
  // With c_prev - c_min equal to the release limit, row 1 (-dc0 <= 0.3)
  // and row 5 (-dc0 <= 0.3) are one constraint, and a large positive
  // gradient presses on it.
  const Matrix h{{2.0, 0.6}, {0.6, 1.0}};
  const Matrix m{{1, 0}, {-1, 0}, {1, 1}, {-1, -1}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  const Vector gamma = {3.0, 0.3, 3.0, 0.3, 0.5, 0.3, 0.5, 0.3};
  const Vector g = {8.0, 1.0};
  const QpResult r = InequalityQp(h, m).solve(g, gamma);
  ASSERT_TRUE(r.converged);
  expect_kkt(h, g, m, gamma, r);
  EXPECT_NEAR(r.x[0], -0.3, 1e-12);
  // Only one of the two parallel rows can be in the (independent) active set.
  const auto holds = [&](std::size_t row) {
    return std::find(r.active.begin(), r.active.end(), row) != r.active.end();
  };
  EXPECT_NE(holds(1), holds(5));

  // The same point as with the duplicate row removed.
  Matrix m_single(7, 2);
  Vector gamma_single;
  for (std::size_t row = 0, out = 0; row < 8; ++row) {
    if (row == 5) continue;
    m_single(out, 0) = m(row, 0);
    m_single(out, 1) = m(row, 1);
    gamma_single.push_back(gamma[row]);
    ++out;
  }
  const QpResult single = InequalityQp(h, m_single).solve(g, gamma_single);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_NEAR(r.x[i], single.x[i], 1e-12);
}

TEST(InequalityQp, InfeasibleRowsStopUnconvergedWithAFinitePoint) {
  // x <= -1 and -x <= -1 (x >= 1): no point satisfies both.
  const Matrix h = Matrix::identity(1);
  const Matrix m{{1.0}, {-1.0}};
  const QpResult r = InequalityQp(h, m).solve(Vector{0.0}, Vector{-1.0, -1.0});
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.iterations, m.rows());
  EXPECT_TRUE(std::isfinite(r.x[0]));
}

TEST(QpObjective, EvaluatesQuadratic) {
  const Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  const std::vector<double> g = {1.0, -1.0};
  const std::vector<double> x = {2.0, 3.0};
  // 1/2 x'Hx + g'x = (4 + 9) + (2 - 3) = 12.
  EXPECT_DOUBLE_EQ(qp_objective(h, g, x), 12.0);
}

}  // namespace
}  // namespace vdc::linalg
