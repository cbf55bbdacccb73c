#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace vdc::linalg {
namespace {

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b = {5.0, 10.0};
  const Vector x = lu_solve(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = lu_solve(a, std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition{a}, std::runtime_error);
}

TEST(Lu, NonSquareThrows) { EXPECT_THROW(LuDecomposition(Matrix(2, 3)), std::invalid_argument); }

TEST(Lu, DeterminantWithPermutationSign) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), -1.0, 1e-12);
  const Matrix b{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_NEAR(LuDecomposition(b).determinant(), 6.0, 1e-12);
}

class LuRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSweep, ResidualIsTiny) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 6;
  Matrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-5.0, 5.0);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += 4.0;
  }
  const Vector x = lu_solve(a, b);
  const Vector ax = a * std::span<const double>(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuRandomSweep, ::testing::Range(0, 12));

TEST(Lu, MatrixRhsSolve) {
  const Matrix a{{4.0, 1.0}, {1.0, 3.0}};
  const Matrix x = LuDecomposition(a).solve(Matrix::identity(2));
  EXPECT_LT((a * x - Matrix::identity(2)).max_abs(), 1e-12);
}

TEST(Lu, DimensionMismatchThrows) {
  const LuDecomposition lu(Matrix{{1.0, 0.0}, {0.0, 1.0}});
  EXPECT_THROW(lu.solve(std::vector<double>{1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace vdc::linalg
