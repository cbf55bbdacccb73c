#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace vdc::linalg {
namespace {

Matrix random_spd(std::size_t n, util::Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = b.transpose() * b;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

TEST(Cholesky, FactorReconstructs) {
  util::Rng rng(1);
  const Matrix a = random_spd(5, rng);
  const CholeskyDecomposition chol(a);
  const Matrix l = chol.lower();
  EXPECT_LT((l * l.transpose() - a).max_abs(), 1e-10);
}

TEST(Cholesky, SolveMatchesKnownSolution) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const Vector x = CholeskyDecomposition(a).solve(std::vector<double>{8.0, 7.0});
  // Solution of [[4,2],[2,3]] x = [8,7] is x = [1.25, 1.5].
  EXPECT_NEAR(x[0], 1.25, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  EXPECT_THROW(CholeskyDecomposition{a}, std::runtime_error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(CholeskyDecomposition(Matrix(2, 3)), std::invalid_argument);
}

class CholeskyRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandomSweep, SolveResidualTiny) {
  util::Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam() % 7);
  const Matrix a = random_spd(n, rng);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-3.0, 3.0);
  const Vector x = CholeskyDecomposition(a).solve(b);
  const Vector ax = a * std::span<const double>(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyRandomSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace vdc::linalg
