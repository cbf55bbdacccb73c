// Cholesky factorization for the symmetric positive-definite Hessians that
// arise in the MPC quadratic program.
#pragma once

#include "linalg/matrix.hpp"

namespace vdc::linalg {

/// Factors A = L * L^T for symmetric positive-definite A.
/// Throws std::runtime_error if A is not (numerically) SPD.
class CholeskyDecomposition {
 public:
  explicit CholeskyDecomposition(const Matrix& a);

  [[nodiscard]] Vector solve(std::span<const double> b) const;
  /// The same, overwriting b with the solution.
  void solve_in_place(std::span<double> b) const;
  [[nodiscard]] const Matrix& lower() const noexcept { return l_; }
  [[nodiscard]] std::size_t size() const noexcept { return l_.rows(); }

 private:
  Matrix l_;
};

}  // namespace vdc::linalg
