// LU factorization with partial pivoting: the general-purpose linear solver
// behind the MPC KKT systems and closed-loop analysis.
#pragma once

#include "linalg/matrix.hpp"

namespace vdc::linalg {

/// Factors P*A = L*U. Throws std::runtime_error on (numerically) singular A.
class LuDecomposition {
 public:
  explicit LuDecomposition(Matrix a);

  /// Solves A x = b.
  [[nodiscard]] Vector solve(std::span<const double> b) const;
  /// Solves A X = B column-by-column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;
  [[nodiscard]] double determinant() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

 private:
  Matrix lu_;                      // packed L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int sign_ = 1;                   // permutation parity for determinant
};

/// One-shot convenience: solve A x = b.
[[nodiscard]] Vector lu_solve(Matrix a, std::span<const double> b);

}  // namespace vdc::linalg
