#include "linalg/lu.hpp"

#include <cmath>
#include <stdexcept>

namespace vdc::linalg {

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  if (!lu_.square()) throw std::invalid_argument("LU: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  const double tol = 1e-13 * std::max(1.0, lu_.max_abs());
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest |entry| in column k to the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best <= tol) throw std::runtime_error("LU: matrix is singular to working precision");
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot, c));
      std::swap(perm_[k], perm_[pivot]);
      sign_ = -sign_;
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) / lu_(k, k);
      lu_(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

Vector LuDecomposition::solve(std::span<const double> b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU::solve: dimension mismatch");
  Vector x(n);
  // Forward substitution with the permuted right-hand side (L has unit diag).
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
    x[i] = s;
  }
  // Back substitution on U.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= lu_(ii, j) * x[j];
    x[ii] = s / lu_(ii, ii);
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n) throw std::invalid_argument("LU::solve: dimension mismatch");
  Matrix x(n, b.cols());
  Vector col(n);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
    const Vector xc = solve(col);
    for (std::size_t r = 0; r < n; ++r) x(r, c) = xc[r];
  }
  return x;
}

double LuDecomposition::determinant() const noexcept {
  double det = static_cast<double>(sign_);
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

Vector lu_solve(Matrix a, std::span<const double> b) {
  return LuDecomposition(std::move(a)).solve(b);
}

}  // namespace vdc::linalg
