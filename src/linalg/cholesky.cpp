#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

namespace vdc::linalg {

CholeskyDecomposition::CholeskyDecomposition(const Matrix& a) : l_(a.rows(), a.cols()) {
  if (!a.square()) throw std::invalid_argument("Cholesky: matrix must be square");
  const std::size_t n = a.rows();
  const double tol = 1e-13 * std::max(1.0, a.max_abs());
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    if (d <= tol) throw std::runtime_error("Cholesky: matrix is not positive definite");
    l_(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / l_(j, j);
    }
  }
}

Vector CholeskyDecomposition::solve(std::span<const double> b) const {
  Vector x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void CholeskyDecomposition::solve_in_place(std::span<double> b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n) throw std::invalid_argument("Cholesky::solve: dimension mismatch");
  const std::span<const double> l = l_.data();
  for (std::size_t i = 0; i < n; ++i) {  // L y = b
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= l[i * n + j] * b[j];
    b[i] = s / l[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {  // L' x = y
    double s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= l[j * n + ii] * b[j];
    b[ii] = s / l[ii * n + ii];
  }
}

}  // namespace vdc::linalg
