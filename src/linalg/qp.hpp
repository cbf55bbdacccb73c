// Convex quadratic programming for the MPC controller:
//
//   minimize   (1/2) x^T H x + g^T x
//   subject to A x = b          (terminal constraint)
//              lo <= x <= hi    (actuator range)
//
// Equality constraints are eliminated with a QR null-space method; the
// remaining box-constrained problem is solved with Hildreth's dual
// coordinate-ascent procedure, a classic choice for embedded MPC.
#pragma once

#include <limits>
#include <optional>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

namespace vdc::linalg {

struct QpResult {
  Vector x;
  bool converged = false;
  std::size_t iterations = 0;
  /// Objective value (1/2 x'Hx + g'x) at the returned point.
  double objective = 0.0;
};

/// Solves the purely equality-constrained QP via the KKT system
///   [H A^T; A 0] [x; lambda] = [-g; b].
/// Pass an empty `a` (0 rows) for an unconstrained minimization.
/// H must be positive definite on the null space of A.
[[nodiscard]] QpResult solve_equality_qp(const Matrix& h, std::span<const double> g,
                                         const Matrix& a, std::span<const double> b);

/// Hildreth's procedure for  min 1/2 x'Hx + g'x  s.t.  M x <= gamma,
/// prepared once for a fixed (H, M). The constructor factors H and caches
/// H^-1 M^T and the dual matrix P = M H^-1 M^T; solve() then does only the
/// work that depends on g and gamma. H must be positive definite (the
/// constructor throws otherwise). Converges monotonically for convex QPs;
/// `converged` is false when the iteration cap was reached (the returned
/// point is still primal-feasible up to the active-constraint residual).
///
/// The dual sweep sums over the multipliers that are currently nonzero,
/// in ascending index order. A zero multiplier only adds a signed zero to
/// the running sum, which leaves every iterate unchanged, so the result is
/// bit-identical to the dense sweep over all rows.
class InequalityQp {
 public:
  InequalityQp(const Matrix& h, const Matrix& m);

  [[nodiscard]] QpResult solve(std::span<const double> g, std::span<const double> gamma,
                               std::size_t max_iterations = 2000,
                               double tolerance = 1e-9) const;

 private:
  Matrix h_;
  Matrix m_;
  CholeskyDecomposition chol_;
  Matrix hinv_mt_;  // n x q: H^-1 M^T
  Matrix p_;        // q x q: M H^-1 M^T, PSD
};

/// General convex QP  min 1/2 x'Hx + g'x  s.t.  A x = b,  M x <= gamma,
/// prepared once for a fixed (H, A, M). The equality block is eliminated
/// with a QR null-space method (x = x_p + Z z with A Z = 0); the reduced
/// problem in z is an InequalityQp on (Z'HZ, MZ). Per solve only x_p,
/// Z'(g + H x_p) and gamma - M x_p are computed. Pass empty matrices for
/// absent constraint blocks. Throws when A has more rows than H has
/// columns, when its rows are dependent, or when the (reduced) Hessian is
/// not positive definite.
class GeneralQp {
 public:
  GeneralQp(const Matrix& h, const Matrix& a, const Matrix& m);

  [[nodiscard]] QpResult solve(std::span<const double> g, std::span<const double> b,
                               std::span<const double> gamma,
                               std::size_t max_iterations = 2000) const;

 private:
  Matrix h_;
  Matrix m_;
  std::optional<QrDecomposition> qr_;  // QR of A^T; empty without equalities
  Matrix r_;                           // p x p triangular factor of A^T
  Matrix z_;                           // n x (n-p) null-space basis of A
  Matrix zt_;                          // Z^T
  InequalityQp reduced_;               // on (Z'HZ, MZ), or (H, M) without equalities
};

/// One-shot form of InequalityQp.
[[nodiscard]] QpResult solve_inequality_qp(const Matrix& h, std::span<const double> g,
                                           const Matrix& m, std::span<const double> gamma,
                                           std::size_t max_iterations = 2000,
                                           double tolerance = 1e-9);

/// One-shot form of GeneralQp.
[[nodiscard]] QpResult solve_general_qp(const Matrix& h, std::span<const double> g,
                                        const Matrix& a, std::span<const double> b,
                                        const Matrix& m, std::span<const double> gamma,
                                        std::size_t max_iterations = 2000);

/// Full MPC problem: box bounds plus optional equality constraints.
/// Use +/-infinity in hi/lo for unbounded coordinates.
[[nodiscard]] QpResult solve_box_qp(const Matrix& h, std::span<const double> g,
                                    std::span<const double> lo, std::span<const double> hi,
                                    const Matrix& a = Matrix(), std::span<const double> b = {},
                                    std::size_t max_iterations = 2000);

/// Evaluates (1/2) x^T H x + g^T x.
[[nodiscard]] double qp_objective(const Matrix& h, std::span<const double> g,
                                  std::span<const double> x);

}  // namespace vdc::linalg
