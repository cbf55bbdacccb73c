// Convex quadratic programming for the MPC controller:
//
//   minimize   (1/2) x^T H x + g^T x
//   subject to A x = b          (terminal constraint)
//              M x <= gamma     (actuator range and rate rows)
//
// Equality constraints are eliminated with a QR null-space method. The
// remaining inequality-constrained problem is solved exactly with the dual
// active-set method of Goldfarb and Idnani (1983). It starts at the
// unconstrained minimizer, adds the most violated row, and raises that
// row's multiplier until the row is tight, dropping any active row whose
// multiplier reaches zero on the way; it stops when no row is violated.
// Every step works on the Cholesky factor of P_AA = M_A H^-1 M_A^T over the
// active rows A, which number at most n (the rows must stay independent).
// A caller that solves a sequence of related problems passes the previous
// active set back in: when it is still optimal, one KKT solve ends the
// problem, and otherwise the method continues from it or starts cold.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

namespace vdc::linalg {

struct QpResult {
  Vector x;
  /// False when the inequality rows admit no point (x is then the last
  /// dual iterate: finite, but violating some row) or the step cap was hit.
  bool converged = false;
  /// Active-set steps: one per row added or dropped, plus one for checking
  /// a warm-start hint. Zero when the unconstrained minimizer is feasible.
  std::size_t iterations = 0;
  /// Objective value (1/2 x'Hx + g'x) at the returned point.
  double objective = 0.0;
  /// Rows of M held tight at x, in the order the solver factored them, and
  /// their multipliers (each >= 0). Pass `active` to the next solve of a
  /// related problem as its warm start.
  std::vector<std::size_t> active;
  Vector multipliers;
};

/// Solves the purely equality-constrained QP via the KKT system
///   [H A^T; A 0] [x; lambda] = [-g; b].
/// Pass an empty `a` (0 rows) for an unconstrained minimization.
/// H must be positive definite on the null space of A.
[[nodiscard]] QpResult solve_equality_qp(const Matrix& h, std::span<const double> g,
                                         const Matrix& a, std::span<const double> b);

/// min 1/2 x'Hx + g'x  s.t.  M x <= gamma, prepared once for a fixed
/// (H, M). The constructor factors H and caches H^-1 M^T and the dual matrix
/// P = M H^-1 M^T; solve() then does only the work that depends on g and
/// gamma. H must be positive definite (the constructor throws otherwise).
///
/// solve() returns the unconstrained minimizer x0 = -H^-1 g unchanged when
/// it violates no row by more than 1e-9. Otherwise it tries `warm` (rows of
/// M, usually the previous result's `active`) with one KKT solve, accepts it
/// when its multipliers are nonnegative and the point is feasible, continues
/// the dual active-set method from it when only the first holds, and starts
/// from the empty set when neither does. Rows may be dependent or repeated;
/// a row dependent on the active set is handled by dropping active rows.
class InequalityQp {
 public:
  InequalityQp(const Matrix& h, const Matrix& m);

  [[nodiscard]] QpResult solve(std::span<const double> g, std::span<const double> gamma,
                               std::span<const std::size_t> warm = {}) const;
  /// solve() into a caller-kept `result`, with the per-solve scratch in
  /// `work`: once both have grown to the problem's size, a solve allocates
  /// nothing. Every field of `result` is overwritten, bit for bit as
  /// solve() would set it. `warm` must not alias `result.active`.
  void solve_into(std::span<const double> g, std::span<const double> gamma,
                  std::span<const std::size_t> warm, QpResult& result, Vector& work) const;

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
/// problem in z is an InequalityQp on (Z'HZ, MZ), whose rows are the rows
/// of M, so `warm` and the result's `active` index M. Per solve only x_p,
/// Z'(g + H x_p) and gamma - M x_p are computed. Pass empty matrices for
/// absent constraint blocks. Throws when A has more rows than H has
/// columns, when its rows are dependent, or when the (reduced) Hessian is
/// not positive definite.
class GeneralQp {
 public:
  GeneralQp(const Matrix& h, const Matrix& a, const Matrix& m);

  [[nodiscard]] QpResult solve(std::span<const double> g, std::span<const double> b,
                               std::span<const double> gamma,
                               std::span<const std::size_t> warm = {}) const;
  /// solve() into caller-kept buffers; see InequalityQp::solve_into. Without
  /// equality rows it allocates nothing once the buffers have grown.
  void solve_into(std::span<const double> g, std::span<const double> b,
                  std::span<const double> gamma, std::span<const std::size_t> warm,
                  QpResult& result, Vector& work) const;

 private:
  Matrix h_;
  Matrix m_;
  std::optional<QrDecomposition> qr_;  // QR of A^T; empty without equalities
  Matrix r_;                           // p x p triangular factor of A^T
  Matrix z_;                           // n x (n-p) null-space basis of A
  Matrix zt_;                          // Z^T
  InequalityQp reduced_;               // on (Z'HZ, MZ), or (H, M) without equalities
};

/// Full MPC problem: box bounds plus optional equality constraints.
/// Use +/-infinity in hi/lo for unbounded coordinates.
[[nodiscard]] QpResult solve_box_qp(const Matrix& h, std::span<const double> g,
                                    std::span<const double> lo, std::span<const double> hi,
                                    const Matrix& a = Matrix(), std::span<const double> b = {});

/// Evaluates (1/2) x^T H x + g^T x.
[[nodiscard]] double qp_objective(const Matrix& h, std::span<const double> g,
                                  std::span<const double> x);

}  // namespace vdc::linalg
