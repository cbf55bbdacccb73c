// Hildreth's dual coordinate ascent, the QP solver the MPC used before the
// dual active-set method of linalg::InequalityQp, kept as the oracle for
// tests/test_qp_differential and tests/test_qp; and a KKT residual check
// that both solvers' results are judged by.
//
// For  min 1/2 x'Hx + g'x  s.t.  M x <= gamma  it factors H, forms the dual
// matrix P = M H^-1 M^T and sweeps every multiplier on every pass,
// lambda_i <- max(0, -(k_i + sum_{j != i} P_ij lambda_j) / P_ii) with
// k = gamma - M x0, until no multiplier moves by `tolerance` or
// `max_iterations` passes are spent. Rows with P_ii <= 1e-14 (zero rows)
// are skipped. It converges for every convex problem but slowly when P is
// ill-conditioned or singular, and it never detects infeasibility: it
// reports converged = false at the cap instead. The returned `active` lists
// the rows with lambda > 0 in ascending order, with their multipliers.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"
#include "linalg/qp.hpp"

namespace vdc::linalg::oracle {

inline constexpr std::size_t kHildrethCap = 2000;

[[nodiscard]] QpResult hildreth_qp(const Matrix& h, std::span<const double> g, const Matrix& m,
                                   std::span<const double> gamma,
                                   std::size_t max_iterations = kHildrethCap,
                                   double tolerance = 1e-9);

/// The same with an equality block A x = b, eliminated by the QR null-space
/// method as linalg::GeneralQp does; `active` indexes the rows of M.
[[nodiscard]] QpResult hildreth_general_qp(const Matrix& h, std::span<const double> g,
                                           const Matrix& a, std::span<const double> b,
                                           const Matrix& m, std::span<const double> gamma,
                                           std::size_t max_iterations = kHildrethCap,
                                           double tolerance = 1e-9);

/// Scale-relative KKT residuals of `qp` for  min 1/2 x'Hx + g'x  s.t.
/// A x = b, M x <= gamma, with qp.active/qp.multipliers as the inequality
/// multipliers. Each is 0 for an exact solution.
struct KktResiduals {
  /// max over rows of the violation (M x - gamma)_r, or |A x - b|_r, over
  /// max(1, |gamma_r|, sum_c |m_rc x_c|).
  double primal = 0.0;
  /// The most negative multiplier over max(1, max |lambda|), as a positive number.
  double dual = 0.0;
  /// max |slack_r| over the rows with a positive multiplier, relative as
  /// for `primal`.
  double complementarity = 0.0;
  /// |H x + g + M_A' lambda_A| with its component in range(A') removed,
  /// over max(1, |g|, |H x|, |M_A' lambda_A|) (infinity norms).
  double stationarity = 0.0;
};

[[nodiscard]] KktResiduals kkt_residuals(const Matrix& h, std::span<const double> g,
                                         const Matrix& a, std::span<const double> b,
                                         const Matrix& m, std::span<const double> gamma,
                                         const QpResult& qp);

}  // namespace vdc::linalg::oracle
