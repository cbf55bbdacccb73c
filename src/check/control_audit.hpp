// Controller auditors: the MPC's QP solution must satisfy the KKT
// conditions the solver claims. It is primal-feasible (M x <= gamma, the
// actuator-range and rate-limit rows of Section IV) to a tight tolerance
// relative to each row's scale, its multipliers are nonnegative, every row
// with a positive multiplier is tight (complementarity), and the point is
// no worse than the zero-move plan, which is always feasible for the MPC's
// constraint set because the previous allocation already sits inside
// [c_min, c_max]. The applied allocation itself must land inside the
// actuator box (equation 3's c_min <= c <= c_max).
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "check/check.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qp.hpp"

namespace vdc::control::audit {

/// Relative KKT tolerance. The active-set solver stops at a slack of
/// -1e-9 * max(1, |gamma_i|) and holds its active rows tight to rounding,
/// so a residual ten times that bound means a wrong solution.
inline constexpr double kQpTol = 1e-8;

/// Audits a converged QP solution. `equality_constrained` skips the
/// zero-move optimality bound (with an eliminated equality block the zero
/// move is generally infeasible, so the bound does not apply).
inline void qp_solution(const linalg::Matrix& hessian, std::span<const double> gradient,
                        const linalg::Matrix& m_ineq, std::span<const double> gamma,
                        const linalg::QpResult& qp, bool equality_constrained) {
#if VDC_CHECKS_ENABLED
  if (!qp.converged) return;  // fallback paths are surfaced via diagnostics
  VDC_INVARIANT(qp.x.size() == gradient.size(),
                "QP solution width " << qp.x.size() << " != gradient width " << gradient.size());
  for (const double v : qp.x) {
    VDC_INVARIANT(std::isfinite(v), "QP solution contains a non-finite entry");
  }
  VDC_INVARIANT(qp.multipliers.size() == qp.active.size(),
                qp.active.size() << " active rows but " << qp.multipliers.size()
                                 << " multipliers");
  // Slack of each row, and the scale its residual is judged against:
  // max(1, |gamma_r|, sum_c |m_rc x_c|).
  const auto slack = [&](std::size_t r, double& scale) {
    double row = 0.0;
    double magnitude = 0.0;
    for (std::size_t c = 0; c < m_ineq.cols(); ++c) {
      const double term = m_ineq(r, c) * qp.x[c];
      row += term;
      magnitude += std::abs(term);
    }
    scale = std::max({1.0, std::abs(gamma[r]), magnitude});
    return gamma[r] - row;
  };
  for (std::size_t r = 0; r < m_ineq.rows(); ++r) {
    double scale = 1.0;
    const double s = slack(r, scale);
    VDC_INVARIANT(s >= -kQpTol * scale,
                  "QP primal residual " << -s << " on row " << r << " exceeds " << kQpTol
                                        << " x " << scale);
  }
  // Each active row may sit kQpTol * scale off its bound, which moves J by
  // its multiplier times that much.
  double priced_slack = 0.0;
  for (std::size_t j = 0; j < qp.active.size(); ++j) {
    const std::size_t r = qp.active[j];
    VDC_INVARIANT(r < m_ineq.rows(), "QP active row " << r << " out of range");
    VDC_INVARIANT(qp.multipliers[j] >= 0.0,
                  "QP multiplier " << qp.multipliers[j] << " of row " << r << " is negative");
    double scale = 1.0;
    const double s = slack(r, scale);
    VDC_INVARIANT(check::is_exactly_zero(qp.multipliers[j]) || s <= kQpTol * scale,
                  "QP row " << r << " has multiplier " << qp.multipliers[j]
                            << " but slack " << s);
    priced_slack += qp.multipliers[j] * scale;
  }
  if (!equality_constrained) {
    // J(0) = 0, so J at the optimum is <= 0 up to rounding of its two terms
    // and the priced slack of the active rows.
    const linalg::Vector hx = hessian * std::span<const double>(qp.x);
    const double quadratic = 0.5 * linalg::dot(qp.x, hx);
    const double linear = linalg::dot(gradient, qp.x);
    const double bound = kQpTol * (std::abs(quadratic) + std::abs(linear) + priced_slack);
    VDC_INVARIANT(quadratic + linear <= bound,
                  "QP solution worse than the feasible zero move: J = " << quadratic + linear
                                                                        << " > " << bound);
  }
#else
  static_cast<void>(hessian);
  static_cast<void>(gradient);
  static_cast<void>(m_ineq);
  static_cast<void>(gamma);
  static_cast<void>(qp);
  static_cast<void>(equality_constrained);
#endif
}

/// The applied per-VM allocation stays inside the actuator box.
inline void allocation_bounds(std::span<const double> allocation_ghz,
                              std::span<const double> c_min, std::span<const double> c_max) {
  VDC_INVARIANT(allocation_ghz.size() == c_min.size() && allocation_ghz.size() == c_max.size(),
                "allocation width mismatch");
  for (std::size_t m = 0; m < allocation_ghz.size(); ++m) {
    VDC_INVARIANT(allocation_ghz[m] >= c_min[m] - 1e-12 &&
                      allocation_ghz[m] <= c_max[m] + 1e-12,
                  "allocation " << allocation_ghz[m] << " GHz outside [" << c_min[m] << ", "
                                << c_max[m] << "] for input " << m);
  }
}

}  // namespace vdc::control::audit
