#include "linalg/qp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/lu.hpp"

namespace vdc::linalg {

double qp_objective(const Matrix& h, std::span<const double> g, std::span<const double> x) {
  const Vector hx = h * x;
  return 0.5 * dot(x, hx) + dot(g, x);
}

QpResult solve_equality_qp(const Matrix& h, std::span<const double> g, const Matrix& a,
                           std::span<const double> b) {
  const std::size_t n = h.rows();
  if (!h.square() || g.size() != n) throw std::invalid_argument("equality_qp: bad dimensions");
  const std::size_t p = a.rows();
  if (p > 0 && a.cols() != n) throw std::invalid_argument("equality_qp: A width mismatch");
  if (b.size() != p) throw std::invalid_argument("equality_qp: b length mismatch");

  QpResult result;
  if (p == 0) {
    // Unconstrained: H x = -g.
    const CholeskyDecomposition chol(h);
    result.x = chol.solve(scale(g, -1.0));
  } else {
    Matrix kkt(n + p, n + p);
    kkt.set_block(0, 0, h);
    kkt.set_block(0, n, a.transpose());
    kkt.set_block(n, 0, a);
    Vector rhs(n + p, 0.0);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -g[i];
    for (std::size_t i = 0; i < p; ++i) rhs[n + i] = b[i];
    const Vector xl = lu_solve(std::move(kkt), rhs);
    result.x.assign(xl.begin(), xl.begin() + static_cast<std::ptrdiff_t>(n));
  }
  result.converged = true;
  result.iterations = 1;
  result.objective = qp_objective(h, g, result.x);
  return result;
}

namespace {

/// Validates the shapes of a general QP and factors A^T; empty when there
/// is no equality block.
std::optional<QrDecomposition> factor_equalities(const Matrix& h, const Matrix& a,
                                                 const Matrix& m) {
  const std::size_t n = h.rows();
  if (!h.square()) throw std::invalid_argument("general_qp: bad dimensions");
  if (m.rows() > 0 && m.cols() != n) throw std::invalid_argument("general_qp: M width mismatch");
  const std::size_t p = a.rows();
  if (p == 0) return std::nullopt;
  if (a.cols() != n) throw std::invalid_argument("general_qp: A/b dimensions");
  if (p >= n) throw std::invalid_argument("general_qp: too many equality constraints");
  QrDecomposition qr(a.transpose());
  if (qr.rank_deficient()) {
    throw std::runtime_error("general_qp: equality constraints are dependent");
  }
  return qr;
}

/// Null-space basis of A from the QR of A^T: the trailing n-p columns of Q.
Matrix null_space_basis(const QrDecomposition& qr) {
  const std::size_t n = qr.rows();
  const std::size_t p = qr.cols();
  const Matrix q_full = qr.q_full();
  Matrix z(n, n - p);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n - p; ++c) z(r, c) = q_full(r, p + c);
  }
  return z;
}

}  // namespace

InequalityQp::InequalityQp(const Matrix& h, const Matrix& m)
    : h_(h), m_(m), chol_(h), hinv_mt_(h.rows(), m.rows()) {
  const std::size_t n = h_.rows();
  const std::size_t q = m_.rows();
  if (q > 0 && m_.cols() != n) throw std::invalid_argument("inequality_qp: M width mismatch");
  if (q == 0) return;

  // Dual problem matrices: P = M H^-1 M^T, and per solve k = gamma - M x0
  // (the dual is min_{lambda>=0} 1/2 lambda'P lambda + k'lambda, solved
  // coordinate-wise; Hildreth's procedure).
  Vector col(n);
  for (std::size_t c = 0; c < q; ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = m_(c, r);
    const Vector sol = chol_.solve(col);
    for (std::size_t r = 0; r < n; ++r) hinv_mt_(r, c) = sol[r];
  }
  p_ = m_ * hinv_mt_;
}

QpResult InequalityQp::solve(std::span<const double> g, std::span<const double> gamma,
                             std::size_t max_iterations, double tolerance) const {
  const std::size_t n = h_.rows();
  const std::size_t q = m_.rows();
  if (g.size() != n) throw std::invalid_argument("inequality_qp: bad dims");
  if (gamma.size() != q) throw std::invalid_argument("inequality_qp: gamma length mismatch");

  QpResult result;
  result.x = chol_.solve(scale(g, -1.0));  // unconstrained minimizer x0
  result.converged = true;
  if (q == 0) {
    result.objective = qp_objective(h_, g, result.x);
    return result;
  }

  // Check whether the unconstrained minimizer is already feasible.
  const Vector mx0 = m_ * std::span<const double>(result.x);
  bool feasible = true;
  for (std::size_t i = 0; i < q; ++i) {
    if (mx0[i] > gamma[i] + tolerance) {
      feasible = false;
      break;
    }
  }
  if (feasible) {
    result.objective = qp_objective(h_, g, result.x);
    return result;
  }

  Vector k(q);
  for (std::size_t i = 0; i < q; ++i) k[i] = gamma[i] - mx0[i];

  // Hildreth sweeps. `support` lists the rows with lambda > 0 in ascending
  // order; lambda is never -0 (std::max returns the literal 0.0), so the
  // rows left out would only add a signed zero to s.
  const std::span<const double> p = p_.data();
  Vector lambda(q, 0.0);
  std::vector<std::size_t> support;
  support.reserve(q);
  std::size_t iter = 0;
  bool converged = false;
  for (; iter < max_iterations; ++iter) {
    double max_change = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      const std::span<const double> row = p.subspan(i * q, q);
      const double pii = row[i];
      if (pii <= 1e-14) continue;  // degenerate row: constraint parallel to others
      double s = k[i];
      for (const std::size_t j : support) {
        if (j != i) s += row[j] * lambda[j];
      }
      const double updated = std::max(0.0, -s / pii);
      max_change = std::max(max_change, std::abs(updated - lambda[i]));
      const bool was_active = lambda[i] > 0.0;
      if ((updated > 0.0) != was_active) {
        const auto at = std::lower_bound(support.begin(), support.end(), i);
        if (was_active) {
          support.erase(at);
        } else {
          support.insert(at, i);
        }
      }
      lambda[i] = updated;
    }
    if (max_change < tolerance) {
      converged = true;
      ++iter;
      break;
    }
  }

  // Recover the primal point: x = x0 - H^-1 M^T lambda.
  const std::span<const double> hinv_mt = hinv_mt_.data();
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const double> row = hinv_mt.subspan(r * q, q);
    double s = 0.0;
    for (const std::size_t c : support) s += row[c] * lambda[c];
    result.x[r] -= s;
  }

  result.converged = converged;
  result.iterations = iter;
  result.objective = qp_objective(h_, g, result.x);
  return result;
}

GeneralQp::GeneralQp(const Matrix& h, const Matrix& a, const Matrix& m)
    : h_(h),
      m_(m),
      qr_(factor_equalities(h, a, m)),
      r_(qr_ ? qr_->r() : Matrix()),
      z_(qr_ ? null_space_basis(*qr_) : Matrix()),
      zt_(z_.transpose()),
      // Reduced problem in z: 1/2 z' (Z'HZ) z + (Z'(g + H x_p))' z,
      // subject to (M Z) z <= gamma - M x_p.
      reduced_(qr_ ? zt_ * h_ * z_ : h_, qr_ && m_.rows() > 0 ? m_ * z_ : m_) {}

QpResult GeneralQp::solve(std::span<const double> g, std::span<const double> b,
                          std::span<const double> gamma, std::size_t max_iterations) const {
  const std::size_t n = h_.rows();
  if (g.size() != n) throw std::invalid_argument("general_qp: bad dimensions");
  if (gamma.size() != m_.rows()) {
    throw std::invalid_argument("general_qp: gamma length mismatch");
  }
  if (!qr_) return reduced_.solve(g, gamma, max_iterations);
  const std::size_t p = r_.rows();
  if (b.size() != p) throw std::invalid_argument("general_qp: A/b dimensions");

  // Particular solution: A x_p = b with x_p = Q [R^-T b; 0].
  Vector y(n, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= r_(j, i) * y[j];  // R^T forward substitution
    y[i] = s / r_(i, i);
  }
  const Vector x_particular = qr_->q_apply(y);

  const Vector hxp = h_ * std::span<const double>(x_particular);
  const Vector tmp = add(g, hxp);
  const Vector gz = zt_ * std::span<const double>(tmp);
  Vector gamma_z;
  if (m_.rows() > 0) {
    const Vector mxp = m_ * std::span<const double>(x_particular);
    gamma_z = sub(gamma, mxp);
  }
  const QpResult reduced = reduced_.solve(gz, gamma_z, max_iterations);

  QpResult result;
  result.converged = reduced.converged;
  result.iterations = reduced.iterations;
  const Vector zx = z_ * std::span<const double>(reduced.x);
  result.x = add(x_particular, zx);
  result.objective = qp_objective(h_, g, result.x);
  return result;
}

QpResult solve_inequality_qp(const Matrix& h, std::span<const double> g, const Matrix& m,
                             std::span<const double> gamma, std::size_t max_iterations,
                             double tolerance) {
  return InequalityQp(h, m).solve(g, gamma, max_iterations, tolerance);
}

QpResult solve_general_qp(const Matrix& h, std::span<const double> g, const Matrix& a,
                          std::span<const double> b, const Matrix& m,
                          std::span<const double> gamma, std::size_t max_iterations) {
  return GeneralQp(h, a, m).solve(g, b, gamma, max_iterations);
}

QpResult solve_box_qp(const Matrix& h, std::span<const double> g, std::span<const double> lo,
                      std::span<const double> hi, const Matrix& a, std::span<const double> b,
                      std::size_t max_iterations) {
  const std::size_t n = h.rows();
  if (lo.size() != n || hi.size() != n) throw std::invalid_argument("box_qp: bound sizes");
  for (std::size_t i = 0; i < n; ++i) {
    if (lo[i] > hi[i]) throw std::invalid_argument("box_qp: lo > hi");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Assemble finite box bounds as inequality rows M x <= gamma.
  std::vector<std::pair<double, std::size_t>> rows;  // (sign, coordinate)
  for (std::size_t i = 0; i < n; ++i) {
    if (hi[i] < kInf) rows.emplace_back(+1.0, i);
    if (lo[i] > -kInf) rows.emplace_back(-1.0, i);
  }
  Matrix m(rows.size(), n);
  Vector gamma(rows.size(), 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto [sign, i] = rows[r];
    m(r, i) = sign;
    gamma[r] = sign > 0 ? hi[i] : -lo[i];
  }

  QpResult result = solve_general_qp(h, g, a, b, m, gamma, max_iterations);
  // Guard against small dual-iteration overshoot: project onto the box.
  // (With equality constraints present this projection can perturb A x = b
  // by at most the same overshoot; the MPC treats that as model error.)
  for (std::size_t i = 0; i < n; ++i) result.x[i] = std::clamp(result.x[i], lo[i], hi[i]);
  result.objective = qp_objective(h, g, result.x);
  return result;
}

}  // namespace vdc::linalg
