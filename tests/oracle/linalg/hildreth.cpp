#include "linalg/hildreth.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"

namespace vdc::linalg::oracle {

QpResult hildreth_qp(const Matrix& h, std::span<const double> g, const Matrix& m,
                     std::span<const double> gamma, std::size_t max_iterations,
                     double tolerance) {
  const std::size_t n = h.rows();
  const std::size_t q = m.rows();
  const CholeskyDecomposition chol(h);
  const Vector x0 = chol.solve(scale(g, -1.0));

  QpResult result;
  result.x = x0;
  result.converged = true;
  if (q == 0) {
    result.objective = qp_objective(h, g, result.x);
    return result;
  }
  const Vector mx0 = m * x0;
  bool feasible = true;
  for (std::size_t i = 0; i < q; ++i) {
    if (mx0[i] > gamma[i] + tolerance) {
      feasible = false;
      break;
    }
  }
  if (feasible) {
    result.objective = qp_objective(h, g, result.x);
    return result;
  }

  Matrix hinv_mt(n, q);
  {
    Vector col(n);
    for (std::size_t c = 0; c < q; ++c) {
      for (std::size_t r = 0; r < n; ++r) col[r] = m(c, r);
      const Vector sol = chol.solve(col);
      for (std::size_t r = 0; r < n; ++r) hinv_mt(r, c) = sol[r];
    }
  }
  const Matrix p = m * hinv_mt;
  Vector k(q);
  for (std::size_t i = 0; i < q; ++i) k[i] = gamma[i] - mx0[i];

  Vector lambda(q, 0.0);
  std::size_t iter = 0;
  bool converged = false;
  for (; iter < max_iterations; ++iter) {
    double max_change = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      const double pii = p(i, i);
      if (pii <= 1e-14) continue;
      double s = k[i];
      for (std::size_t j = 0; j < q; ++j) {
        if (j != i) s += p(i, j) * lambda[j];
      }
      const double updated = std::max(0.0, -s / pii);
      max_change = std::max(max_change, std::abs(updated - lambda[i]));
      lambda[i] = updated;
    }
    if (max_change < tolerance) {
      converged = true;
      ++iter;
      break;
    }
  }

  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < q; ++c) s += hinv_mt(r, c) * lambda[c];
    result.x[r] -= s;
  }
  for (std::size_t c = 0; c < q; ++c) {
    if (lambda[c] > 0.0) {
      result.active.push_back(c);
      result.multipliers.push_back(lambda[c]);
    }
  }
  result.converged = converged;
  result.iterations = iter;
  result.objective = qp_objective(h, g, result.x);
  return result;
}

QpResult hildreth_general_qp(const Matrix& h, std::span<const double> g, const Matrix& a,
                             std::span<const double> b, const Matrix& m,
                             std::span<const double> gamma, std::size_t max_iterations,
                             double tolerance) {
  const std::size_t n = h.rows();
  const std::size_t p = a.rows();
  const std::size_t q = m.rows();
  if (p == 0) return hildreth_qp(h, g, m, gamma, max_iterations, tolerance);

  const QrDecomposition qr(a.transpose());
  const Matrix r = qr.r();
  Vector y1(p);
  for (std::size_t i = 0; i < p; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= r(j, i) * y1[j];
    y1[i] = s / r(i, i);
  }
  Vector y_full(n, 0.0);
  std::copy(y1.begin(), y1.end(), y_full.begin());
  const Vector x_particular = qr.q_apply(y_full);

  const Matrix q_full = qr.q_full();
  const std::size_t nz = n - p;
  Matrix z(n, nz);
  for (std::size_t rr = 0; rr < n; ++rr) {
    for (std::size_t c = 0; c < nz; ++c) z(rr, c) = q_full(rr, p + c);
  }
  const Matrix hz = z.transpose() * h * z;
  const Vector hxp = h * std::span<const double>(x_particular);
  const Vector tmp = add(g, hxp);
  const Vector gz = z.transpose() * std::span<const double>(tmp);
  Matrix mz;
  Vector gamma_z;
  if (q > 0) {
    mz = m * z;
    const Vector mxp = m * std::span<const double>(x_particular);
    gamma_z = sub(gamma, mxp);
  }
  QpResult result = hildreth_qp(hz, gz, mz, gamma_z, max_iterations, tolerance);
  const Vector zx = z * std::span<const double>(result.x);
  result.x = add(x_particular, zx);
  result.objective = qp_objective(h, g, result.x);
  return result;
}

KktResiduals kkt_residuals(const Matrix& h, std::span<const double> g, const Matrix& a,
                           std::span<const double> b, const Matrix& m,
                           std::span<const double> gamma, const QpResult& qp) {
  const std::size_t n = h.rows();
  KktResiduals out;
  // Residual of row r of `rows` against `rhs`, and its scale.
  const auto row_residual = [&](const Matrix& rows, std::span<const double> rhs, std::size_t r,
                                double& scale) {
    double value = 0.0;
    double magnitude = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      value += rows(r, c) * qp.x[c];
      magnitude += std::abs(rows(r, c) * qp.x[c]);
    }
    scale = std::max({1.0, std::abs(rhs[r]), magnitude});
    return value - rhs[r];
  };
  double scale = 1.0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double excess = row_residual(m, gamma, r, scale);
    out.primal = std::max(out.primal, excess / scale);
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double excess = row_residual(a, b, r, scale);
    out.primal = std::max(out.primal, std::abs(excess) / scale);
  }

  double largest = 1.0;
  for (const double lambda : qp.multipliers) largest = std::max(largest, std::abs(lambda));
  Vector mt_lambda(n, 0.0);
  for (std::size_t j = 0; j < qp.active.size(); ++j) {
    const std::size_t r = qp.active[j];
    const double lambda = qp.multipliers[j];
    out.dual = std::max(out.dual, -lambda / largest);
    if (lambda > 0.0) {
      const double excess = row_residual(m, gamma, r, scale);
      out.complementarity = std::max(out.complementarity, std::abs(excess) / scale);
    }
    for (std::size_t c = 0; c < n; ++c) mt_lambda[c] += m(r, c) * lambda;
  }

  const Vector hx = h * std::span<const double>(qp.x);
  Vector v(n);
  for (std::size_t c = 0; c < n; ++c) v[c] = hx[c] + g[c] + mt_lambda[c];
  if (a.rows() > 0) {
    // Remove the component in range(A'): v - Q1 Q1' v with A' = Q1 R.
    const QrDecomposition qr(a.transpose());
    Vector coeff = qr.qt_apply(v);
    std::fill(coeff.begin() + static_cast<std::ptrdiff_t>(a.rows()), coeff.end(), 0.0);
    const Vector in_range = qr.q_apply(coeff);
    for (std::size_t c = 0; c < n; ++c) v[c] -= in_range[c];
  }
  const auto inf_norm = [](std::span<const double> u) {
    double out_norm = 0.0;
    for (const double e : u) out_norm = std::max(out_norm, std::abs(e));
    return out_norm;
  };
  out.stationarity = inf_norm(v) / std::max({1.0, inf_norm(g), inf_norm(hx), inf_norm(mt_lambda)});
  return out;
}

}  // namespace vdc::linalg::oracle
