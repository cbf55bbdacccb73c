#include "linalg/qp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/lu.hpp"

namespace vdc::linalg {

double qp_objective(const Matrix& h, std::span<const double> g, std::span<const double> x) {
  const std::size_t n = x.size();
  if (h.rows() != n || h.cols() != n || g.size() != n) {
    throw std::invalid_argument("qp_objective: dimension mismatch");
  }
  const std::span<const double> hd = h.data();
  double quadratic = 0.0;
  double linear = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double hx = 0.0;
    for (std::size_t c = 0; c < n; ++c) hx += hd[r * n + c] * x[c];
    quadratic += x[r] * hx;
  }
  for (std::size_t r = 0; r < n; ++r) linear += g[r] * x[r];
  return 0.5 * quadratic + linear;
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

  // Dual problem matrices: P = M H^-1 M^T, and per solve k = gamma - M x0.
  // The dual is min_{lambda>=0} 1/2 lambda'P lambda + k'lambda, and the
  // slack of row i at x = x0 - H^-1 M^T lambda is (k + P lambda)_i.
  Vector col(n);
  for (std::size_t c = 0; c < q; ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = m_(c, r);
    const Vector sol = chol_.solve(col);
    for (std::size_t r = 0; r < n; ++r) hinv_mt_(r, c) = sol[r];
  }
  // P is symmetric; averaging it with its transpose makes it so bit for bit,
  // so no result depends on whether a step reads P_ij or P_ji.
  p_ = m_ * hinv_mt_;
  for (std::size_t r = 0; r < q; ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      const double mean = 0.5 * (p_(r, c) + p_(c, r));
      p_(r, c) = mean;
      p_(c, r) = mean;
    }
  }
}

namespace {

/// A row whose pivot in the factor of P_AA falls to this fraction of its
/// diagonal entry P_ii or below depends on the rows before it (the range
/// row and the rate row of the MPC's first move share one normal).
constexpr double kDependentPivot = 1e-12;
/// Row i is violated when its slack is below -kFeasibilityTol * max(1, |gamma_i|).
constexpr double kFeasibilityTol = 1e-9;
/// A warm-start multiplier above -kDualTol * max(1, max |lambda|) counts as
/// nonnegative (it is rounding of a zero) and is clamped to zero.
constexpr double kDualTol = 1e-12;
/// The method is finite in exact arithmetic and needs a few steps per
/// active row; this cap per row of M only stops rounding from cycling.
constexpr std::size_t kStepsPerRow = 4;

/// The active rows A in factor order and the factor L D L' = P_AA of the
/// dual matrix over them (L unit lower triangular, D diagonal; no square
/// roots, so with one active row its multiplier is -k_i / P_ii exactly). A
/// has at most n rows, so removing one simply refactors the rows after it.
class ActiveSet {
 public:
  /// `rows` receives A; `storage` holds n * n + 2 n doubles for L, D and a
  /// scratch row.
  ActiveSet(std::span<const double> p, std::size_t q, std::size_t n,
            std::vector<std::size_t>& rows, std::span<double> storage)
      : p_(p),
        q_(q),
        n_(n),
        rows_(rows),
        l_(storage.first(n * n)),
        d_(storage.subspan(n * n, n)),
        u_(storage.subspan(n * n + n, n)) {
    rows_.clear();
    rows_.reserve(n);
  }

  [[nodiscard]] const std::vector<std::size_t>& rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool contains(std::size_t row) const {
    return std::find(rows_.begin(), rows_.end(), row) != rows_.end();
  }

  /// Replaces A by `rows`, in that order; false (and A empty) when a row is
  /// out of range, repeated, or dependent on the rows before it.
  bool assign(std::span<const std::size_t> rows) {
    rows_.clear();
    if (rows.size() > n_) return false;
    for (const std::size_t row : rows) {
      if (row >= q_ || contains(row)) {
        rows_.clear();
        return false;
      }
      rows_.push_back(row);
    }
    if (factor(0)) return true;
    rows_.clear();
    return false;
  }

  void clear() noexcept { rows_.clear(); }

  /// u <- L^-1 P_{A,row}. Returns the pivot P_rr - sum_j u_j^2 / D_j that
  /// `row` would get as the next row of the factor.
  double project(std::size_t row, std::span<double> u) const {
    return project(row, rows_.size(), u);
  }

  /// Appends `row` with the u and pivot that project() returned for it.
  void append(std::size_t row, std::span<const double> u, double pivot) {
    const std::size_t j = rows_.size();
    for (std::size_t k = 0; k < j; ++k) l_[j * n_ + k] = u[k] / d_[k];
    d_[j] = pivot;
    rows_.push_back(row);
  }

  /// Removes the row at `index` of A. Each later row loses a predecessor,
  /// which can only raise its pivot, so the factor stays valid.
  void erase(std::size_t index) {
    rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(index));
    factor(index);
  }

  /// v <- D^-1 v, then v <- L^-T v: with v = L^-1 b on entry, P_AA^-1 b.
  void finish_solve(std::span<double> v) const {
    const std::size_t na = rows_.size();
    for (std::size_t j = 0; j < na; ++j) v[j] /= d_[j];
    for (std::size_t j = na; j-- > 0;) {
      for (std::size_t k = j + 1; k < na; ++k) v[j] -= l_[k * n_ + j] * v[k];
    }
  }

  /// v <- P_AA^-1 v, for v of length |A|.
  void solve(std::span<double> v) const {
    for (std::size_t j = 0; j < rows_.size(); ++j) {
      for (std::size_t k = 0; k < j; ++k) v[j] -= l_[j * n_ + k] * v[k];
    }
    finish_solve(v);
  }

 private:
  [[nodiscard]] double p(std::size_t r, std::size_t c) const { return p_[r * q_ + c]; }

  /// project() against the first `count` rows of A.
  double project(std::size_t row, std::size_t count, std::span<double> u) const {
    double pivot = p(row, row);
    for (std::size_t j = 0; j < count; ++j) {
      double s = p(row, rows_[j]);
      for (std::size_t k = 0; k < j; ++k) s -= l_[j * n_ + k] * u[k];
      u[j] = s;
      pivot -= s * (s / d_[j]);
    }
    return pivot;
  }

  /// Factors rows `from` onward, keeping the rows of L before them. Each
  /// row is factored exactly as append() would add it.
  bool factor(std::size_t from) {
    for (std::size_t j = from; j < rows_.size(); ++j) {
      const double pivot = project(rows_[j], j, u_);
      if (!(pivot > kDependentPivot * p(rows_[j], rows_[j]))) return false;
      for (std::size_t k = 0; k < j; ++k) l_[j * n_ + k] = u_[k] / d_[k];
      d_[j] = pivot;
    }
    return true;
  }

  std::span<const double> p_;
  std::size_t q_;
  std::size_t n_;
  std::vector<std::size_t>& rows_;
  std::span<double> l_;  // n x n, row-major; strict lower part of the leading |A| block
  std::span<double> d_;  // D
  std::span<double> u_;  // factor()'s row being projected
};

/// Sets lambda to the KKT multipliers of the active rows, lambda_A =
/// -P_AA^-1 k_A, and every other entry to zero. Returns min_j lambda_A[j]
/// relative to max(1, max_j |lambda_A[j]|), or 0 when A is empty.
double kkt_multipliers(const ActiveSet& active, std::span<const double> k,
                       std::span<double> lambda, std::span<double> work) {
  std::fill(lambda.begin(), lambda.end(), 0.0);
  const std::vector<std::size_t>& rows = active.rows();
  const std::span<double> v = work.first(rows.size());
  for (std::size_t j = 0; j < rows.size(); ++j) v[j] = -k[rows[j]];
  active.solve(v);
  double lowest = 0.0;
  double largest = 1.0;
  for (std::size_t j = 0; j < rows.size(); ++j) {
    lambda[rows[j]] = v[j];
    lowest = std::min(lowest, v[j]);
    largest = std::max(largest, std::abs(v[j]));
  }
  return lowest / largest;
}

}  // namespace

QpResult InequalityQp::solve(std::span<const double> g, std::span<const double> gamma,
                             std::span<const std::size_t> warm) const {
  QpResult result;
  Vector work;
  solve_into(g, gamma, warm, result, work);
  return result;
}

void InequalityQp::solve_into(std::span<const double> g, std::span<const double> gamma,
                              std::span<const std::size_t> warm, QpResult& result,
                              Vector& work) const {
  const std::size_t n = h_.rows();
  const std::size_t q = m_.rows();
  if (g.size() != n) throw std::invalid_argument("inequality_qp: bad dims");
  if (gamma.size() != q) throw std::invalid_argument("inequality_qp: gamma length mismatch");

  result.x.resize(n);  // the unconstrained minimizer x0 = -H^-1 g
  for (std::size_t i = 0; i < n; ++i) result.x[i] = -g[i];
  chol_.solve_in_place(result.x);
  result.converged = true;
  result.iterations = 0;
  result.active.clear();
  result.multipliers.clear();
  if (q == 0) {
    result.objective = qp_objective(h_, g, result.x);
    return;
  }

  // One buffer for every per-solve vector: k, lambda, slack, l and r, and
  // the active-set factor.
  work.assign(3 * q + 2 * n + n * n + 2 * n, 0.0);
  const std::span<double> k(work.data(), q);
  const std::span<double> lambda(work.data() + q, q);
  const std::span<double> slack(work.data() + 2 * q, q);  // gamma - M x = k + P lambda
  const std::span<double> l(work.data() + 3 * q, n);
  const std::span<double> r(work.data() + 3 * q + n, n);
  const std::span<double> factor_storage(work.data() + 3 * q + 2 * n, n * n + 2 * n);

  // Check whether the unconstrained minimizer is already feasible.
  const std::span<const double> m = m_.data();
  for (std::size_t i = 0; i < q; ++i) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += m[i * n + c] * result.x[c];
    k[i] = s;
  }
  bool feasible = true;
  for (std::size_t i = 0; i < q; ++i) {
    if (k[i] > gamma[i] + 1e-9) {
      feasible = false;
      break;
    }
  }
  if (feasible) {
    result.objective = qp_objective(h_, g, result.x);
    return;
  }
  for (std::size_t i = 0; i < q; ++i) k[i] = gamma[i] - k[i];

  const std::span<const double> p = p_.data();
  ActiveSet active(p, q, n, result.active, factor_storage);
  std::copy(k.begin(), k.end(), slack.begin());
  std::size_t steps = 0;
  const auto add_column = [&](std::size_t c, double weight) {
    for (std::size_t i = 0; i < q; ++i) slack[i] += weight * p[i * q + c];
  };

  // Warm start: keep the hint when its multipliers are dual feasible; the
  // loop below then ends at once if the point is also primal feasible.
  if (!warm.empty()) {
    ++steps;
    if (active.assign(warm) && kkt_multipliers(active, k, lambda, l) >= -kDualTol) {
      for (const std::size_t row : active.rows()) {
        lambda[row] = std::max(lambda[row], 0.0);
        add_column(row, lambda[row]);
      }
    } else {
      active.clear();
      std::fill(lambda.begin(), lambda.end(), 0.0);
    }
  }

  const std::size_t max_steps = kStepsPerRow * q;
  bool converged = false;
  bool stuck = false;
  while (!stuck && steps < max_steps) {
    // The most violated row outside A.
    std::size_t add = q;
    double worst = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      if (slack[i] < worst && slack[i] < -kFeasibilityTol * std::max(1.0, std::abs(gamma[i])) &&
          !active.contains(i)) {
        worst = slack[i];
        add = i;
      }
    }
    if (add == q) {
      converged = true;
      break;
    }
    // Raise lambda_add until row `add` is tight. Keeping the rows of A
    // tight lowers lambda_A by t r per unit t, with r = P_AA^-1 P_{A,add};
    // an active row whose multiplier would turn negative first is dropped.
    for (bool added = false; !added;) {
      if (steps == max_steps) {
        stuck = true;
        break;
      }
      ++steps;
      const std::size_t na = active.size();
      const std::vector<std::size_t>& rows = active.rows();
      const double pivot = active.project(add, l);
      std::copy_n(l.begin(), na, r.begin());
      active.finish_solve(r.first(na));

      constexpr double kInf = std::numeric_limits<double>::infinity();
      double t_dual = kInf;
      std::size_t drop = na;
      for (std::size_t j = 0; j < na; ++j) {
        if (r[j] > 0.0 && lambda[rows[j]] / r[j] < t_dual) {
          t_dual = lambda[rows[j]] / r[j];
          drop = j;
        }
      }
      const bool dependent = na == n || !(pivot > kDependentPivot * p[add * q + add]);
      const double t_primal = dependent ? kInf : -slack[add] / pivot;
      if (t_dual == kInf && t_primal == kInf) {  // no point satisfies row `add` and A
        stuck = true;
        break;
      }
      const double t = std::min(t_dual, t_primal);
      lambda[add] += t;
      add_column(add, t);
      for (std::size_t j = 0; j < na; ++j) {
        lambda[rows[j]] -= t * r[j];
        add_column(rows[j], -t * r[j]);
      }
      if (t_primal <= t_dual) {
        active.append(add, l, pivot);
        added = true;
      } else {
        lambda[rows[drop]] = 0.0;
        active.erase(drop);
      }
    }
  }

  // At the optimum the multipliers come from one KKT solve on the final A,
  // not from the accumulated steps, so a warm and a cold solve that end on
  // the same A return the same point.
  if (converged) {
    kkt_multipliers(active, k, lambda, l);
    for (const std::size_t row : active.rows()) lambda[row] = std::max(lambda[row], 0.0);
  }

  // Recover the primal point: x = x0 - H^-1 M^T lambda.
  const std::span<const double> hinv_mt = hinv_mt_.data();
  for (std::size_t row = 0; row < n; ++row) {
    const std::span<const double> h_row = hinv_mt.subspan(row * q, q);
    double s = 0.0;
    for (std::size_t c = 0; c < q; ++c) {
      if (lambda[c] != 0.0) s += h_row[c] * lambda[c];
    }
    result.x[row] -= s;
  }

  result.converged = converged;
  result.iterations = steps;
  result.multipliers.resize(result.active.size());
  for (std::size_t j = 0; j < result.active.size(); ++j) {
    result.multipliers[j] = lambda[result.active[j]];
  }
  result.objective = qp_objective(h_, g, result.x);
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
                          std::span<const double> gamma,
                          std::span<const std::size_t> warm) const {
  QpResult result;
  Vector work;
  solve_into(g, b, gamma, warm, result, work);
  return result;
}

void GeneralQp::solve_into(std::span<const double> g, std::span<const double> b,
                           std::span<const double> gamma, std::span<const std::size_t> warm,
                           QpResult& result, Vector& work) const {
  const std::size_t n = h_.rows();
  if (g.size() != n) throw std::invalid_argument("general_qp: bad dimensions");
  if (gamma.size() != m_.rows()) {
    throw std::invalid_argument("general_qp: gamma length mismatch");
  }
  if (!qr_) {
    reduced_.solve_into(g, gamma, warm, result, work);
    return;
  }
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
  reduced_.solve_into(gz, gamma_z, warm, result, work);
  const Vector zx = z_ * std::span<const double>(result.x);
  result.x = add(x_particular, zx);
  result.objective = qp_objective(h_, g, result.x);
}

QpResult solve_box_qp(const Matrix& h, std::span<const double> g, std::span<const double> lo,
                      std::span<const double> hi, const Matrix& a, std::span<const double> b) {
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

  QpResult result = GeneralQp(h, a, m).solve(g, b, gamma);
  // Project onto the box to remove the rounding of the active rows and the
  // 1e-9 feasibility tolerance. (With equality constraints present this can
  // perturb A x = b by as much.)
  for (std::size_t i = 0; i < n; ++i) result.x[i] = std::clamp(result.x[i], lo[i], hi[i]);
  result.objective = qp_objective(h, g, result.x);
  return result;
}

}  // namespace vdc::linalg
