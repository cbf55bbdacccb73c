#include "control/mpc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "check/control_audit.hpp"
#include "linalg/qp.hpp"
#include "util/log.hpp"

namespace vdc::control {

void MpcConfig::validate(std::size_t nu) const {
  if (prediction_horizon == 0) throw std::invalid_argument("MpcConfig: P must be positive");
  if (control_horizon == 0 || control_horizon > prediction_horizon) {
    throw std::invalid_argument("MpcConfig: need 0 < M <= P");
  }
  if (!(q_weight > 0.0)) throw std::invalid_argument("MpcConfig: Q must be positive");
  if (r_weight.size() != nu) throw std::invalid_argument("MpcConfig: R width mismatch");
  for (const double r : r_weight) {
    if (!(r > 0.0)) throw std::invalid_argument("MpcConfig: R entries must be positive");
  }
  if (c_min.size() != nu || c_max.size() != nu) {
    throw std::invalid_argument("MpcConfig: bound width mismatch");
  }
  for (std::size_t m = 0; m < nu; ++m) {
    if (!(c_min[m] >= 0.0) || !(c_max[m] > c_min[m])) {
      throw std::invalid_argument("MpcConfig: need 0 <= c_min < c_max");
    }
  }
  if (!(period_s > 0.0) || !(tref_s > 0.0)) {
    throw std::invalid_argument("MpcConfig: period and Tref must be positive");
  }
  if (delta_down_max > 0.0 && !(delta_max > 0.0)) {
    throw std::invalid_argument("MpcConfig: delta_down_max needs delta_max > 0");
  }
  if (delta_down_max > 0.0 && delta_down_max > delta_max) {
    throw std::invalid_argument("MpcConfig: delta_down_max must not exceed delta_max");
  }
}

MpcConfig MpcConfig::broadcast(std::size_t nu) const {
  MpcConfig out = *this;
  const auto broadcast_vec = [nu](std::vector<double>& v, const char* what) {
    if (v.size() == 1 && nu > 1) v.assign(nu, v.front());
    if (v.size() != nu) {
      throw std::invalid_argument(std::string("MpcConfig: cannot broadcast ") + what);
    }
  };
  broadcast_vec(out.r_weight, "r_weight");
  broadcast_vec(out.c_min, "c_min");
  broadcast_vec(out.c_max, "c_max");
  return out;
}

namespace {

/// One-step ARX response to a unit step on each input from zero initial
/// conditions and no bias, over the prediction horizon; linear
/// superposition then gives any input trajectory.
linalg::Matrix compute_step_response(const ArxModel& model, std::size_t p) {
  const std::size_t nu = model.nu;
  linalg::Matrix response(p, nu);
  ArxModel unbiased = model;
  unbiased.bias = 0.0;  // the step response is the *deviation* response
  for (std::size_t m = 0; m < nu; ++m) {
    std::vector<double> t_hist(model.na, 0.0);
    std::vector<std::vector<double>> c_hist(model.nb, std::vector<double>(nu, 0.0));
    std::vector<double> step(nu, 0.0);
    step[m] = 1.0;
    // c(k+j) = step for j >= 0; history starts with c(k-1)=...=0.
    for (std::size_t i = 1; i <= p; ++i) {
      // Advance input history: entering period k+i, the most recent input
      // is c(k+i-1) = step.
      c_hist.insert(c_hist.begin(), step);
      c_hist.pop_back();
      const double t = unbiased.predict(t_hist, c_hist);
      response(i - 1, m) = t;
      t_hist.insert(t_hist.begin(), t);
      t_hist.pop_back();
    }
  }
  return response;
}

/// Shifts the history one period back and makes `latest` the most recent
/// entry, reusing the storage of the one that falls off.
template <typename T>
void push_front(std::vector<T>& history, const T& latest) {
  if (history.empty()) return;
  std::rotate(history.rbegin(), history.rbegin() + 1, history.rend());
  history.front() = latest;
}

}  // namespace

MpcProblem::MpcProblem(ArxModel arx, const MpcConfig& config)
    : model(std::move(arx)),
      step_response(compute_step_response(model, config.prediction_horizon)) {
  // Prediction matrix G: row i-1 (prediction step i), column j*nu+m holds
  // s_m(i-j) — the effect of move dc(k+j) on t(k+i).
  const std::size_t p = config.prediction_horizon;
  const std::size_t m_horizon = config.control_horizon;
  const std::size_t nu = model.nu;
  const std::size_t nx = m_horizon * nu;
  prediction = linalg::Matrix(p, nx);
  for (std::size_t i = 1; i <= p; ++i) {
    for (std::size_t j = 0; j < m_horizon; ++j) {
      if (i <= j) continue;
      for (std::size_t m = 0; m < nu; ++m) {
        prediction(i - 1, j * nu + m) = step_response(i - j - 1, m);
      }
    }
  }
  prediction_t = prediction.transpose();

  // Constant Hessian: H = 2 (G' Q G + Rbar) (+ soft terminal term).
  hessian = prediction_t * prediction * (2.0 * config.q_weight);
  for (std::size_t j = 0; j < m_horizon; ++j) {
    for (std::size_t m = 0; m < nu; ++m) {
      hessian(j * nu + m, j * nu + m) += 2.0 * config.r_weight[m];
    }
  }
  if (config.terminal == MpcConfig::Terminal::kSoft) {
    const double w = 2.0 * config.q_weight * config.terminal_weight;
    for (std::size_t r = 0; r < nx; ++r) {
      for (std::size_t c = 0; c < nx; ++c) {
        hessian(r, c) += w * prediction(m_horizon - 1, r) * prediction(m_horizon - 1, c);
      }
    }
  }

  // Inequalities: actuator range on the cumulative allocation
  // (sum_{l<=j} dc_m(l) <= c_max[m] - c_prev[m] and its negation) and the
  // per-move rate limit. Each negated range row negates every entry of the
  // row above it (zeros included). step() fills gamma in this row order.
  const std::size_t rate_rows = config.delta_max > 0.0 ? 2 * nx : 0;
  inequalities = linalg::Matrix(2 * nx + rate_rows, nx);
  std::size_t row = 0;
  for (std::size_t j = 0; j < m_horizon; ++j) {
    for (std::size_t m = 0; m < nu; ++m) {
      for (std::size_t l = 0; l <= j; ++l) inequalities(row, l * nu + m) = 1.0;
      for (std::size_t c = 0; c < nx; ++c) inequalities(row + 1, c) = -inequalities(row, c);
      row += 2;
    }
  }
  for (std::size_t idx = 0; rate_rows > 0 && idx < nx; ++idx) {
    inequalities(row, idx) = 1.0;
    inequalities(row + 1, idx) = -1.0;
    row += 2;
  }

  // Terminal constraint t(k+M|k) = Ts: in kHard a constant equality row.
  // Whether it can be eliminated depends only on that row, H and M, so it
  // is decided here, once.
  linalg::Matrix a_eq;
  if (config.terminal == MpcConfig::Terminal::kHard) {
    double row_norm = 0.0;
    for (std::size_t c = 0; c < nx; ++c) {
      row_norm += prediction(m_horizon - 1, c) * prediction(m_horizon - 1, c);
    }
    if (row_norm > 1e-16) a_eq = prediction.block(m_horizon - 1, 0, 1, nx);
  }
  if (a_eq.rows() > 0) {
    try {
      qp.emplace(hessian, a_eq, inequalities);
      terminal_equality = true;
    } catch (const std::exception& e) {
      util::Log(util::LogLevel::kWarn, "mpc")
          << "terminal-constrained QP failed (" << e.what()
          << "); using the unconstrained QP for every period";
    }
  }
  if (!qp) {
    try {
      qp.emplace(hessian, linalg::Matrix(), inequalities);
    } catch (const std::exception& e) {
      util::Log(util::LogLevel::kError, "mpc")
          << "QP failed: " << e.what() << "; every period holds the allocation";
    }
  }
}

MpcController::MpcController(ArxModel model, MpcConfig config)
    : config_(config.broadcast(model.nu)), reference_(config.period_s, config.tref_s) {
  model.validate();
  config_.validate(model.nu);
  problem_ = std::make_shared<const MpcProblem>(std::move(model), config_);
  free_.resize(config_.prediction_horizon);
  err_.resize(config_.prediction_horizon);
  gradient_.resize(problem_->hessian.rows());
  gamma_.resize(problem_->inequalities.rows());
}

void MpcController::free_response() {
  // Forward-simulate the model over P steps with the input held at c(k-1).
  // The estimated disturbance enters INSIDE the recursion (like the bias
  // term) so it propagates through the AR dynamics — required for
  // offset-free tracking under constant model error. At step i the output
  // lags l < i-1 are earlier predictions f, the rest the measured history;
  // the input lags j < i are the held c(k-1), the rest the input history.
  const ArxModel& model = problem_->model;
  const std::vector<double>& held = c_hist_.front();
  for (std::size_t i = 1; i <= free_.size(); ++i) {
    double t = model.bias;
    for (std::size_t l = 0; l < model.na; ++l) {
      t += model.a[l] * (l + 1 < i ? free_[i - 2 - l] : t_hist_[l + 1 - i]);
    }
    for (std::size_t j = 0; j < model.nb; ++j) {
      const std::vector<double>& c = j < i ? held : c_hist_[j - i];
      for (std::size_t m = 0; m < model.nu; ++m) t += model.b(j, m) * c[m];
    }
    free_[i - 1] = t + disturbance_;
  }
}

void MpcController::reset(double t0, std::span<const double> c0) {
  if (c0.size() != model().nu) throw std::invalid_argument("MpcController::reset: c0 width");
  t_hist_.assign(model().na, t0);
  c_hist_.assign(model().nb, std::vector<double>(c0.begin(), c0.end()));
  disturbance_ = 0.0;
  initialized_ = true;
}

std::vector<double> MpcController::current_allocations() const {
  if (!initialized_) throw std::logic_error("MpcController: reset() before querying");
  return c_hist_.front();
}

std::vector<double> MpcController::hold() {
  if (!initialized_) throw std::logic_error("MpcController: reset() before hold()");
  const double predicted = model().predict(t_hist_, c_hist_) + disturbance_;
  push_front(t_hist_, predicted);
  const std::vector<double> held = c_hist_.front();
  push_front(c_hist_, held);
  return held;
}

std::vector<double> MpcController::step(double measured_output) {
  if (!initialized_) throw std::logic_error("MpcController: reset() before step()");
  const MpcProblem& problem = *problem_;
  const std::size_t p = config_.prediction_horizon;
  const std::size_t m_horizon = config_.control_horizon;
  const std::size_t nu = model().nu;
  const std::size_t nx = m_horizon * nu;
  const linalg::Matrix& g = problem.prediction;

  // Feedback correction (DMC): how far off was the one-step prediction?
  if (config_.disturbance_gain > 0.0) {
    const double predicted = model().predict(t_hist_, c_hist_);
    disturbance_ += config_.disturbance_gain *
                    ((measured_output - predicted) - disturbance_);
  }

  // Feedback: t(k) enters the model history.
  push_front(t_hist_, measured_output);

  free_response();
  const std::vector<double>& f = free_;

  // Gradient: g = 2 G' Q (f - ref).
  for (std::size_t i = 0; i < p; ++i) {
    err_[i] = f[i] - reference_.at(i + 1, measured_output, config_.setpoint);
  }
  const std::span<const double> g_t = problem.prediction_t.data();
  for (std::size_t r = 0; r < nx; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < p; ++c) s += g_t[r * p + c] * err_[c];
    gradient_[r] = s;
  }
  for (double& v : gradient_) v *= 2.0 * config_.q_weight;

  // Terminal constraint: t(k+M|k) = Ts — hard equality or soft penalty.
  double b_eq = 0.0;
  if (problem.terminal_equality) {
    b_eq = config_.setpoint - f[m_horizon - 1];
  } else if (config_.terminal == MpcConfig::Terminal::kSoft) {
    // grad += 2 Q w_T G_M' (f_M - Ts); the Hessian term is precomputed.
    const double w = 2.0 * config_.q_weight * config_.terminal_weight;
    const double residual = f[m_horizon - 1] - config_.setpoint;
    for (std::size_t c = 0; c < nx; ++c) {
      gradient_[c] += w * g(m_horizon - 1, c) * residual;
    }
  }

  // Bounds of the inequality rows, in the order MpcProblem lays them out.
  const std::vector<double>& c_prev = c_hist_.front();
  std::size_t row = 0;
  for (std::size_t j = 0; j < m_horizon; ++j) {
    for (std::size_t m = 0; m < nu; ++m) {
      gamma_[row++] = config_.c_max[m] - c_prev[m];
      gamma_[row++] = c_prev[m] - config_.c_min[m];
    }
  }
  if (config_.delta_max > 0.0) {
    // Asymmetric release limit when configured: dc >= -delta_down_max.
    const double delta_down = config_.delta_down_max > 0.0 ? config_.delta_down_max
                                                           : config_.delta_max;
    for (std::size_t idx = 0; idx < nx; ++idx) {
      gamma_[row++] = config_.delta_max;
      gamma_[row++] = delta_down;
    }
  }

  linalg::QpResult& qp = qp_;
  if (problem.qp) {
    // The solver's scratch is per thread, not per controller: a fleet holds
    // one controller per app, and controllers may step concurrently.
    thread_local linalg::Vector qp_work;
    problem.qp->solve_into(gradient_,
                           std::span<const double>(&b_eq, problem.terminal_equality ? 1 : 0),
                           gamma_, diagnostics_.qp_active, qp, qp_work);
    audit::qp_solution(problem.hessian, gradient_, problem.inequalities, gamma_, qp,
                       problem.terminal_equality);
  } else {
    qp = linalg::QpResult{};
    qp.x.assign(nx, 0.0);
    qp.converged = false;
  }

  if (util::log_enabled(util::LogLevel::kDebug)) {
    util::Log dbg(util::LogLevel::kDebug, "mpc");
    dbg << "f=[";
    for (double v : f) dbg << v << " ";
    dbg << "] err=[";
    for (double v : err_) dbg << v << " ";
    dbg << "] grad=[";
    for (double v : gradient_) dbg << v << " ";
    dbg << "] x=[";
    for (double v : qp.x) dbg << v << " ";
    dbg << "] d=" << disturbance_;
  }

  diagnostics_.qp_converged = qp.converged;
  diagnostics_.qp_iterations = qp.iterations;
  // The solution's active set becomes the next warm start; the old warm
  // start's buffer goes back to the solver for reuse.
  std::swap(diagnostics_.qp_active, qp.active);
  diagnostics_.cost = qp.objective;
  {
    double terminal_s = f[m_horizon - 1];
    for (std::size_t c = 0; c < nx; ++c) terminal_s += g(m_horizon - 1, c) * qp.x[c];
    diagnostics_.predicted_terminal = terminal_s;
  }

  // Receding horizon: apply only the first move, clamped to the actuator.
  // A first-move row the QP holds active is applied as its exact bound:
  // the solution lies on it only to rounding, on either side.
  std::vector<double> c_new(nu);
  const double delta_down = config_.delta_down_max > 0.0 ? config_.delta_down_max
                                                         : config_.delta_max;
  for (std::size_t m = 0; m < nu; ++m) {
    double dc = qp.x[m];
    if (config_.delta_max > 0.0) dc = std::clamp(dc, -delta_down, config_.delta_max);
    c_new[m] = std::clamp(c_prev[m] + dc, config_.c_min[m], config_.c_max[m]);
  }
  for (const std::size_t r : diagnostics_.qp_active) {
    // Rows 2m, 2m+1: range of input m after move 0; rows 2nx + 2m, 2nx + 2m + 1:
    // rate of that move (see MpcProblem).
    const bool range = r < 2 * nu;
    const bool rate = r >= 2 * nx && r < 2 * nx + 2 * nu;
    if (!range && !rate) continue;
    const std::size_t m = (range ? r : r - 2 * nx) / 2;
    const bool upper = r % 2 == 0;
    if (range) {
      c_new[m] = upper ? config_.c_max[m] : config_.c_min[m];
    } else {
      const double dc = upper ? config_.delta_max : -delta_down;
      c_new[m] = std::clamp(c_prev[m] + dc, config_.c_min[m], config_.c_max[m]);
    }
  }
  audit::allocation_bounds(c_new, config_.c_min, config_.c_max);
  push_front(c_hist_, c_new);
  return c_new;
}

}  // namespace vdc::control
