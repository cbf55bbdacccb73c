#include "control/stability.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/eigen.hpp"
#include "linalg/lu.hpp"
#include "linalg/qp.hpp"
#include "control/reference.hpp"

namespace vdc::control {

namespace {

// State layout: s = [t(k) ... t(k-na+1), c(k-1)^T ... c(k-nc)^T] with
// nc = max(nb-1, 1) input blocks (c(k-1) is always needed: it is the value
// the free response holds).
struct StateSpace {
  std::size_t na;
  std::size_t nc;
  std::size_t nu;
  [[nodiscard]] std::size_t dim() const noexcept { return na + nc * nu; }
};

// Simulates the ARX model i steps ahead from state s with the input held at
// c(k-1) (+ an optional first-move delta), returning the predicted outputs.
// `bias_on` toggles the affine part so the same routine yields both the
// full map and its linear part.
std::vector<double> rollout(const ArxModel& model, const StateSpace& ss,
                            std::span<const double> s, std::size_t steps, bool bias_on) {
  std::vector<double> t_hist(model.na);
  for (std::size_t i = 0; i < model.na; ++i) t_hist[i] = s[i];
  std::vector<std::vector<double>> c_hist(model.nb, std::vector<double>(model.nu, 0.0));
  for (std::size_t j = 0; j < model.nb; ++j) {
    const std::size_t block = std::min(j, ss.nc - 1);  // c(k-1-j); clamp for nb=1
    for (std::size_t m = 0; m < model.nu; ++m) {
      c_hist[j][m] = s[ss.na + block * ss.nu + m];
    }
  }
  std::vector<double> held = c_hist.front();

  std::vector<double> out(steps);
  ArxModel m = model;
  if (!bias_on) m.bias = 0.0;
  for (std::size_t i = 1; i <= steps; ++i) {
    c_hist.insert(c_hist.begin(), held);
    c_hist.pop_back();
    const double t = m.predict(t_hist, c_hist);
    out[i - 1] = t;
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
  }
  return out;
}

}  // namespace

StabilityReport analyze_closed_loop(const ArxModel& model, const MpcConfig& raw_config) {
  model.validate();
  const MpcConfig config = raw_config.broadcast(model.nu);
  config.validate(model.nu);

  const StateSpace ss{model.na, std::max<std::size_t>(model.nb - 1, 1), model.nu};
  const std::size_t ns = ss.dim();
  const std::size_t nu = model.nu;
  const std::size_t p = config.prediction_horizon;
  const std::size_t mh = config.control_horizon;
  const std::size_t nx = mh * nu;

  // Prediction matrix and Hessian: the controller's own (via a throwaway
  // controller instance to avoid divergence).
  const MpcController probe(model, config);
  const linalg::Matrix& g = probe.problem().prediction;
  const linalg::Matrix& hessian = probe.problem().hessian;

  const ReferenceTrajectory reference(config.period_s, config.tref_s);

  // The controller map dc(k) = u(s): affine. Evaluate via the equality-
  // constrained QP exactly as the controller does (inequalities inactive).
  const auto control_move = [&](std::span<const double> s, bool affine_on) {
    const std::vector<double> f = rollout(model, ss, s, p, affine_on);
    const double t_now = s[0];
    std::vector<double> err(p);
    for (std::size_t i = 0; i < p; ++i) {
      // ref(k+i|k) = Ts - e^{-iT/Tref}(Ts - t(k)) = (1-e)Ts + e t(k): its
      // linear part in t(k) is e^{-iT/Tref} t(k); the rest is affine in Ts.
      const double decay =
          std::exp(-static_cast<double>(i + 1) * config.period_s / config.tref_s);
      const double ref =
          affine_on ? reference.at(i + 1, t_now, config.setpoint) : decay * t_now;
      err[i] = f[i] - ref;
    }
    linalg::Vector grad = g.transpose() * std::span<const double>(err);
    for (double& v : grad) v *= 2.0 * config.q_weight;

    linalg::Matrix a_eq;
    linalg::Vector b_eq;
    if (config.terminal == MpcConfig::Terminal::kHard) {
      a_eq = linalg::Matrix(1, nx);
      for (std::size_t c = 0; c < nx; ++c) a_eq(0, c) = g(mh - 1, c);
      const double target = affine_on ? config.setpoint : 0.0;
      b_eq.assign(1, target - f[mh - 1]);
    } else if (config.terminal == MpcConfig::Terminal::kSoft) {
      const double wt = 2.0 * config.q_weight * config.terminal_weight;
      const double target = affine_on ? config.setpoint : 0.0;
      const double residual = f[mh - 1] - target;
      for (std::size_t c = 0; c < nx; ++c) grad[c] += wt * g(mh - 1, c) * residual;
    }
    const linalg::QpResult qp = linalg::solve_equality_qp(hessian, grad, a_eq, b_eq);
    return std::vector<double>(qp.x.begin(), qp.x.begin() + static_cast<std::ptrdiff_t>(nu));
  };

  // K columns by linearity: u(e_i) with the affine parts (bias, Ts) off.
  const std::vector<double> zero(ns, 0.0);
  linalg::Matrix k_gain(nu, ns);
  {
    std::vector<double> e(ns, 0.0);
    for (std::size_t i = 0; i < ns; ++i) {
      std::fill(e.begin(), e.end(), 0.0);
      e[i] = 1.0;
      const std::vector<double> ui = control_move(e, false);
      for (std::size_t m = 0; m < nu; ++m) k_gain(m, i) = ui[m];
    }
  }
  const std::vector<double> u0 = control_move(zero, true);

  // Plant matrices: s(k+1) = A s + B dc + w.
  const auto plant_next = [&](std::span<const double> s, std::span<const double> dc,
                              bool affine_on) {
    // c(k) = c(k-1) + dc.
    std::vector<double> c_now(nu);
    for (std::size_t m = 0; m < nu; ++m) c_now[m] = s[ss.na + m] + dc[m];
    // t(k+1) from the model with c(k) applied.
    std::vector<double> t_hist(model.na);
    for (std::size_t i = 0; i < model.na; ++i) t_hist[i] = s[i];
    std::vector<std::vector<double>> c_hist(model.nb, std::vector<double>(nu, 0.0));
    if (model.nb > 0) c_hist[0] = c_now;
    for (std::size_t j = 1; j < model.nb; ++j) {
      const std::size_t block = std::min(j - 1, ss.nc - 1);
      for (std::size_t m = 0; m < nu; ++m) c_hist[j][m] = s[ss.na + block * ss.nu + m];
    }
    ArxModel m2 = model;
    if (!affine_on) m2.bias = 0.0;
    const double t_next = m2.predict(t_hist, c_hist);

    std::vector<double> s_next(ns, 0.0);
    s_next[0] = t_next;
    for (std::size_t i = 1; i < ss.na; ++i) s_next[i] = s[i - 1];
    for (std::size_t m = 0; m < nu; ++m) s_next[ss.na + m] = c_now[m];
    for (std::size_t blk = 1; blk < ss.nc; ++blk) {
      for (std::size_t m = 0; m < nu; ++m) {
        s_next[ss.na + blk * nu + m] = s[ss.na + (blk - 1) * nu + m];
      }
    }
    return s_next;
  };

  const std::vector<double> zero_u(nu, 0.0);
  linalg::Matrix a_mat(ns, ns);
  {
    std::vector<double> e(ns, 0.0);
    for (std::size_t i = 0; i < ns; ++i) {
      std::fill(e.begin(), e.end(), 0.0);
      e[i] = 1.0;
      const std::vector<double> col = plant_next(e, zero_u, false);
      for (std::size_t r = 0; r < ns; ++r) a_mat(r, i) = col[r];
    }
  }
  linalg::Matrix b_mat(ns, nu);
  {
    std::vector<double> e(nu, 0.0);
    for (std::size_t m = 0; m < nu; ++m) {
      std::fill(e.begin(), e.end(), 0.0);
      e[m] = 1.0;
      const std::vector<double> col = plant_next(zero, e, false);
      for (std::size_t r = 0; r < ns; ++r) b_mat(r, m) = col[r];
    }
  }
  const std::vector<double> w = plant_next(zero, zero_u, true);  // affine drift

  const linalg::Matrix a_cl = a_mat + b_mat * k_gain;

  StabilityReport report;
  report.state_dimension = ns;
  try {
    report.closed_loop_eigenvalues = linalg::eigenvalues(a_cl);
    report.full_spectral_radius = 0.0;
    for (const auto& lambda : report.closed_loop_eigenvalues) {
      report.full_spectral_radius = std::max(report.full_spectral_radius, std::abs(lambda));
    }
  } catch (const std::exception&) {
    // Fall back to the repeated-squaring estimate if QR stalls.
    report.full_spectral_radius = linalg::spectral_radius(a_cl);
  }

  // Steady state: iterate the affine closed loop s(k+1) = A_cl s(k) + d
  // from the origin. Along the equilibrium manifold (I - A_cl) is singular,
  // so a direct solve is unavailable; the output coordinate converges
  // whenever the loop is output-stable because the QP's R-penalty keeps dc
  // inside the output-relevant input span (no drive along fixed modes).
  linalg::Vector drive = b_mat * std::span<const double>(u0);
  for (std::size_t i = 0; i < ns; ++i) drive[i] += w[i];
  const auto iterate = [&](linalg::Vector s, std::size_t steps,
                           std::vector<double>* outputs) {
    for (std::size_t iter = 0; iter < steps; ++iter) {
      linalg::Vector next = a_cl * std::span<const double>(s);
      for (std::size_t i = 0; i < ns; ++i) next[i] += drive[i];
      s = std::move(next);
      if (outputs) outputs->push_back(s[0]);
    }
    return s;
  };

  constexpr std::size_t kSettle = 3000;
  const linalg::Vector s_star = iterate(linalg::Vector(ns, 0.0), kSettle, nullptr);
  report.steady_state_output = s_star[0];
  report.steady_state_error = s_star[0] - config.setpoint;

  // Output-error decay under unit perturbations of every state coordinate.
  // The decay rate is read from the tail ratio |e(K)|/|e(K/2)| ^ (2/K).
  constexpr std::size_t kHorizon = 200;
  double worst_rate = 0.0;
  bool diverged = false;
  for (std::size_t i = 0; i < ns; ++i) {
    linalg::Vector s0 = s_star;
    s0[i] += 1.0;
    std::vector<double> outputs;
    outputs.reserve(kHorizon);
    (void)iterate(std::move(s0), kHorizon, &outputs);
    double peak = 0.0;
    for (const double t : outputs) {
      peak = std::max(peak, std::abs(t - report.steady_state_output));
    }
    const double mid = std::abs(outputs[kHorizon / 2 - 1] - report.steady_state_output);
    const double end = std::abs(outputs[kHorizon - 1] - report.steady_state_output);
    if (!std::isfinite(end) || end > 1e6) {
      diverged = true;
      continue;
    }
    // An error that has collapsed to the numerical floor (<< its peak) has
    // demonstrably decayed; the tail ratio would read ~1 from round-off, so
    // bound its rate from the peak-to-floor drop instead.
    if (end < 1e-9 * std::max(1.0, peak)) {
      if (peak > 0.0 && end > 0.0) {
        worst_rate = std::max(
            worst_rate, std::pow(end / peak, 1.0 / static_cast<double>(kHorizon)));
      }
      continue;
    }
    if (mid > 1e-300) {
      const double rate = std::pow(end / mid, 2.0 / static_cast<double>(kHorizon));
      worst_rate = std::max(worst_rate, rate);
    }
  }
  report.output_decay_rate = diverged ? 2.0 : worst_rate;
  report.stable = !diverged && worst_rate < 1.0 - 1e-9 &&
                  std::isfinite(report.steady_state_output);
  return report;
}

}  // namespace vdc::control
