// MIMO Model-Predictive response-time controller (Section IV).
//
// At the end of every control period the controller minimizes
//
//   J(k) = sum_{i=1..P} || t(k+i|k) - ref(k+i|k) ||^2_Q
//        + sum_{i=0..M-1} || dc(k+i|k) ||^2_R            (equation 2)
//
// over the input trajectory dc(k), ..., dc(k+M-1|k), subject to
//
//   t(k+M|k) = Ts                 (terminal constraint, equation 4)
//   c_min <= c(k+i|k) <= c_max    (actuator range)
//   |dc| <= delta_max             (rate limit, optional)
//
// using the identified ARX model for prediction, then applies only the
// first move dc(k) (receding horizon). The predictions are built in DMC
// form: free response (inputs held) plus step-response convolution of the
// future moves.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "control/arx.hpp"
#include "control/reference.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qp.hpp"

namespace vdc::control {

struct MpcConfig {
  std::size_t prediction_horizon = 8;  ///< P
  std::size_t control_horizon = 2;     ///< M (<= P)
  double q_weight = 1.0;               ///< tracking error weight Q
  /// Control penalty per input (R(i) in the paper); higher = that VM's
  /// allocation changes more reluctantly. Must be positive. Resized/
  /// broadcast to the model's input count when a single value is given.
  std::vector<double> r_weight = {0.01};
  double period_s = 4.0;   ///< control period T
  double tref_s = 12.0;    ///< reference trajectory time constant
  double setpoint = 1.0;   ///< Ts, in the output's unit (seconds here)
  std::vector<double> c_min = {0.05};  ///< per-input lower bound (GHz)
  std::vector<double> c_max = {4.0};   ///< per-input upper bound (GHz)
  /// Max |dc| per input per period; <= 0 disables the rate limit.
  double delta_max = 0.5;
  /// Asymmetric downward rate limit: max allocation *release* per period.
  /// <= 0 keeps the limit symmetric (|dc| <= delta_max). A tighter release
  /// rate is the robust-control guard of Makridis et al.: capacity taken
  /// away on the strength of an optimistic (possibly spiked or mismatched)
  /// measurement can only leak out slowly, while capacity is still granted
  /// at the full delta_max when the SLA is threatened.
  double delta_down_max = 0.0;
  /// Terminal constraint handling (equation 4). kHard is the paper's exact
  /// formulation — an equality t(k+M|k) = Ts — but becomes *infeasible*
  /// against the actuator range/rate limits after a large disturbance
  /// (the paper assumes feasibility, Section IV-A). kSoft replaces it with
  /// a heavily weighted terminal penalty: identical behavior when the hard
  /// constraint is feasible and inactive elsewhere, graceful degradation
  /// when it is not. kOff disables it.
  enum class Terminal { kHard, kSoft, kOff };
  Terminal terminal = Terminal::kSoft;
  /// Weight of the soft terminal penalty, relative to q_weight.
  double terminal_weight = 50.0;
  /// DMC-style feedback correction: the one-step prediction error d(k) =
  /// t(k) - t_hat(k|k-1) is low-pass filtered with this gain (1 = use the
  /// latest error directly, 0 = no correction) and added to every
  /// prediction. Zero under nominal dynamics; it is what makes the loop
  /// robust to the model being identified on a different operating region
  /// (Figures 4-5 of the paper).
  double disturbance_gain = 1.0;

  void validate(std::size_t nu) const;
  /// Broadcasts scalar-valued per-input fields to width nu.
  [[nodiscard]] MpcConfig broadcast(std::size_t nu) const;
};

struct MpcDiagnostics {
  bool qp_converged = true;
  std::size_t qp_iterations = 0;
  /// Inequality rows of MpcProblem::inequalities held tight by the last
  /// solve, in the solver's order. The next step offers them to the QP as
  /// its warm start.
  std::vector<std::size_t> qp_active;
  double predicted_terminal = 0.0;  ///< t(k+M|k) under the optimized plan
  double cost = 0.0;
};

/// The constant part of one controller's QP: everything that depends only
/// on the model and the shape of the MpcConfig (horizons, weights, terminal
/// mode, whether the rate limit exists). Built once per controller and
/// shared by its copies; per period only the gradient and the constraint
/// bounds gamma = f(c_prev, c_min, c_max, delta) change.
struct MpcProblem {
  /// `config` must already be broadcast to the model's input count and
  /// validated.
  MpcProblem(ArxModel model, const MpcConfig& config);

  ArxModel model;
  /// Step-response coefficients s_m(i), i=1..P (P x nu).
  linalg::Matrix step_response;
  /// Prediction matrix G (P x M*nu): column j*nu+m of row i-1 holds s_m(i-j).
  linalg::Matrix prediction;
  linalg::Matrix prediction_t;  ///< G'
  linalg::Matrix hessian;       ///< 2 (G'QG + Rbar), plus the soft terminal term
  /// Inequality rows: for each move j and input m the cumulative-sum range
  /// rows (+, -), then, when delta_max > 0, the rate rows (+, -) per move.
  linalg::Matrix inequalities;
  /// The prepared QP; empty when not even the unconstrained problem could be
  /// factored (every step then holds the allocation).
  std::optional<linalg::GeneralQp> qp;
  /// True when `qp` eliminates the hard terminal row t(k+M|k) = Ts. False in
  /// kSoft/kOff, and in kHard when that row could not be prepared.
  bool terminal_equality = false;
};

class MpcController {
 public:
  MpcController(ArxModel model, MpcConfig config);

  /// Initializes the internal history with a steady state: output t0,
  /// allocations c0. Must be called before the first step().
  void reset(double t0, std::span<const double> c0);

  /// One control period: feed back the measured output t(k), receive the
  /// allocation vector c(k) to apply for the next period.
  [[nodiscard]] std::vector<double> step(double measured_output);

  /// Degraded control period for when the measurement is missing or flagged
  /// stale: keeps the previous allocation, advances the internal history
  /// with the model's own one-step prediction (so the clock of the ARX
  /// state stays aligned with real time), and leaves the disturbance
  /// estimate untouched — no new information arrived, so no correction is
  /// justified. Returns the held allocation.
  [[nodiscard]] std::vector<double> hold();

  void set_setpoint(double setpoint) noexcept { config_.setpoint = setpoint; }
  [[nodiscard]] double setpoint() const noexcept { return config_.setpoint; }
  [[nodiscard]] const MpcConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ArxModel& model() const noexcept { return problem_->model; }
  [[nodiscard]] const MpcDiagnostics& diagnostics() const noexcept { return diagnostics_; }
  [[nodiscard]] std::vector<double> current_allocations() const;

  /// Step-response coefficients s_m(i), i=1..P: output response at step i
  /// to a unit step on input m (exposed for analysis/tests).
  [[nodiscard]] const linalg::Matrix& step_response() const noexcept {
    return problem_->step_response;
  }
  /// The constant QP data. Copies of a controller share one object.
  [[nodiscard]] const MpcProblem& problem() const noexcept { return *problem_; }

 private:
  void free_response();

  std::shared_ptr<const MpcProblem> problem_;
  MpcConfig config_;
  ReferenceTrajectory reference_;
  std::vector<double> t_hist_;               // t(k), t(k-1), ... (most recent first)
  std::vector<std::vector<double>> c_hist_;  // c(k-1), c(k-2), ... (most recent first)
  double disturbance_ = 0.0;                 // filtered one-step prediction error
  bool initialized_ = false;
  MpcDiagnostics diagnostics_;
  // Per-step buffers, reused across periods.
  std::vector<double> free_;      // free response f, P entries
  std::vector<double> err_;       // f - ref
  std::vector<double> gradient_;  // QP gradient, M*nu entries
  std::vector<double> gamma_;     // inequality bounds, one per row
  linalg::QpResult qp_;           // the QP's solution
};

}  // namespace vdc::control
