// ARX (AutoRegressive with eXogenous inputs) response-time model:
//
//   t(k) = sum_{i=1..na} a_i t(k-i) + sum_{j=1..nb} b_j^T c(k-j) + bias
//
// with scalar output t (the application's 90-percentile response time) and
// vector input c (the CPU allocations of the VMs hosting its tiers). This
// is the model class the paper identifies in Section IV-B, e.g. equation
// (1): t1(k) = a11 t1(k-1) + b11 c1(k-1) + b12 c1(k-2) + gamma.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace vdc::control {

struct ArxModel {
  std::size_t na = 1;  ///< output lags
  std::size_t nb = 2;  ///< input lags
  std::size_t nu = 1;  ///< number of inputs (VMs of the application)
  /// a[i-1] multiplies t(k-i).
  std::vector<double> a;
  /// b(j-1, m) multiplies c_m(k-j).
  linalg::Matrix b;
  /// Constant disturbance term (gamma in the paper).
  double bias = 0.0;

  /// One-step prediction. `t_hist[i]` = t(k-1-i) (most recent first,
  /// length >= na); `c_hist[j]` = c(k-1-j) (most recent first, length >= nb,
  /// each of size nu).
  [[nodiscard]] double predict(std::span<const double> t_hist,
                               std::span<const std::vector<double>> c_hist) const;

  /// Number of regression coefficients (na + nb*nu + 1 for the bias).
  [[nodiscard]] std::size_t parameter_count() const noexcept { return na + nb * nu + 1; }

  /// Steady-state gain from each input to the output (dc gain): the change
  /// in stationary t per unit change in c_m.
  [[nodiscard]] std::vector<double> dc_gain() const;

  /// Throws std::invalid_argument on inconsistent dimensions.
  void validate() const;
};

}  // namespace vdc::control
