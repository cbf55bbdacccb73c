#include "control/arx.hpp"

#include <cmath>
#include <stdexcept>

namespace vdc::control {

double ArxModel::predict(std::span<const double> t_hist,
                         std::span<const std::vector<double>> c_hist) const {
  if (t_hist.size() < na) throw std::invalid_argument("ArxModel::predict: t history too short");
  if (c_hist.size() < nb) throw std::invalid_argument("ArxModel::predict: c history too short");
  double t = bias;
  for (std::size_t i = 0; i < na; ++i) t += a[i] * t_hist[i];
  for (std::size_t j = 0; j < nb; ++j) {
    if (c_hist[j].size() != nu) {
      throw std::invalid_argument("ArxModel::predict: input width mismatch");
    }
    for (std::size_t m = 0; m < nu; ++m) t += b(j, m) * c_hist[j][m];
  }
  return t;
}

std::vector<double> ArxModel::dc_gain() const {
  double denom = 1.0;
  for (const double ai : a) denom -= ai;
  if (std::abs(denom) < 1e-12) {
    throw std::runtime_error("ArxModel::dc_gain: AR part has a pole at z=1");
  }
  std::vector<double> gain(nu, 0.0);
  for (std::size_t m = 0; m < nu; ++m) {
    double num = 0.0;
    for (std::size_t j = 0; j < nb; ++j) num += b(j, m);
    gain[m] = num / denom;
  }
  return gain;
}

void ArxModel::validate() const {
  if (nu == 0) throw std::invalid_argument("ArxModel: need at least one input");
  if (nb == 0) throw std::invalid_argument("ArxModel: need at least one input lag");
  if (a.size() != na) throw std::invalid_argument("ArxModel: a has wrong length");
  if (b.rows() != nb || b.cols() != nu) {
    throw std::invalid_argument("ArxModel: b has wrong shape");
  }
}

}  // namespace vdc::control
