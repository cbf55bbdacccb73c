// Seeded random-number utilities. Every stochastic component in the library
// takes an explicit `Rng` (or a seed) so simulations are reproducible.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>

namespace vdc::util {

/// SplitMix64 finalizer: maps a seed to a well-mixed 64-bit value in one
/// shot. Used to derive independent per-target RNG stream seeds from one
/// plan seed (seed + k*gamma for target k) — nearby inputs land on
/// uncorrelated outputs, so per-app/per-shard streams derived this way are
/// statistically independent AND stable: a target's stream depends only on
/// (base seed, target id), never on how many other streams exist or in
/// which order they drew. That is the property that makes fault sequences
/// shard-count-invariant.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The SplitMix64 golden-ratio increment: the canonical stride for deriving
/// the k-th stream seed as splitmix64(base + k * kSplitMix64Gamma).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// Bounded Pareto on [lo, hi] with shape alpha — the classic heavy-tailed
/// service-demand distribution for web requests. The constants of the
/// inverse CDF (lo^alpha, hi^alpha, -1/alpha) and the mean are computed once
/// here, so a per-tier sampler draws with one `pow` instead of three.
class BoundedPareto {
 public:
  /// alpha must be positive and finite (alpha <= 0 inverts the CDF's tail
  /// and would produce samples outside [lo, hi]); 0 < lo < hi.
  BoundedPareto(double alpha, double lo, double hi) {
    if (!(alpha > 0.0) || !std::isfinite(alpha)) {
      throw std::invalid_argument("bounded_pareto: alpha must be positive and finite");
    }
    if (!(lo > 0.0) || !(hi > lo)) throw std::invalid_argument("bounded_pareto: bad bounds");
    la_ = std::pow(lo, alpha);
    ha_ = std::pow(hi, alpha);
    neg_inv_alpha_ = -1.0 / alpha;
    mean_ = la_ / (1.0 - la_ / ha_) * alpha / (alpha - 1.0) *
            (1.0 / std::pow(lo, alpha - 1.0) - 1.0 / std::pow(hi, alpha - 1.0));
  }

  /// The inverse CDF at u in [0, 1).
  [[nodiscard]] double quantile(double u) const {
    return std::pow(-(u * ha_ - u * la_ - ha_) / (ha_ * la_), neg_inv_alpha_);
  }

  /// The closed-form mean. Defined for alpha != 1; at alpha == 1 the
  /// closed form divides by zero and this is NaN.
  [[nodiscard]] double mean() const noexcept { return mean_; }

 private:
  double la_ = 0.0;
  double ha_ = 0.0;
  double neg_inv_alpha_ = 0.0;
  double mean_ = 0.0;
};

/// Thin wrapper around std::mt19937_64 with the distributions the simulator
/// needs. Copyable; copies evolve independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Index into a container of the given size.
  std::size_t index(std::size_t size) {
    if (size == 0) throw std::invalid_argument("Rng::index: empty range");
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential with the given mean (not rate). The mean must be positive
  /// and finite: 0 would build an infinite-rate distribution (1/0) and a
  /// negative or NaN mean a meaningless one, all silently.
  double exponential(double mean) {
    if (!(mean > 0.0) || !std::isfinite(mean)) {
      throw std::invalid_argument("Rng::exponential: mean must be positive and finite");
    }
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// One bounded-Pareto draw (see BoundedPareto; it validates the shape and
  /// bounds). Samplers that draw repeatedly with the same parameters keep a
  /// BoundedPareto and use the overload below.
  double bounded_pareto(double alpha, double lo, double hi) {
    return bounded_pareto(BoundedPareto(alpha, lo, hi));
  }
  double bounded_pareto(const BoundedPareto& dist) { return dist.quantile(uniform(0.0, 1.0)); }

  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Splits off an independently seeded child generator (for components that
  /// must not perturb each other's streams).
  Rng split() { return Rng(engine_()); }

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace vdc::util
