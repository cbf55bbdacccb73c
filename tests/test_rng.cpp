#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/statistics.hpp"

namespace vdc::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(1, 4);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
    saw_lo = saw_lo || x == 1;
    saw_hi = saw_hi || x == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, IndexThrowsOnEmpty) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, ExponentialHasConfiguredMean) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.05);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.bounded_pareto(2.0, 1.0, 10.0);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 10.0 + 1e-9);
  }
}

TEST(Rng, BoundedParetoMatchesAnalyticMean) {
  // Mean of bounded Pareto(alpha=2, L=1, H=10) is
  // L^a/(1-(L/H)^a) * a/(a-1) * (L^{1-a} - H^{1-a}).
  const double alpha = 2.0;
  const double lo = 1.0;
  const double hi = 10.0;
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double expected = la / (1.0 - la / ha) * alpha / (alpha - 1.0) *
                          (1.0 / std::pow(lo, alpha - 1.0) - 1.0 / std::pow(hi, alpha - 1.0));
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.bounded_pareto(alpha, lo, hi));
  EXPECT_NEAR(s.mean(), expected, 0.03 * expected);
}

TEST(Rng, BoundedParetoRejectsBadBounds) {
  Rng rng(1);
  EXPECT_THROW(rng.bounded_pareto(2.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.bounded_pareto(2.0, 2.0, 1.0), std::invalid_argument);
}

// Regression: exponential(0.0) divided by zero building the distribution
// (rate 1/0 = inf) and negative/NaN means were accepted just as silently.
TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(rng.exponential(std::numeric_limits<double>::infinity()), std::invalid_argument);
}

// Regression: alpha <= 0 inverted the bounded-Pareto CDF tail and produced
// samples outside [lo, hi] without any diagnostic.
TEST(Rng, BoundedParetoRejectsNonPositiveAlpha) {
  Rng rng(1);
  EXPECT_THROW(rng.bounded_pareto(0.0, 1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(rng.bounded_pareto(-1.5, 1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(rng.bounded_pareto(std::numeric_limits<double>::quiet_NaN(), 1.0, 10.0),
               std::invalid_argument);
}

// The draw the simulator used before BoundedPareto cached its constants,
// written out inline: every cached sample must equal it bit for bit.
double inline_bounded_pareto(Rng& rng, double alpha, double lo, double hi) {
  const double u = rng.uniform(0.0, 1.0);
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

TEST(BoundedPareto, SamplesMatchTheInlineFormulaBitForBit) {
  struct Shape {
    double alpha, lo, hi;
  };
  // The testbed tiers (alpha 2.2 on [mean/4, 12 mean]) and wider shapes.
  const Shape shapes[] = {{2.2, 0.002, 0.096}, {2.2, 0.003, 0.144}, {1.1, 0.01, 1e6},
                          {1.5, 0.05, 5.0},    {0.7, 1.0, 10.0},    {3.0, 1e-3, 2e-3}};
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 0xdeadbeefull}) {
    for (const Shape& shape : shapes) {
      const BoundedPareto dist(shape.alpha, shape.lo, shape.hi);
      Rng cached(seed);
      Rng delegated(seed);
      Rng inline_rng(seed);
      for (int i = 0; i < 2000; ++i) {
        const double expected = inline_bounded_pareto(inline_rng, shape.alpha, shape.lo, shape.hi);
        EXPECT_EQ(cached.bounded_pareto(dist), expected);
        EXPECT_EQ(delegated.bounded_pareto(shape.alpha, shape.lo, shape.hi), expected);
      }
    }
  }
}

TEST(BoundedPareto, MeanMatchesTheClosedForm) {
  for (const double alpha : {1.1, 1.5, 2.0, 2.2, 3.0, 0.5}) {
    const double lo = 0.25;
    const double hi = 12.0;
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    const double expected = la / (1.0 - la / ha) * alpha / (alpha - 1.0) *
                            (1.0 / std::pow(lo, alpha - 1.0) - 1.0 / std::pow(hi, alpha - 1.0));
    const BoundedPareto dist(alpha, lo, hi);
    EXPECT_EQ(dist.mean(), expected) << "alpha " << alpha;
    EXPECT_GT(dist.mean(), lo);
    EXPECT_LT(dist.mean(), hi);
  }
  // The closed form agrees with a sample mean.
  const BoundedPareto dist(2.0, 1.0, 10.0);
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.bounded_pareto(dist));
  EXPECT_NEAR(s.mean(), dist.mean(), 0.03 * dist.mean());
}

TEST(BoundedPareto, ConstructorRejectsWhatTheDrawRejects) {
  EXPECT_THROW(BoundedPareto(0.0, 1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(BoundedPareto(std::numeric_limits<double>::infinity(), 1.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedPareto(2.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(BoundedPareto(2.0, 2.0, 1.0), std::invalid_argument);
  EXPECT_TRUE(std::isnan(BoundedPareto(1.0, 1.0, 10.0).mean()));
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(-1.0, 3.0));
  EXPECT_NEAR(s.mean(), -1.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // The child stream must not mirror the parent's subsequent outputs.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == child.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace vdc::util
