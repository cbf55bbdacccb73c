#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "trace/naive.hpp"

namespace vdc::trace {
namespace {

SyntheticTraceOptions small_options(std::uint64_t seed = 1) {
  SyntheticTraceOptions o;
  o.servers = 120;
  o.samples = kPaperSampleCount;
  o.seed = seed;
  return o;
}

void expect_bit_identical(const UtilizationTrace& fast, const UtilizationTrace& reference) {
  ASSERT_EQ(fast.server_count(), reference.server_count());
  ASSERT_EQ(fast.sample_count(), reference.sample_count());
  EXPECT_EQ(fast.labels, reference.labels);
  for (std::size_t s = 0; s < fast.server_count(); ++s) {
    const std::span<const double> a = fast.series(s);
    const std::span<const double> b = reference.series(s);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0) << "server " << s;
  }
}

TEST(Synthetic, DimensionsMatchOptions) {
  const UtilizationTrace t = generate_synthetic_trace(small_options());
  EXPECT_EQ(t.server_count(), 120u);
  EXPECT_EQ(t.sample_count(), kPaperSampleCount);
  EXPECT_EQ(t.labels.size(), 120u);
}

TEST(Synthetic, UtilizationWithinBounds) {
  const UtilizationTrace t = generate_synthetic_trace(small_options());
  for (std::size_t s = 0; s < t.server_count(); ++s) {
    for (const double u : t.series(s)) {
      EXPECT_GE(u, 0.01);
      EXPECT_LE(u, 1.0);
    }
  }
}

TEST(Synthetic, DeterministicPerSeed) {
  const UtilizationTrace a = generate_synthetic_trace(small_options(7));
  const UtilizationTrace b = generate_synthetic_trace(small_options(7));
  const UtilizationTrace c = generate_synthetic_trace(small_options(8));
  EXPECT_DOUBLE_EQ(a.at(3, 100), b.at(3, 100));
  EXPECT_DOUBLE_EQ(a.global_mean(), b.global_mean());
  EXPECT_NE(a.global_mean(), c.global_mean());
}

TEST(Synthetic, AllFourSectorsPresent) {
  const UtilizationTrace t = generate_synthetic_trace(small_options());
  const std::set<std::string> sectors(t.labels.begin(), t.labels.end());
  EXPECT_TRUE(sectors.contains("manufacturing"));
  EXPECT_TRUE(sectors.contains("telecom"));
  EXPECT_TRUE(sectors.contains("financial"));
  EXPECT_TRUE(sectors.contains("retail"));
}

TEST(Synthetic, DiurnalStructureVisible) {
  // Averaged over servers and days, business hours must exceed night hours.
  const UtilizationTrace t = generate_synthetic_trace(small_options());
  double day = 0.0;
  double night = 0.0;
  int day_count = 0;
  int night_count = 0;
  for (std::size_t k = 0; k < t.sample_count(); ++k) {
    const double hour = std::fmod(static_cast<double>(k) * 900.0 / 3600.0, 24.0);
    const int weekday = static_cast<int>(static_cast<double>(k) * 900.0 / 86400.0) % 7;
    if (weekday >= 5) continue;  // weekdays only for the sharpest contrast
    if (hour >= 9.0 && hour < 17.0) {
      day += t.mean_at(k);
      ++day_count;
    } else if (hour < 5.0) {
      night += t.mean_at(k);
      ++night_count;
    }
  }
  ASSERT_GT(day_count, 0);
  ASSERT_GT(night_count, 0);
  EXPECT_GT(day / day_count, 1.3 * night / night_count);
}

TEST(Synthetic, FinancialSectorQuietOnWeekends) {
  SyntheticTraceOptions o = small_options();
  o.sectors = {default_sector_profiles()[2]};  // financial only
  o.sector_weights = {1.0};
  const UtilizationTrace t = generate_synthetic_trace(o);
  double weekday = 0.0;
  double weekend = 0.0;
  int wd = 0;
  int we = 0;
  for (std::size_t k = 0; k < t.sample_count(); ++k) {
    const int day = static_cast<int>(static_cast<double>(k) * 900.0 / 86400.0) % 7;
    if (day >= 5) {
      weekend += t.mean_at(k);
      ++we;
    } else {
      weekday += t.mean_at(k);
      ++wd;
    }
  }
  EXPECT_GT(weekday / wd, 1.15 * weekend / we);
}

TEST(Synthetic, CustomSectorMixRespected) {
  SyntheticTraceOptions o = small_options();
  o.sectors = default_sector_profiles();
  o.sector_weights = {1.0, 0.0, 0.0, 0.0};  // manufacturing only
  const UtilizationTrace t = generate_synthetic_trace(o);
  for (const std::string& label : t.labels) EXPECT_EQ(label, "manufacturing");
}

TEST(Synthetic, ValidatesWeights) {
  SyntheticTraceOptions o = small_options();
  o.sectors = default_sector_profiles();
  o.sector_weights = {1.0};  // wrong length
  EXPECT_THROW(generate_synthetic_trace(o), std::invalid_argument);
  o.sector_weights = {0.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(generate_synthetic_trace(o), std::invalid_argument);
  o.sector_weights = {2.0, -1.0, 0.0, 0.0};  // sums to 1, but would always pick the first
  EXPECT_THROW(generate_synthetic_trace(o), std::invalid_argument);
}

TEST(Synthetic, FlatSectorHasNoDailyShape) {
  // A zero diurnal amplitude is a flat sector: neither where its peaks sit
  // nor its weekend factor can matter.
  SyntheticTraceOptions o = small_options(4);
  o.servers = 20;
  SectorProfile flat = default_sector_profiles()[0];
  flat.diurnal_amplitude = 0.0;
  o.sectors = {flat};
  const UtilizationTrace a = generate_synthetic_trace(o);
  o.sectors[0].peak_hour = 3.0;
  o.sectors[0].second_peak_hour = 20.0;
  o.sectors[0].weekend_factor = 5.0;
  expect_bit_identical(generate_synthetic_trace(o), a);
}

/// One invalid value of one field, and the field the rejection must name.
struct Rejection {
  const char* field;
  void (*spoil)(SyntheticTraceOptions&);
};

void PrintTo(const Rejection& r, std::ostream* os) { *os << r.field; }

class SyntheticRejects : public testing::TestWithParam<Rejection> {};

TEST_P(SyntheticRejects, NamesTheField) {
  SyntheticTraceOptions o = small_options();
  o.servers = 4;
  o.samples = 8;
  o.sectors = default_sector_profiles();
  GetParam().spoil(o);
  try {
    (void)generate_synthetic_trace(o);
    FAIL() << "accepted an invalid " << GetParam().field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().field), std::string::npos) << e.what();
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Fields, SyntheticRejects,
    testing::Values(
        Rejection{"sector_weights", [](SyntheticTraceOptions& o) {
                    o.sector_weights = {1.0, kNan, 1.0, 1.0};
                  }},
        Rejection{"sample_period_s", [](SyntheticTraceOptions& o) { o.sample_period_s = kInf; }},
        Rejection{"base_mean", [](SyntheticTraceOptions& o) { o.sectors[1].base_mean = kNan; }},
        Rejection{"base_spread", [](SyntheticTraceOptions& o) { o.sectors[1].base_spread = 0.0; }},
        Rejection{"diurnal_amplitude",
                  [](SyntheticTraceOptions& o) { o.sectors[1].diurnal_amplitude = -0.1; }},
        Rejection{"peak_hour", [](SyntheticTraceOptions& o) { o.sectors[1].peak_hour = kInf; }},
        Rejection{"peak_width_h",
                  [](SyntheticTraceOptions& o) { o.sectors[1].peak_width_h = 0.0; }},
        Rejection{"second_peak_hour",
                  [](SyntheticTraceOptions& o) { o.sectors[1].second_peak_hour = kNan; }},
        Rejection{"weekend_factor",
                  [](SyntheticTraceOptions& o) { o.sectors[1].weekend_factor = -kInf; }},
        Rejection{"noise_sigma",
                  [](SyntheticTraceOptions& o) { o.sectors[1].noise_sigma = -0.01; }},
        Rejection{"noise_phi", [](SyntheticTraceOptions& o) { o.sectors[1].noise_phi = 1.5; }},
        Rejection{"burst_probability",
                  [](SyntheticTraceOptions& o) { o.sectors[1].burst_probability = 1.5; }},
        Rejection{"burst_amplitude",
                  [](SyntheticTraceOptions& o) { o.sectors[1].burst_amplitude = kNan; }},
        Rejection{"burst_decay",
                  [](SyntheticTraceOptions& o) { o.sectors[1].burst_decay = -0.5; }}),
    [](const testing::TestParamInfo<Rejection>& param) { return std::string(param.param.field); });

TEST(Synthetic, MeanUtilizationInDataCenterRange) {
  // Enterprise servers average 10-40% utilization; the synthetic trace
  // must land there for the consolidation results to be meaningful.
  const UtilizationTrace t = generate_synthetic_trace(small_options());
  EXPECT_GT(t.global_mean(), 0.10);
  EXPECT_LT(t.global_mean(), 0.45);
}

/// FNV-1a over every value's bits, in server-major order, then every label
/// with a terminating NUL.
std::uint64_t trace_hash(const UtilizationTrace& t) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  for (std::size_t s = 0; s < t.server_count(); ++s) {
    for (const double u : t.series(s)) {
      const auto bits = std::bit_cast<std::uint64_t>(u);
      for (int shift = 0; shift < 64; shift += 8) mix(static_cast<std::uint8_t>(bits >> shift));
    }
  }
  for (const std::string& label : t.labels) {
    for (const char c : label) mix(static_cast<std::uint8_t>(c));
    mix(0);
  }
  return hash;
}

TEST(Synthetic, DefaultTraceMatchesItsPins) {
  // The paper-sized trace (5,415 servers x 672 samples) every trace
  // experiment replays, at the default seed and at seeds 1 and 2.
  struct Pin {
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {SyntheticTraceOptions{}.seed, 0x77c03b43cc41ef18ULL},
      {1, 0x4475663c6ecec79fULL},
      {2, 0x7c56a33c220b326aULL},
  };
  for (const Pin& pin : pins) {
    SyntheticTraceOptions o;
    o.seed = pin.seed;
    const UtilizationTrace t = generate_synthetic_trace(o);
    ASSERT_EQ(t.server_count(), kPaperServerCount);
    ASSERT_EQ(t.sample_count(), kPaperSampleCount);
    EXPECT_EQ(trace_hash(t), pin.hash) << "seed " << pin.seed << std::hex << " hash 0x"
                                       << trace_hash(t);
  }
}

TEST(Synthetic, MatchesTheNaiveGeneratorBitForBit) {
  // Periods that divide a day reuse each server's daily shape from the day
  // before; 700 s and 1,000 s do not (their hours never repeat at a lag of
  // one day's samples), and 90,000 s is longer than a day.
  struct Case {
    double period_s;
    std::size_t samples;
  };
  const Case cases[] = {
      {900.0, 2 * kPaperSampleCount},  // two weeks
      {3600.0, 24 * 16},
      {700.0, 2000},
      {1000.0, 1500},
      {90000.0, 40},
      {900.0, 50},  // shorter than a day
      {900.0, 1},   // a single sample
  };
  for (const std::uint64_t seed : {1u, 2u}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " period " << c.period_s
                                      << " samples " << c.samples);
      SyntheticTraceOptions o = small_options(seed);
      o.servers = 60;
      o.samples = c.samples;
      o.sample_period_s = c.period_s;
      expect_bit_identical(generate_synthetic_trace(o), naive::generate_synthetic_trace(o));
    }
  }
}

TEST(Synthetic, MatchesTheNaiveGeneratorWithoutSecondPeaks) {
  // Manufacturing and telecom have no second peak.
  SyntheticTraceOptions o = small_options(3);
  o.servers = 80;
  const std::vector<SectorProfile> all = default_sector_profiles();
  o.sectors = {all[0], all[1]};
  o.sector_weights = {0.3, 0.7};
  for (const double period_s : {900.0, 1000.0}) {
    o.sample_period_s = period_s;
    expect_bit_identical(generate_synthetic_trace(o), naive::generate_synthetic_trace(o));
  }
}

}  // namespace
}  // namespace vdc::trace
