// Synthetic stand-in for the paper's proprietary utilization trace.
//
// The real trace covers 5,415 servers from ten companies in manufacturing,
// telecommunications, financial and retail sectors over one week at 15-min
// resolution. This generator reproduces the features the consolidation
// algorithms actually feed on: low average utilization with pronounced
// diurnal peaks, sector-specific shapes (business-hours finance vs. flat
// 24/7 telecom), weekday/weekend contrast, AR(1) noise and occasional
// bursts. Seeded and fully deterministic.
//
// Structure. A server's level at sample k is its base plus its amplitude
// times its daily shape at k's hour-of-day (scaled by the weekend factor on
// Saturdays and Sundays), plus AR(1) noise and a decaying burst. The shape
// is a pure function of the hour, so the generator builds a calendar once
// per trace (each sample's hour-of-day, weekend flag and hour slot) and
// evaluates each server's shape once per slot. A sample shares the slot of
// the sample one day earlier only where their hours are equal bit for bit,
// as they are for any period that divides a day; otherwise the hour gets a
// slot of its own, which is per-sample evaluation.
//
// Bit-identity contract. The per-sample loop draws exactly what the
// original per-sample formulation drew: the same variates, in the same
// order, each from a freshly built distribution, with the same arithmetic.
// So every value and label, and every plan and energy computed from them,
// is identical for a given seed and options. The retained per-sample loop
// (tests/oracle/trace/naive.*) and Synthetic.DefaultTraceMatchesItsPins
// hold the generator to this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace vdc::trace {

/// One sector's utilization profile. Every field must be finite;
/// generate_synthetic_trace rejects a profile that breaks a constraint
/// below with std::invalid_argument naming the field.
struct SectorProfile {
  std::string name;
  double base_mean = 0.15;      ///< long-run utilization floor
  double base_spread = 0.05;    ///< per-server variation of the floor; > 0
  /// Mean per-server amplitude of the daily shape, drawn with a spread of
  /// 0.2x itself, so > 0; or exactly 0 for a flat sector, whose servers
  /// have no daily shape at all.
  double diurnal_amplitude = 0.35;
  double peak_hour = 14.0;      ///< local time of the daily peak
  double peak_width_h = 4.0;    ///< gaussian width of the peak; > 0
  double second_peak_hour = -1.0;  ///< < 0 disables the second peak
  double weekend_factor = 0.5;  ///< multiplier on the diurnal part Sat/Sun
  double noise_sigma = 0.03;    ///< AR(1) innovation std; > 0
  double noise_phi = 0.7;       ///< AR(1) coefficient, in [-1, 1]
  double burst_probability = 0.002;  ///< per-sample chance of a burst, in [0, 1]
  double burst_amplitude = 0.35;
  double burst_decay = 0.6;     ///< burst geometric decay per sample, in [0, 1]
};

/// The four sectors named in the paper (weights sum to 1 in the default mix).
[[nodiscard]] std::vector<SectorProfile> default_sector_profiles();

struct SyntheticTraceOptions {
  std::size_t servers = kPaperServerCount;
  std::size_t samples = kPaperSampleCount;
  double sample_period_s = kPaperSamplePeriodS;  ///< finite and > 0
  std::uint64_t seed = 2008'07'14;
  /// Sector mix; defaults to default_sector_profiles() with equal-ish
  /// weights when empty.
  std::vector<SectorProfile> sectors;
  /// One finite, non-negative weight per sector, with a positive sum;
  /// all 1 when empty.
  std::vector<double> sector_weights;
};

[[nodiscard]] UtilizationTrace generate_synthetic_trace(const SyntheticTraceOptions& options = {});

}  // namespace vdc::trace
