// Shared by the figure benches: one summary line about how the scenario's
// telemetry was stored — the tsdb store's bounded footprint (ring pages,
// rollup points, and the storage-model bytes/sample) next to the figure's
// own output.
#pragma once

#include <cstdio>

#include "telemetry/recorder.hpp"

namespace vdc::bench {

inline void print_telemetry_footprint(const telemetry::Recorder& recorder) {
  const telemetry::tsdb::Tsdb& db = recorder.tsdb();
  std::size_t samples = 0;
  std::size_t tier1_points = 0;
  std::size_t tier2_points = 0;
  for (std::size_t m = 0; m < db.metric_count(); ++m) {
    const auto id = static_cast<telemetry::tsdb::MetricId>(m);
    samples += db.samples_appended(id);
    tier1_points += db.finalized(id, telemetry::tsdb::Tier::kPeriod).size();
    tier2_points += db.finalized(id, telemetry::tsdb::Tier::kHourly).size();
  }
  const std::size_t bytes = db.approx_memory_bytes();
  std::printf(
      "# telemetry: tsdb backend — %zu metrics, %zu samples in %zu pages, "
      "%zu tier-1 + %zu tier-2 points, ~%.1f KiB (%.1f bytes/sample)\n",
      db.metric_count(), samples, db.pages_live(), tier1_points, tier2_points,
      static_cast<double>(bytes) / 1024.0,
      samples > 0 ? static_cast<double>(bytes) / static_cast<double>(samples) : 0.0);
}

}  // namespace vdc::bench
