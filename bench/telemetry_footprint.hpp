// Shared by the figure benches: one summary line about how the scenario's
// telemetry was stored — the Recorder's series, the samples (rows) they
// retain, and the bytes their buffers hold — next to the figure's own
// output.
#pragma once

#include <cstdio>
#include <string>

#include "telemetry/recorder.hpp"

namespace vdc::bench {

inline void print_telemetry_footprint(const telemetry::Recorder& recorder) {
  std::size_t samples = 0;
  for (const std::string& name : recorder.series_names()) samples += recorder.size(name);
  const std::size_t bytes = recorder.approx_memory_bytes();
  std::printf("# telemetry: %zu series, %zu retained samples, ~%.1f KiB (%.1f bytes/sample)\n",
              recorder.series_count(), samples, static_cast<double>(bytes) / 1024.0,
              samples > 0 ? static_cast<double>(bytes) / static_cast<double>(samples) : 0.0);
}

}  // namespace vdc::bench
