// The reference kernel: a fixed stretch of arithmetic whose host time
// tells how fast the core runs at the moment, so that run.py can rescale
// the end-to-end host timings to a nominal core speed (see README.md,
// "Host timings").
//
// It is two dependent chains of floating-point multiply-adds and a 64-bit
// linear congruential step, all in registers: no memory traffic, so it
// sees the core's clock and its share of the physical core, and nothing of
// the simulator. Its code is the benchmark's own and does not call the
// simulator library, so a change to the simulator leaves its time alone.
#include <cstdint>

#include "bench.hpp"

namespace perfbench {

namespace {
volatile double g_reference_sink = 0.0;
}  // namespace

double reference_kernel_s() {
  constexpr int kSteps = 30'000'000;
  const Clock::time_point begin = Clock::now();
  double a = 1.0;
  double b = 0.5;
  std::uint64_t x = 1;
  for (int i = 0; i < kSteps; ++i) {
    a = a * 1.0000001 + b;
    b = b * 0.9999999 + 1e-9;
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  g_reference_sink = a + b + static_cast<double>(x & 1023U);
  return seconds_between(begin, Clock::now());
}

}  // namespace perfbench
