// Shared pieces of the benchmark driver: host clocks, span statistics, the
// record one repetition of a workload fills in, and the workload table.
//
// A repetition is one complete workload run: set-up (model identification
// and Testbed construction, or trace generation and simulator
// construction) followed by the run phase over a fixed simulated horizon.
// Plain repetitions are what the end-to-end metrics are taken from; traced
// repetitions add the marker timeline and the layer replays.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Simulated outputs of one repetition. Everything in here is a pure
/// function of the workload and its seed: the correctness gate requires it
/// to be bit-identical across every repetition, traced or not.
struct SimOutputs {
  double energy_kj = 0.0;
  double p90_err_pct = 0.0;   ///< Testbed workloads (0 for trace)
  double overload_pct = 0.0;
  std::uint64_t events = 0;   ///< event-loop events, bench markers excluded
  std::uint64_t requests = 0; ///< completed requests
  std::uint64_t migrations = 0;
  std::uint64_t plans = 0;
  std::uint64_t barriers = 0;
  std::uint64_t resident_jobs_max = 0;
};

/// Per-layer numbers of one traced repetition: spans with one sample per
/// occurrence (or per replayed call), and plain values (counts, totals,
/// shares).
struct Layers {
  std::map<std::string, std::vector<double>> spans;
  std::map<std::string, double> values;
};

/// Host time of one pass of the reference kernel (reference.cpp), a fixed
/// stretch of the benchmark's own arithmetic that measures how fast the
/// core runs at the moment.
[[nodiscard]] double reference_kernel_s();

struct Rep {
  double setup_s = 0.0;        ///< host time per set-up (see Workload)
  double run_s = 0.0;          ///< host time of the run phase
  double sim_seconds = 0.0;    ///< simulated horizon of the run phase
  double replay_s = 0.0;       ///< traced only: host time spent in replays and sampling
  SimOutputs out;
  /// Problems found while checking this repetition's outputs (request
  /// conservation, value ranges, exercise assertions). Empty when correct.
  std::vector<std::string> errors;
  Layers layers;               ///< traced only
};

/// Worker threads every workload uses: the shards advance one after
/// another and the MPC decide stays serial. Recorded in the output header.
inline constexpr std::size_t kThreads = 1;

struct Workload {
  std::string name;
  std::function<Rep(std::uint64_t seed, bool traced)> run;
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace perfbench
