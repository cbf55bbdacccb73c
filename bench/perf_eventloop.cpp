// Event-loop performance regression harness.
//
// Drives an identical closed-loop workload — N clients cycling through a
// processor-sharing queue with heavy-tailed demands and exponential think
// times — through both the optimized engine (sim::Simulation slab +
// virtual-time sim::PsQueue) and the retained naive reference
// (sim::naive::*), and reports throughput for each at 1k / 10k / 100k
// resident jobs. Results are written as machine-readable JSON
// (BENCH_eventloop.json) so CI can gate on regressions.
//
// Flags:
//   --quick            smaller completion targets, skip the 100k size
//                      (CI smoke mode)
//   --full-naive       also run the naive engine at 100k jobs (minutes)
//   --out PATH         where to write the JSON (default BENCH_eventloop.json)
//   --min-speedup X    exit non-zero if optimized/naive events-per-second
//                      at 10k jobs falls below X (CI gate; 0 disables)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/naive.hpp"
#include "sim/ps_queue.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace {

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t completions = 0;
  double wall_s = 0.0;

  [[nodiscard]] double events_per_sec() const { return static_cast<double>(events) / wall_s; }
  [[nodiscard]] double ns_per_event() const {
    return wall_s * 1e9 / static_cast<double>(events);
  }
  [[nodiscard]] double requests_per_sec() const {
    return static_cast<double>(completions) / wall_s;
  }
};

/// Runs the closed-loop workload on any engine exposing the shared
/// Simulation/PsQueue API. The Rng draw sequence is a pure function of the
/// completion order, which both engines reproduce identically, so the two
/// measurements execute the same logical event sequence.
template <typename Sim, typename Queue>
RunResult run_closed_loop(std::size_t n_jobs, std::uint64_t target_completions) {
  Sim sim;
  vdc::util::Rng rng(0xbadc0ffee0ddf00dull);
  std::uint64_t completions = 0;

  const vdc::util::BoundedPareto demand_dist(1.5, 0.05, 5.0);
  auto demand = [&rng, &demand_dist]() { return rng.bounded_pareto(demand_dist); };

  Queue* queue_ptr = nullptr;
  Queue queue(sim, 2.4, [&](std::uint64_t /*job*/) {
    ++completions;
    if (completions >= target_completions) return;
    const double think = rng.exponential(0.01);
    sim.schedule_after(think, [&] { queue_ptr->add_job(demand()); });
  });
  queue_ptr = &queue;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_jobs; ++i) queue.add_job(demand());
  while (completions < target_completions && sim.step()) {
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunResult out;
  out.events = sim.events_executed();
  out.completions = completions;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (out.wall_s <= 0.0) out.wall_s = 1e-9;  // clock granularity floor
  return out;
}

void append_run_json(std::string& json, const char* key, const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"events\": %llu, \"completions\": %llu, \"wall_s\": %.6f, "
                "\"events_per_sec\": %.1f, \"ns_per_event\": %.1f, \"requests_per_sec\": %.1f}",
                key, static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.completions), r.wall_s, r.events_per_sec(),
                r.ns_per_event(), r.requests_per_sec());
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool full_naive = false;
  std::string out_path = "BENCH_eventloop.json";
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--full-naive") == 0) {
      full_naive = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<std::size_t> sizes = {1000, 10000, 100000};
  if (quick) sizes.pop_back();

  std::printf("# perf_eventloop: optimized engine vs retained naive reference\n");
  std::printf("%-8s %-10s %14s %12s %14s\n", "jobs", "engine", "events/sec", "ns/event",
              "requests/sec");

  std::string json = "{\n  \"bench\": \"perf_eventloop\",\n";
  json += quick ? "  \"mode\": \"quick\",\n" : "  \"mode\": \"full\",\n";
  json += "  \"sizes\": [\n";

  double speedup_at_10k = 0.0;
  bool first = true;
  for (const std::size_t n : sizes) {
    // Enough completions to amortize warm-up but bounded so the naive
    // engine's O(n)-per-event sync stays tolerable at 10k jobs.
    const std::uint64_t target = quick ? n : 2 * n;
    const RunResult opt = run_closed_loop<vdc::sim::Simulation, vdc::sim::PsQueue>(n, target);
    std::printf("%-8zu %-10s %14.0f %12.1f %14.1f\n", n, "optimized", opt.events_per_sec(),
                opt.ns_per_event(), opt.requests_per_sec());

    // The naive engine at 100k jobs walks 100k residuals per event; that run
    // takes minutes and is opt-in.
    const bool run_naive = n < 100000 || full_naive;
    RunResult naive;
    if (run_naive) {
      naive =
          run_closed_loop<vdc::sim::naive::Simulation, vdc::sim::naive::PsQueue>(n, target);
      std::printf("%-8zu %-10s %14.0f %12.1f %14.1f\n", n, "naive", naive.events_per_sec(),
                  naive.ns_per_event(), naive.requests_per_sec());
    }

    const double speedup = run_naive ? opt.events_per_sec() / naive.events_per_sec() : 0.0;
    if (run_naive) std::printf("%-8zu %-10s %13.2fx\n", n, "speedup", speedup);
    if (n == 10000) speedup_at_10k = speedup;

    if (!first) json += ",\n";
    first = false;
    char head[64];
    std::snprintf(head, sizeof(head), "    {\"jobs\": %zu,\n", n);
    json += head;
    append_run_json(json, "optimized", opt);
    json += ",\n";
    if (run_naive) {
      append_run_json(json, "naive", naive);
      char tail[64];
      std::snprintf(tail, sizeof(tail), ",\n      \"speedup\": %.2f}", speedup);
      json += tail;
    } else {
      json += "      \"naive\": null}";
    }
  }
  json += "\n  ],\n";
  char tail[64];
  std::snprintf(tail, sizeof(tail), "  \"speedup_at_10k\": %.2f\n}\n", speedup_at_10k);
  json += tail;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }

  if (min_speedup > 0.0 && speedup_at_10k < min_speedup) {
    std::fprintf(stderr, "REGRESSION: speedup at 10k jobs %.2fx < required %.2fx\n",
                 speedup_at_10k, min_speedup);
    return 1;
  }
  return 0;
}
