// Fleet-scale consolidation performance regression harness.
//
// Runs a full IPAC pass (overload relief + consolidation rounds, Minimum
// Slack inside) over seeded synthetic fleets through both the fast engine
// (incremental WorkingPlacement aggregates, SlackIndex target selection,
// branch-and-bound Minimum Slack) and the retained naive reference
// (consolidate::naive), and reports plans/sec and ns per DFS step at
// 1k servers / 5k VMs and 10k servers / 50k VMs. Each size runs at two CPU
// utilisation targets: 1.0 (raw capacity) and the paper's 0.8, where
// Minimum Slack meets candidates that fit the server but not the target.
// Results are written as machine-readable JSON (BENCH_consolidation.json)
// so CI can gate on regressions, mirroring bench/perf_eventloop.
//
// The acceptance context: a 10k-server / 50k-VM pass must complete well
// inside one consolidation period (the optimizer's default 300 s) — the
// JSON records the measured wall time per plan against that budget.
//
// Flags:
//   --quick            1k-server size only (both targets), fewer repetitions
//                      (CI smoke)
//   --full-naive       also run the naive engine at 10k servers (slow)
//   --out PATH         where to write the JSON (default BENCH_consolidation.json)
//   --min-speedup X    exit non-zero if fast/naive plans-per-second at 1k
//                      servers and target 1.0 falls below X (CI gate; 0
//                      disables)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "consolidate/ipac.hpp"
#include "consolidate/naive.hpp"
#include "util/rng.hpp"

namespace {

using namespace vdc;
using namespace vdc::consolidate;

/// Consolidation period the fleet pass must fit inside (the optimizer's
/// default invocation period in the two-level testbed).
constexpr double kBudgetS = 300.0;

/// Heterogeneous fleet in the micro_algorithms mold: capacities 3-12 GHz,
/// VMs 0.1-1.5 GHz round-robin over the awake servers. Every 10th server
/// starts asleep and empty (a wake target), which exercises IPAC's
/// active-first ordering; small servers can start overloaded, which
/// exercises relief.
DataCenterSnapshot random_fleet(std::size_t servers, std::size_t vms, std::uint64_t seed) {
  util::Rng rng(seed);
  DataCenterSnapshot snap;
  std::vector<ServerId> awake;
  for (std::size_t i = 0; i < servers; ++i) {
    ServerSnapshot s;
    s.id = static_cast<ServerId>(i);
    s.max_capacity_ghz = rng.uniform(3.0, 12.0);
    s.memory_mb = rng.uniform(8000.0, 32000.0);
    s.max_power_w = 150.0 + s.max_capacity_ghz * 15.0;
    s.idle_power_w = 0.55 * s.max_power_w;
    s.sleep_power_w = 6.0;
    s.power_efficiency_ghz_per_w = s.max_capacity_ghz / s.max_power_w;
    s.active = i % 10 != 9;
    if (s.active) awake.push_back(s.id);
    snap.servers.push_back(s);
  }
  for (std::size_t i = 0; i < vms; ++i) {
    VmSnapshot vm;
    vm.id = static_cast<VmId>(i);
    vm.cpu_demand_ghz = rng.uniform(0.1, 1.5);
    vm.memory_mb = rng.uniform(400.0, 2000.0);
    snap.vms.push_back(vm);
    snap.servers[awake[i % awake.size()]].hosted.push_back(vm.id);
  }
  return snap;
}

struct RunResult {
  std::size_t plans = 0;
  std::size_t steps = 0;        ///< total Minimum Slack DFS steps
  std::size_t moves = 0;        ///< migrations in the final plan
  std::size_t occupied_after = 0;
  double wall_s = 0.0;

  [[nodiscard]] double plans_per_sec() const { return static_cast<double>(plans) / wall_s; }
  [[nodiscard]] double wall_s_per_plan() const {
    return wall_s / static_cast<double>(plans);
  }
  [[nodiscard]] double ns_per_step() const {
    return steps == 0 ? 0.0 : wall_s * 1e9 / static_cast<double>(steps);
  }
};

template <typename Engine>
RunResult run_engine(const DataCenterSnapshot& snap, const ConstraintSet& constraints,
                     Engine&& engine, std::size_t reps) {
  RunResult out;
  // One untimed warmup plan: both engines allocate scratch and fault pages
  // on their first pass, and at a handful of reps that cold cost would
  // otherwise dominate the steady-state figure the bench reports.
  (void)engine(snap, constraints);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    const IpacReport report = engine(snap, constraints);
    out.steps += report.min_slack_steps;
    out.moves = report.plan.moves.size();
    out.occupied_after = report.occupied_after;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.plans = reps;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (out.wall_s <= 0.0) out.wall_s = 1e-9;  // clock granularity floor
  return out;
}

void append_run_json(std::string& json, const char* key, const RunResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"plans\": %zu, \"wall_s\": %.6f, \"plans_per_sec\": %.3f, "
                "\"wall_s_per_plan\": %.6f, \"dfs_steps\": %zu, \"ns_per_dfs_step\": %.1f, "
                "\"moves\": %zu, \"occupied_after\": %zu}",
                key, r.plans, r.wall_s, r.plans_per_sec(), r.wall_s_per_plan(), r.steps,
                r.ns_per_step(), r.moves, r.occupied_after);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool full_naive = false;
  std::string out_path = "BENCH_consolidation.json";
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

  struct Size {
    std::size_t servers;
    std::size_t vms;
  };
  std::vector<Size> sizes = {{1000, 5000}, {10000, 50000}};
  if (quick) sizes.pop_back();

  // Utilisation targets, each with its fast/naive speedup at 1k servers. The
  // CI speedup gate stays on the 1.0 rows; the 0.8 rows report beside them.
  struct Target {
    double utilization;
    double speedup_at_1k;
  };
  Target targets[] = {{1.0, 0.0}, {0.8, 0.0}};

  std::printf("# perf_consolidation: fast IPAC engine vs retained naive reference\n");
  std::printf("%-20s %-8s %14s %16s %14s %10s\n", "fleet", "engine", "plans/sec",
              "wall_s/plan", "ns/DFS-step", "moves");

  std::string json = "{\n  \"bench\": \"perf_consolidation\",\n";
  json += quick ? "  \"mode\": \"quick\",\n" : "  \"mode\": \"full\",\n";
  char line[96];
  std::snprintf(line, sizeof(line), "  \"budget_s\": %.1f,\n", kBudgetS);
  json += line;
  json += "  \"sizes\": [\n";

  double wall_at_largest = 0.0;
  bool first = true;
  for (const Size size : sizes) {
    const DataCenterSnapshot snap = random_fleet(size.servers, size.vms, /*seed=*/42);
    wall_at_largest = 0.0;  // the budget gate covers every target at the largest size
    for (Target& target : targets) {
      const ConstraintSet constraints = ConstraintSet::standard(target.utilization);
      char label[48];
      std::snprintf(label, sizeof(label), "%zus/%zuv@%.1f", size.servers, size.vms,
                    target.utilization);

      // Repetitions: enough to smooth timer noise on the fast engine; the
      // naive engine is run fewer times (it is the thing being amortized).
      const std::size_t fast_reps = quick ? 3 : (size.servers <= 1000 ? 10 : 3);
      const RunResult fast = run_engine(
          snap, constraints,
          [](const DataCenterSnapshot& s, const ConstraintSet& c) {
            return consolidate::ipac(s, c);
          },
          fast_reps);
      std::printf("%-20s %-8s %14.3f %16.6f %14.1f %10zu\n", label, "fast",
                  fast.plans_per_sec(), fast.wall_s_per_plan(), fast.ns_per_step(), fast.moves);
      wall_at_largest = std::max(wall_at_largest, fast.wall_s_per_plan());

      // The naive engine at 10k servers rescans the fleet per round and walks
      // every server per Minimum Slack call; that run is minutes and opt-in.
      const bool run_naive = size.servers <= 1000 || full_naive;
      RunResult naive;
      if (run_naive) {
        naive = run_engine(
            snap, constraints,
            [](const DataCenterSnapshot& s, const ConstraintSet& c) {
              return consolidate::naive::ipac(s, c);
            },
            quick ? 1 : 2);
        std::printf("%-20s %-8s %14.3f %16.6f %14.1f %10zu\n", label, "naive",
                    naive.plans_per_sec(), naive.wall_s_per_plan(), naive.ns_per_step(),
                    naive.moves);
      }

      const double speedup = run_naive ? fast.plans_per_sec() / naive.plans_per_sec() : 0.0;
      if (run_naive) std::printf("%-20s %-8s %13.2fx\n", label, "speedup", speedup);
      if (size.servers == 1000) target.speedup_at_1k = speedup;

      if (!first) json += ",\n";
      first = false;
      char head[112];
      std::snprintf(head, sizeof(head),
                    "    {\"servers\": %zu, \"vms\": %zu, \"target\": %.1f,\n", size.servers,
                    size.vms, target.utilization);
      json += head;
      append_run_json(json, "fast", fast);
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
  }
  json += "\n  ],\n";
  const double speedup_at_1k = targets[0].speedup_at_1k;
  const bool within_budget = wall_at_largest <= kBudgetS;
  char tail[224];
  std::snprintf(tail, sizeof(tail),
                "  \"speedup_at_1k\": %.2f,\n  \"speedup_at_1k_target_0.8\": %.2f,\n"
                "  \"wall_s_per_plan_at_largest\": %.6f,\n  \"within_budget\": %s\n}\n",
                speedup_at_1k, targets[1].speedup_at_1k, wall_at_largest,
                within_budget ? "true" : "false");
  json += tail;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }

  if (!within_budget) {
    std::fprintf(stderr, "REGRESSION: %.1f s per plan at the largest fleet exceeds the %.0f s "
                 "consolidation period\n", wall_at_largest, kBudgetS);
    return 1;
  }
  if (min_speedup > 0.0 && speedup_at_1k < min_speedup) {
    std::fprintf(stderr, "REGRESSION: speedup at 1k servers %.2fx < required %.2fx\n",
                 speedup_at_1k, min_speedup);
    return 1;
  }
  return 0;
}
