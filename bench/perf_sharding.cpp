// Sharded-engine performance and bit-identity harness.
//
// Three presets, mirroring bench/perf_consolidation's JSON contract
// (BENCH_sharding.json, machine-readable for CI gates):
//
//   identity   small two-level testbed run at shard counts {2,4,8}: every
//              telemetry export must be byte-identical to the oracle, the
//              same testbed on one shard and one thread. This is the hard
//              gate — a perf bench that drifts from the oracle measures a
//              different program.
//   speedup    a wider testbed (64 apps) at a fixed shard count, advanced
//              with 1 worker thread vs more: SELF-speedup of the identical
//              workload, so the ratio isolates the parallel shard advance
//              (every leg is also byte-compared against the one-shard,
//              one-thread oracle). One leg runs ~0.3 s, so each thread
//              count runs kSpeedupRounds times, the thread counts
//              alternating their order from round to round, and the JSON
//              reports the median and quartiles of run_s and of the
//              self-speedup paired within each round. It records
//              hardware_concurrency — read the ratio against it.
//   fleet      bounded-memory completion at fleet scale, two fixed points
//              of the same shape (two-tier apps x 5 replicas, low per-app
//              concurrency): the hour point, 10k servers hosting 5k apps
//              for 3,600 simulated seconds, gates memory over simulated
//              time; the wide point, default 100k servers hosting 500k VMs
//              = 50k apps for a few control periods, gates memory over
//              fleet size, with scaling knobs for larger machines. Each
//              must complete with peak RSS under its bound. The hour point
//              runs first, so its peak RSS (a process high-water mark) is
//              its own.
//
// Flags:
//   --quick               identity preset only (CI smoke; soft perf gate)
//   --out PATH            JSON path (default BENCH_sharding.json)
//   --min-speedup X       exit non-zero if the best median self-speedup
//                         falls below X (0 disables; meaningless on 1 core)
//   --fleet-apps N        wide point application count (default 50000)
//   --fleet-servers N     wide point server count (default 100000)
//   --fleet-duration S    wide point simulated seconds (default 12)
//   --fleet-memory-gb X   wide point peak-RSS bound in GiB (default 32)
//   --skip-fleet          omit the fleet preset (both points)
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "app/multi_tier_app.hpp"
#include "core/sysid_experiment.hpp"
#include "core/testbed.hpp"
#include "telemetry/export.hpp"
#include "util/statistics.hpp"

namespace {

using namespace vdc;

/// Rounds of the speedup sweep: every thread count runs once per round.
constexpr std::size_t kSpeedupRounds = 7;

/// Median and quartiles of a sample.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

Spread spread_of(const std::vector<double>& values) {
  return Spread{util::quantile(values, 0.5), util::quantile(values, 0.25),
                util::quantile(values, 0.75)};
}

double peak_rss_gb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // KiB -> GiB
}

const control::ArxModel& shared_model() {
  static const core::SysIdExperimentResult identified = [] {
    core::SysIdExperimentConfig sysid;
    sysid.periods = 120;
    return core::identify_app_model(app::default_two_tier_app("bench", 4242, 40), sysid);
  }();
  return identified.model;
}

core::TestbedConfig base_config(std::size_t apps, std::size_t servers, std::size_t shards,
                                std::size_t threads) {
  core::TestbedConfig config;
  config.num_apps = apps;
  config.num_servers = servers;
  config.seed = 7;
  config.model = shared_model();
  config.shards = shards;
  config.shard_threads = threads;
  return config;
}

struct RunOutcome {
  std::string csv;
  double construct_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t barriers = 0;
  std::size_t migrations = 0;

  [[nodiscard]] double events_per_sec() const {
    return run_s <= 0.0 ? 0.0 : static_cast<double>(events) / run_s;
  }
};

RunOutcome run_testbed(const core::TestbedConfig& config, double duration_s,
                       bool want_csv = true) {
  RunOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  core::Testbed testbed(config);
  const auto t1 = std::chrono::steady_clock::now();
  testbed.run_until(duration_s);
  const auto t2 = std::chrono::steady_clock::now();
  out.construct_s = std::chrono::duration<double>(t1 - t0).count();
  out.run_s = std::chrono::duration<double>(t2 - t1).count();
  out.events = testbed.engine().events_executed();
  out.barriers = testbed.engine().barriers();
  out.migrations = testbed.completed_migrations();
  if (want_csv) out.csv = telemetry::to_csv(testbed.take_recorder());
  return out;
}

/// The fleet preset's hour point: memory over simulated time at a tenth of
/// the wide point's scale, every telemetry series inside its default
/// retention. The run reads 0.58 GiB peak RSS (Release, 4-vCPU host); the
/// bound leaves ~30 % on top. A per-request log kept for the whole run
/// took it to 1.20 GiB.
constexpr std::size_t kHourApps = 5000;
constexpr std::size_t kHourServers = 10000;
constexpr double kHourDurationS = 3600.0;
constexpr double kHourMemoryGb = 0.75;

/// Runs one fleet point (two-tier apps x 5 replicas at concurrency 2 on 256
/// shards), prints it, appends its JSON object under `key`, and returns
/// whether peak RSS stayed within `memory_gb`.
bool run_fleet_point(const char* key, std::size_t apps, std::size_t servers,
                     double duration_s, double memory_gb, std::string& json) {
  core::TestbedConfig config = base_config(apps, servers, 256, 0);
  config.concurrency = 2;       // light per-app load: scale stresses counts, not queues
  config.initial_replicas = 5;  // 2 tiers x 5 replicas x apps = the VM fleet
  const RunOutcome fleet = run_testbed(config, duration_s, /*want_csv=*/false);
  const double rss_gb = peak_rss_gb();
  const std::size_t vms = apps * 2 * 5;
  const bool ok = rss_gb <= memory_gb;
  std::printf("%-10s %zu servers / %zu VMs / %.0f s: construct %.1fs, run %.1fs, "
              "%llu events, peak RSS %.2f GiB (bound %.2f)\n", key, servers, vms, duration_s,
              fleet.construct_s, fleet.run_s, static_cast<unsigned long long>(fleet.events),
              rss_gb, memory_gb);
  char line[200];
  std::snprintf(line, sizeof(line),
                "  \"%s\": {\"servers\": %zu, \"apps\": %zu, \"vms\": %zu, "
                "\"duration_s\": %.1f,\n", key, servers, apps, vms, duration_s);
  json += line;
  std::snprintf(line, sizeof(line),
                "    \"construct_s\": %.2f, \"run_s\": %.2f, \"events\": %llu, "
                "\"events_per_sec\": %.0f,\n", fleet.construct_s, fleet.run_s,
                static_cast<unsigned long long>(fleet.events), fleet.events_per_sec());
  json += line;
  std::snprintf(line, sizeof(line),
                "    \"peak_rss_gb\": %.2f, \"rss_bound_gb\": %.2f, "
                "\"within_memory_bound\": %s},\n", rss_gb, memory_gb, ok ? "true" : "false");
  json += line;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool skip_fleet = false;
  std::string out_path = "BENCH_sharding.json";
  double min_speedup = 0.0;
  std::size_t fleet_apps = 50000;
  std::size_t fleet_servers = 100000;
  double fleet_duration_s = 12.0;
  double fleet_memory_gb = 32.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--skip-fleet") == 0) {
      skip_fleet = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--fleet-apps") == 0 && i + 1 < argc) {
      fleet_apps = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--fleet-servers") == 0 && i + 1 < argc) {
      fleet_servers = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--fleet-duration") == 0 && i + 1 < argc) {
      fleet_duration_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--fleet-memory-gb") == 0 && i + 1 < argc) {
      fleet_memory_gb = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# perf_sharding: parallel shard advance vs the one-shard, one-thread "
              "oracle (hardware_concurrency=%u)\n", hw);

  std::string json = "{\n  \"bench\": \"perf_sharding\",\n";
  json += quick ? "  \"mode\": \"quick\",\n" : "  \"mode\": \"full\",\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  \"hardware_concurrency\": %u,\n", hw);
  json += line;

  bool identity_ok = true;

  // ---- identity preset ------------------------------------------------------
  {
    core::TestbedConfig oracle_config = base_config(8, 4, 1, 1);
    oracle_config.enable_optimizer = true;
    oracle_config.optimizer_period_s = 120.0;
    const double duration_s = 400.0;
    const RunOutcome oracle = run_testbed(oracle_config, duration_s);
    std::printf("%-10s %-12s %10.3fs %12llu events %8zu migrations\n", "identity",
                "oracle", oracle.run_s, static_cast<unsigned long long>(oracle.events),
                oracle.migrations);
    json += "  \"identity\": {\"duration_s\": 400.0, \"shard_counts\": [2, 4, 8], "
            "\"matches\": [";
    bool first = true;
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      core::TestbedConfig config = oracle_config;
      config.shards = shards;
      config.shard_threads = std::min<std::size_t>(hw, shards);
      const RunOutcome sharded = run_testbed(config, duration_s);
      const bool match = sharded.csv == oracle.csv;
      identity_ok = identity_ok && match;
      std::printf("%-10s shards=%-5zu %10.3fs %12llu events   identical=%s\n", "identity",
                  shards, sharded.run_s, static_cast<unsigned long long>(sharded.events),
                  match ? "yes" : "NO");
      if (!first) json += ", ";
      first = false;
      json += match ? "true" : "false";
    }
    json += "]},\n";
  }

  // ---- self-speedup preset --------------------------------------------------
  double best_speedup = 0.0;
  if (!quick) {
    core::TestbedConfig spec = base_config(64, 16, 8, 1);
    spec.enable_optimizer = true;
    spec.optimizer_period_s = 60.0;
    const double duration_s = 120.0;

    core::TestbedConfig oracle_config = spec;
    oracle_config.shards = 1;
    oracle_config.shard_threads = 1;
    const RunOutcome oracle = run_testbed(oracle_config, duration_s);

    std::vector<std::size_t> thread_counts = {1, 2, hw};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                        thread_counts.end());

    // run_s[i][r]: thread_counts[i] in round r. Odd rounds run the thread
    // counts in reverse, so host drift within a round does not favour one
    // side of every pair.
    std::vector<std::vector<double>> run_s(thread_counts.size());
    std::vector<std::uint64_t> events(thread_counts.size(), 0);
    std::vector<bool> identical(thread_counts.size(), true);
    for (std::size_t round = 0; round < kSpeedupRounds; ++round) {
      for (std::size_t k = 0; k < thread_counts.size(); ++k) {
        const std::size_t i = round % 2 == 0 ? k : thread_counts.size() - 1 - k;
        core::TestbedConfig config = spec;
        config.shard_threads = thread_counts[i];
        const RunOutcome run = run_testbed(config, duration_s);
        const bool match = run.csv == oracle.csv;
        identical[i] = identical[i] && match;
        identity_ok = identity_ok && match;
        run_s[i].push_back(run.run_s);
        events[i] = run.events;
      }
    }

    std::snprintf(line, sizeof(line),
                  "  \"speedup\": {\"apps\": 64, \"servers\": 16, \"shards\": 8, "
                  "\"duration_s\": 120.0, \"rounds\": %zu,\n    \"runs\": [",
                  kSpeedupRounds);
    json += line;
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      // Self-speedup paired within a round: the 1-thread leg of the same
      // round over this leg.
      std::vector<double> speedups;
      for (std::size_t round = 0; round < kSpeedupRounds; ++round) {
        const double wall = run_s[i][round];
        speedups.push_back(wall <= 0.0 ? 0.0 : run_s[0][round] / wall);
      }
      const Spread wall = spread_of(run_s[i]);
      const Spread speedup = spread_of(speedups);
      const double events_per_sec =
          wall.median <= 0.0 ? 0.0 : static_cast<double>(events[i]) / wall.median;
      best_speedup = std::max(best_speedup, speedup.median);
      std::printf("%-10s threads=%-4zu %8.3fs [%.3f, %.3f] %12.0f events/s  "
                  "self-speedup=%5.2fx [%.2f, %.2f]  identical=%s\n", "speedup",
                  thread_counts[i], wall.median, wall.q1, wall.q3, events_per_sec,
                  speedup.median, speedup.q1, speedup.q3, identical[i] ? "yes" : "NO");
      if (i > 0) json += ",\n      ";
      std::snprintf(line, sizeof(line),
                    "{\"threads\": %zu, \"run_s\": %.3f, \"run_s_q1\": %.3f, "
                    "\"run_s_q3\": %.3f, \"events_per_sec\": %.0f, ",
                    thread_counts[i], wall.median, wall.q1, wall.q3, events_per_sec);
      json += line;
      std::snprintf(line, sizeof(line),
                    "\"self_speedup\": %.3f, \"self_speedup_q1\": %.3f, "
                    "\"self_speedup_q3\": %.3f, \"identical\": %s}",
                    speedup.median, speedup.q1, speedup.q3, identical[i] ? "true" : "false");
      json += line;
    }
    std::snprintf(line, sizeof(line), "],\n    \"best_self_speedup\": %.3f},\n",
                  best_speedup);
    json += line;
  }

  // ---- fleet preset ---------------------------------------------------------
  bool fleet_ok = true;
  if (!quick && !skip_fleet) {
    // The hour point first: ru_maxrss only ever rises, so the wide point
    // that follows reads the larger of the two.
    fleet_ok = run_fleet_point("fleet_hour", kHourApps, kHourServers, kHourDurationS,
                               kHourMemoryGb, json);
    malloc_trim(0);  // hand the hour point's freed heap back before the wide point
    fleet_ok = run_fleet_point("fleet", fleet_apps, fleet_servers, fleet_duration_s,
                               fleet_memory_gb, json) &&
               fleet_ok;
  }

  std::snprintf(line, sizeof(line), "  \"identity_ok\": %s\n}\n",
                identity_ok ? "true" : "false");
  json += line;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }

  if (!identity_ok) {
    std::fprintf(stderr, "REGRESSION: sharded telemetry diverged from the one-shard, "
                 "one-thread oracle\n");
    return 1;
  }
  if (!fleet_ok) {
    std::fprintf(stderr, "REGRESSION: a fleet point exceeded its peak-RSS bound\n");
    return 1;
  }
  if (min_speedup > 0.0 && best_speedup < min_speedup) {
    std::fprintf(stderr, "REGRESSION: best median self-speedup %.2fx < required %.2fx\n",
                 best_speedup, min_speedup);
    return 1;
  }
  return 0;
}
