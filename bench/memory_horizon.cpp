// Resident memory over simulated time. A 500-app, 1,000-server Testbed on
// 16 shards (default concurrency 40) runs to 7,680 simulated seconds; the
// bench reads VmRSS from /proc/self/status and the live operator-new bytes
// (a counting allocator sized by malloc_usable_size) after construction and
// at 240, 1,920 and 7,680 s, and prints the growth of each above
// construction in KB per app. It runs at the default telemetry retention
// (64 pages of 256 samples a series) and at one that is full by 1,920 s (4
// pages of 64 samples, full at 1,024 s), the latter on every hardware
// thread and on one. With memory bounded in simulated time the full-by-1,920 s runs read
// the same live KB per app at 1,920 s and at 7,680 s; RSS also counts what
// the allocator keeps in its per-thread arenas.
//
// Each run is a forked child process, so its RSS baseline is not raised by
// memory an earlier run freed. No flags; the output is a table on stdout.
// About two minutes per run on a 4-core host, four on one thread.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <string>

#include "app/multi_tier_app.hpp"
#include "core/sysid_experiment.hpp"
#include "core/testbed.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Nothing here allocates over-aligned types, so the aligned forms keep
// their default definitions.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

using namespace vdc;

constexpr std::size_t kApps = 500;
constexpr std::size_t kServers = 1000;
constexpr std::size_t kShards = 16;
constexpr double kCheckpointsS[] = {240.0, 1920.0, 7680.0};

/// Resident set size in KB, from /proc/self/status (0 when unreadable).
double rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kb = 0.0;
      status >> kb;
      return kb;
    }
    std::getline(status, key);
  }
  return 0.0;
}

void run(const char* label, const telemetry::RecorderConfig& retention, std::size_t threads) {
  core::SysIdExperimentConfig sysid;
  sysid.periods = 120;
  const control::ArxModel model =
      core::identify_app_model(app::default_two_tier_app("bench", 4242, 40), sysid).model;
  core::TestbedConfig config;
  config.num_apps = kApps;
  config.num_servers = kServers;
  config.shards = kShards;
  config.seed = 7;
  config.model = model;
  config.telemetry = retention;
  config.shard_threads = threads;
  core::Testbed testbed(config);
  const double base_kb = rss_kb();
  const std::int64_t base_live = g_live_bytes.load();
  double rss[std::size(kCheckpointsS)];
  double live[std::size(kCheckpointsS)];
  for (std::size_t k = 0; k < std::size(kCheckpointsS); ++k) {
    testbed.run_until(kCheckpointsS[k]);
    rss[k] = (rss_kb() - base_kb) / static_cast<double>(kApps);
    live[k] = static_cast<double>(g_live_bytes.load() - base_live) / 1024.0 /
              static_cast<double>(kApps);
  }
  std::printf("%-28s rss ", label);
  for (const double kb : rss) std::printf(" %9.1f", kb);
  std::printf("\n%-28s live", label);
  for (const double kb : live) std::printf(" %9.1f", kb);
  std::printf("\n");
}

/// Runs `run(...)` in a child process; false when the child failed.
bool run_in_child(const char* label, const telemetry::RecorderConfig& retention,
                  std::size_t threads) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    run(label, retention, threads);
    std::fflush(stdout);
    _exit(0);
  }
  int status = 0;
  return waitpid(pid, &status, 0) == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

int main() {
  std::printf("# memory_horizon: %zu apps, %zu servers, %zu shards; growth above "
              "construction, KB per app\n", kApps, kServers, kShards);
  std::printf("%-28s     ", "retention, threads");
  for (const double t : kCheckpointsS) std::printf(" %8.0fs", t);
  std::printf("\n");

  bool ok = run_in_child("default, all", telemetry::RecorderConfig{}, 0);

  // 256 samples a series: full at 1,024 s of 4 s control periods.
  const telemetry::RecorderConfig small{.page_samples = 64, .max_pages = 4};
  ok = run_in_child("full-by-1920s, all", small, 0) && ok;
  ok = run_in_child("full-by-1920s, 1", small, 1) && ok;
  return ok ? 0 : 1;
}
