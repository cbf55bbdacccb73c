// Allocation budgets of the steady-state simulated period. This binary
// replaces the global operator new with a counting one, then checks that a
// request through the multi-tier app allocates nothing once the queues and
// slabs have reached their high-water marks, that a control period of a
// sharded Testbed stays within a fixed per-app budget, requests included,
// and that a Testbed's live heap stops growing once its telemetry
// retention is full.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <new>

#include "app/multi_tier_app.hpp"
#include "check/check.hpp"
#include "core/power_optimizer.hpp"
#include "core/sysid_experiment.hpp"
#include "core/testbed.hpp"
#include "sim/simulation.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
// Bytes requested from operator new since start-up.
std::atomic<std::size_t> g_requested_bytes{0};
// Bytes held by live operator-new blocks, as the allocator sized them.
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_requested_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
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

std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
std::size_t requested_bytes() { return g_requested_bytes.load(std::memory_order_relaxed); }
std::int64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, alignof(std::max_align_t)); }
void* operator new[](std::size_t size) { return counted_alloc(size, alignof(std::max_align_t)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace vdc {
namespace {

TEST(AllocBudget, CounterSeesHeapAllocations) {
  const std::size_t before = allocations();
  const std::size_t requested_before = requested_bytes();
  const std::int64_t live_before = live_bytes();
  auto* p = new int(7);
  const std::size_t after = allocations();
  EXPECT_EQ(requested_bytes() - requested_before, sizeof(int));
  EXPECT_GE(live_bytes() - live_before, static_cast<std::int64_t>(sizeof(int)));
  delete p;
  EXPECT_EQ(after - before, 1u);
  EXPECT_EQ(live_bytes(), live_before);
}

TEST(AllocBudget, RequestPathAllocatesAtMostOneBlockPerTierHop) {
  // The paper's two-tier app with two replicas per tier, so the dispatcher
  // and its tie-break run on every hop.
  sim::Simulation sim;
  constexpr std::size_t kClients = 40;
  app::AppConfig config = app::default_two_tier_app("app", 11, kClients);
  for (app::TierConfig& tier : config.tiers) tier.initial_replicas = 2;
  app::MultiTierApp app(sim, config);
  double response_sum_s = 0.0;
  app.set_response_callback([&](double, double rt) { response_sum_s += rt; });
  app.start();

  // Runs until no request is in flight, so the measured window holds whole
  // requests only: every request it issues also completes inside it.
  double until_s = 0.0;
  const auto drain = [&] {
    app.set_concurrency(0);
    while (app.requests_in_flight() > 0) {
      until_s += 10.0;
      sim.run_until(until_s);
    }
  };
  // Warm-up: the event slab, request slab, completion buffers and the
  // queues' heaps reach their high-water marks.
  until_s = 300.0;
  sim.run_until(until_s);
  drain();

  const std::uint64_t completed0 = app.completed_requests();
  const std::size_t allocs0 = allocations();
  app.set_concurrency(kClients);
  while (app.completed_requests() - completed0 < 10'000) {
    until_s += 10.0;
    sim.run_until(until_s);
  }
  drain();
  const std::size_t allocs = allocations() - allocs0;
  const std::uint64_t completed = app.completed_requests() - completed0;

  EXPECT_EQ(app.issued_requests(), app.completed_requests());
  EXPECT_GT(response_sum_s, 0.0);
  const double per_request = static_cast<double>(allocs) / static_cast<double>(completed);
  std::printf("[ alloc ] %zu allocations over %llu requests: %.2f per request\n", allocs,
              static_cast<unsigned long long>(completed), per_request);
  // 0 in steady state (it read 4 allocations over 10,146 requests, from
  // buffers that grow past their warm-up high-water mark); the one-node-
  // per-hop queue it replaced read 2.00, one per tier.
  EXPECT_LE(per_request, 0.01);
}

std::uint64_t completed_requests(core::Testbed& testbed) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < testbed.app_count(); ++i) {
    total += testbed.application(i).completed_requests();
  }
  return total;
}

TEST(AllocBudget, ShardedTestbedControlPeriodStaysWithinPerAppBudget) {
  // A fleet-shaped Testbed: lightly loaded two-tier apps, two replicas per
  // tier, four shards, one server per app. The model is identified once up
  // front so the constructor skips the experiment.
  core::TestbedConfig config;
  config.num_apps = 64;
  config.num_servers = 64;
  config.concurrency = 2;
  config.seed = 3;
  config.initial_replicas = 2;
  config.shards = 4;
  config.shard_threads = 1;
  config.parallel_control_min_apps = static_cast<std::size_t>(-1);
  config.enable_optimizer = false;
  const app::AppConfig staging = app::default_two_tier_app("staging", 1001, config.concurrency);
  config.model = core::identify_app_model(staging, config.sysid).model;
  core::Testbed testbed(config);

  constexpr std::size_t kWarmupPeriods = 30;
  constexpr std::size_t kPeriods = 20;
  testbed.run_until(static_cast<double>(kWarmupPeriods) * config.control_period_s);
  const std::uint64_t requests0 = completed_requests(testbed);
  const std::size_t allocs0 = allocations();
  testbed.run_until(static_cast<double>(kWarmupPeriods + kPeriods) * config.control_period_s);
  const std::size_t allocs = allocations() - allocs0;
  const std::uint64_t requests = completed_requests(testbed) - requests0;
  // The budget counts requests too; a run with almost none would pass it
  // trivially.
  EXPECT_GT(requests, config.num_apps * kPeriods * 4);

  const double per_app_period =
      static_cast<double>(allocs) / static_cast<double>(config.num_apps * kPeriods);
  std::printf("[ alloc ] %zu allocations over %zu app-periods (%llu requests): %.2f per app "
              "per period\n",
              allocs, config.num_apps * kPeriods, static_cast<unsigned long long>(requests),
              per_app_period);
  // Reads 1.19: the control plane's share. Each request used to add one
  // block per tier hop (16.51 with ~7.1 requests per app-period).
  EXPECT_LE(per_app_period, 3.0);
}

TEST(AllocBudget, LiveHeapStaysFlatOnceTelemetryRetentionIsFull) {
  // The fleet-shaped Testbed above with telemetry retention kept small:
  // 16 samples a series (2 pages of 8), full after 16 control periods.
  // Past that point nothing in the run may keep growing: not the monitor
  // (one period of samples), not the series buffers (samples and rows age
  // out by whole pages into the capacity they already hold).
  core::TestbedConfig config;
  config.num_apps = 16;
  config.num_servers = 16;
  config.concurrency = 2;
  config.seed = 5;
  config.initial_replicas = 2;
  config.shards = 4;
  config.shard_threads = 1;
  config.parallel_control_min_apps = static_cast<std::size_t>(-1);
  config.enable_optimizer = false;
  config.telemetry.page_samples = 8;
  config.telemetry.max_pages = 2;
  const app::AppConfig staging = app::default_two_tier_app("staging", 1001, config.concurrency);
  config.model = core::identify_app_model(staging, config.sysid).model;
  core::Testbed testbed(config);

  // Fill, then measure the live heap every 50 periods for 400 more.
  constexpr std::size_t kFillPeriods = 40;
  constexpr std::size_t kPeriods = 400;
  testbed.run_until(static_cast<double>(kFillPeriods) * config.control_period_s);
  const std::int64_t live0 = live_bytes();
  const std::uint64_t requests0 = completed_requests(testbed);
  std::int64_t high = live0;
  for (std::size_t done = 50; done <= kPeriods; done += 50) {
    testbed.run_until(static_cast<double>(kFillPeriods + done) * config.control_period_s);
    high = std::max(high, live_bytes());
  }
  const std::int64_t growth = live_bytes() - live0;
  const std::uint64_t requests = completed_requests(testbed) - requests0;
  // A run with almost no requests would keep a request-driven grower hidden.
  EXPECT_GT(requests, config.num_apps * kPeriods * 4);
  std::printf("[ alloc ] live heap %lld bytes after fill; over %zu more periods (%llu "
              "requests): %+lld bytes at the end, %+lld at the high-water mark\n",
              static_cast<long long>(live0), kPeriods, static_cast<unsigned long long>(requests),
              static_cast<long long>(growth), static_cast<long long>(high - live0));
  // The bound: 1 KiB per app over 400 periods, covering the request and
  // event slabs, queue buckets and completion buffers reaching high-water
  // marks a little later than the fill. The deleted lifetime log alone grew
  // ~8 bytes per request (~20 KiB per app here), and heap-vector rows ~60
  // bytes per row (~48 KiB per app).
  EXPECT_LE(high - live0, static_cast<std::int64_t>(config.num_apps * 1024));
}

// A warm plan allocates nothing per server: the optimizer's planning model
// keeps the snapshot, the efficiency order (sorted once per fleet), the
// placement, the slack index and the per-pass server lists across plans.
// What a plan still allocates (its move list, the migration list, a
// round's evacuees) depends on the VMs, not on the fleet, so growing the
// fleet tenfold with sleeping servers must not add a block or a byte.
TEST(AllocBudget, WarmPlanAllocationsDoNotGrowWithTheFleet) {
#if VDC_CHECKS_ENABLED
  GTEST_SKIP() << "checked builds audit each refresh against a snapshot built from scratch";
#else
  struct Used {
    std::size_t blocks;
    std::size_t bytes;
  };
  const auto warm_plan_allocations = [](std::size_t servers) {
    datacenter::Cluster cluster;
    for (std::size_t s = 0; s < servers; ++s) {
      // The first 40 servers mix the classes; the rest are the least
      // efficient class, so they sort behind every server the plan uses.
      if (s < 40 && s % 4 == 0) {
        cluster.add_server(datacenter::Server(datacenter::quad_core_3ghz(),
                                              datacenter::power_model_quad_3ghz(), 32768.0));
      } else if (s < 40 && s % 4 == 1) {
        cluster.add_server(datacenter::Server(datacenter::dual_core_2ghz(),
                                              datacenter::power_model_dual_2ghz(), 16384.0));
      } else {
        cluster.add_server(datacenter::Server(datacenter::dual_core_1_5ghz(),
                                              datacenter::power_model_dual_1_5ghz(), 12288.0));
      }
    }
    for (std::size_t v = 0; v < 80; ++v) {
      datacenter::Vm vm;
      vm.cpu_demand_ghz = 0.2 + 0.01 * static_cast<double>(v % 37);
      vm.memory_mb = 512.0;
      cluster.add_vm(vm, static_cast<datacenter::ServerId>(v % 40));
    }
    cluster.sleep_idle_servers();
    core::OptimizerConfig config;
    config.utilization_target = 0.8;
    core::PowerOptimizer optimizer(config);
    (void)optimizer.plan(cluster, 0.0);  // cold: the model's buffers grow
    (void)optimizer.plan(cluster, 0.0);  // and every scratch reaches its high-water mark
    const std::size_t blocks_before = allocations();
    const std::size_t bytes_before = requested_bytes();
    const consolidate::PlacementPlan plan = optimizer.plan(cluster, 0.0);
    const Used used{allocations() - blocks_before, requested_bytes() - bytes_before};
    EXPECT_FALSE(plan.moves.empty());
    return used;
  };
  const Used small_fleet = warm_plan_allocations(400);
  const Used large_fleet = warm_plan_allocations(4000);
  std::printf("[ alloc ] warm plan: %zu blocks / %zu bytes on 400 servers, %zu / %zu on 4,000\n",
              small_fleet.blocks, small_fleet.bytes, large_fleet.blocks, large_fleet.bytes);
  EXPECT_EQ(small_fleet.blocks, large_fleet.blocks);
  EXPECT_EQ(small_fleet.bytes, large_fleet.bytes);
#endif
}

}  // namespace
}  // namespace vdc
