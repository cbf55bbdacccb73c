// Micro-benchmarks (google-benchmark) for the hot algorithmic kernels:
// Minimum Slack, PAC, IPAC, pMapper, the MPC step, the PS-queue event
// path, and trace generation. These quantify the paper's overhead claims
// ("Minimum Slack generally has a greater overhead compared with FFD;
// the IPAC algorithm considers only a very small number of VMs").
#include <benchmark/benchmark.h>

#include <numeric>

#include "app/multi_tier_app.hpp"
#include "consolidate/ffd.hpp"
#include "consolidate/ipac.hpp"
#include "consolidate/pac.hpp"
#include "consolidate/pmapper.hpp"
#include "control/mpc.hpp"
#include "core/sysid_experiment.hpp"
#include "sim/ps_queue.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace {

using namespace vdc;
using namespace vdc::consolidate;

DataCenterSnapshot random_snapshot(std::size_t servers, std::size_t vms, bool placed,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  DataCenterSnapshot snap;
  for (std::size_t i = 0; i < servers; ++i) {
    ServerSnapshot s;
    s.id = static_cast<ServerId>(i);
    s.max_capacity_ghz = rng.uniform(3.0, 12.0);
    s.memory_mb = rng.uniform(8000.0, 32000.0);
    s.max_power_w = 150.0 + s.max_capacity_ghz * 15.0;
    s.idle_power_w = 0.55 * s.max_power_w;
    s.sleep_power_w = 6.0;
    s.power_efficiency_ghz_per_w = s.max_capacity_ghz / s.max_power_w;
    s.active = true;
    snap.servers.push_back(s);
  }
  for (std::size_t i = 0; i < vms; ++i) {
    VmSnapshot vm;
    vm.id = static_cast<VmId>(i);
    vm.cpu_demand_ghz = rng.uniform(0.1, 1.5);
    vm.memory_mb = rng.uniform(400.0, 2000.0);
    snap.vms.push_back(vm);
  }
  if (placed) {
    // Scatter the VMs round-robin so consolidation has work to do.
    for (std::size_t i = 0; i < vms; ++i) {
      snap.servers[i % servers].hosted.push_back(static_cast<VmId>(i));
    }
  }
  return snap;
}

void BM_MinimumSlack(benchmark::State& state) {
  const auto vms = static_cast<std::size_t>(state.range(0));
  const DataCenterSnapshot snap = random_snapshot(1, vms, false, 1);
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  std::vector<VmId> ids(vms);
  std::iota(ids.begin(), ids.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimum_slack(wp, 0, ids, constraints));
  }
}
BENCHMARK(BM_MinimumSlack)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_PacFullPlacement(benchmark::State& state) {
  const auto vms = static_cast<std::size_t>(state.range(0));
  const DataCenterSnapshot snap = random_snapshot(vms / 2 + 4, vms, false, 2);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  std::vector<VmId> ids(vms);
  std::iota(ids.begin(), ids.end(), 0);
  for (auto _ : state) {
    WorkingPlacement wp(snap);
    benchmark::DoNotOptimize(power_aware_consolidation(wp, ids, constraints));
  }
}
BENCHMARK(BM_PacFullPlacement)->Arg(32)->Arg(128)->Arg(512);

void BM_FfdFullPlacement(benchmark::State& state) {
  const auto vms = static_cast<std::size_t>(state.range(0));
  const DataCenterSnapshot snap = random_snapshot(vms / 2 + 4, vms, false, 2);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<ServerId> order = servers_by_power_efficiency(snap);
  std::vector<VmId> ids(vms);
  std::iota(ids.begin(), ids.end(), 0);
  for (auto _ : state) {
    WorkingPlacement wp(snap);
    benchmark::DoNotOptimize(first_fit_decreasing(wp, order, ids, constraints));
  }
}
BENCHMARK(BM_FfdFullPlacement)->Arg(32)->Arg(128)->Arg(512);

void BM_IpacInvocation(benchmark::State& state) {
  const auto vms = static_cast<std::size_t>(state.range(0));
  const DataCenterSnapshot snap = random_snapshot(vms / 2 + 4, vms, true, 3);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const FreeMigrationPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipac(snap, constraints, policy));
  }
}
BENCHMARK(BM_IpacInvocation)->Arg(64)->Arg(256)->Arg(1024);

void BM_PMapperInvocation(benchmark::State& state) {
  const auto vms = static_cast<std::size_t>(state.range(0));
  const DataCenterSnapshot snap = random_snapshot(vms / 2 + 4, vms, true, 3);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmapper(snap, constraints));
  }
}
BENCHMARK(BM_PMapperInvocation)->Arg(64)->Arg(256)->Arg(1024);

/// Reports the QP's active-set steps per control step.
void count_qp_iterations(benchmark::State& state, std::size_t iterations) {
  state.counters["qp_iterations"] =
      benchmark::Counter(static_cast<double>(iterations), benchmark::Counter::kAvgIterations);
}

/// A controller on a stable nu-input ARX model (P = 12, M = 3).
control::MpcController bench_controller(std::size_t nu) {
  control::ArxModel model;
  model.na = 2;
  model.nb = 2;
  model.nu = nu;
  model.a = {0.5, 0.1};
  model.b = linalg::Matrix(2, model.nu);
  for (std::size_t m = 0; m < model.nu; ++m) {
    model.b(0, m) = -0.5 - 0.1 * static_cast<double>(m);
    model.b(1, m) = 0.1;
  }
  model.bias = 1.5;
  control::MpcConfig config;
  config.prediction_horizon = 12;
  config.control_horizon = 3;
  config.r_weight = {1.0};
  config.c_min = {0.1};
  config.c_max = {2.0};
  return control::MpcController(model, config);
}

void BM_MpcStep(benchmark::State& state) {
  control::MpcController controller = bench_controller(static_cast<std::size_t>(state.range(0)));
  controller.reset(1.0, std::vector<double>(controller.model().nu, 0.5));
  double t = 1.3;
  std::size_t iterations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.step(t));
    iterations += controller.diagnostics().qp_iterations;
    t = t > 1.0 ? 0.8 : 1.3;  // keep the QP active
  }
  count_qp_iterations(state, iterations);
}
BENCHMARK(BM_MpcStep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Steady state, as in a lightly loaded fleet: the response time sits far
/// below the setpoint, the allocation rests at c_min, and every period
/// solves the same QP, so the previous active set is the answer.
void BM_MpcStepSteady(benchmark::State& state) {
  control::MpcController controller = bench_controller(static_cast<std::size_t>(state.range(0)));
  controller.reset(0.2, std::vector<double>(controller.model().nu, 0.1));
  for (int k = 0; k < 50; ++k) (void)controller.step(0.2);
  std::size_t iterations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.step(0.2));
    iterations += controller.diagnostics().qp_iterations;
  }
  count_qp_iterations(state, iterations);
}
BENCHMARK(BM_MpcStepSteady)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Saturated, as in a flash crowd: every VM at c_max while the response
/// time stays far above the setpoint, so the range rows bind and the
/// unconstrained plan is far outside them.
void BM_MpcStepSaturated(benchmark::State& state) {
  control::MpcController controller = bench_controller(static_cast<std::size_t>(state.range(0)));
  controller.reset(20.0, std::vector<double>(controller.model().nu, 2.0));
  double t = 20.0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.step(t));
    iterations += controller.diagnostics().qp_iterations;
    t = t > 20.0 ? 20.0 : 25.0;  // move the gradient, keep c at c_max
  }
  count_qp_iterations(state, iterations);
}
BENCHMARK(BM_MpcStepSaturated)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PsQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::PsQueue queue(sim, 2.0, [](sim::JobId) {});
    for (int i = 0; i < 64; ++i) queue.add_job(0.01 * (1 + i % 7));
    sim.run();
    benchmark::DoNotOptimize(queue.work_done_gcycles());
  }
}
BENCHMARK(BM_PsQueueThroughput);

void BM_MultiTierAppSimulatedMinute(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    app::MultiTierApp app(sim, app::default_two_tier_app("bench", 1, 40));
    app.start();
    sim.run_until(60.0);
    benchmark::DoNotOptimize(app.completed_requests());
  }
}
BENCHMARK(BM_MultiTierAppSimulatedMinute);

void BM_SyntheticTraceGeneration(benchmark::State& state) {
  trace::SyntheticTraceOptions options;
  options.servers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::generate_synthetic_trace(options));
  }
}
BENCHMARK(BM_SyntheticTraceGeneration)->Arg(100)->Arg(1000);

}  // namespace
