// Regression goldens for the flat-topology default.
//
// The rack/pod topology layer and the migration-cost-aware consolidation
// variants are strictly opt-in: with no Topology configured (the default,
// and what every figure bench ships with), the stack must keep producing
// the results it did. Each test runs a deterministic, small-scale scenario
// through the same engines the figure benches use:
//
// * the planner stack behind ablation_packing (PAC / FFD / IPAC / pMapper)
//   and the trace-driven simulator behind fig6 format their results as CSV
//   with fixed "%.17g" formatting and compare the bytes against a
//   committed golden file;
// * the Testbed co-simulation behind fig2-fig5 is checked by a behaviour
//   summary (settled p90 against the setpoint, energy, migrations and
//   optimizer invocations, each within a stated bound), because its PS
//   queues' floating-point arithmetic is not part of the contract; its
//   invariance to the shard count stays byte-exact;
// * the telemetry export of a Testbed run is compared byte for byte, since
//   the export format is a contract.
//
// Regenerating (only legitimate when a change intentionally moves default
// behavior or, for the Testbed export, its arithmetic or its schema):
//   VDC_REGEN_GOLDEN=1 ./build/tests/test_flat_golden
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "consolidate/ffd.hpp"
#include "consolidate/ipac.hpp"
#include "consolidate/naive.hpp"
#include "consolidate/pmapper.hpp"
#include "consolidate/working_placement.hpp"
#include "core/scenario.hpp"
#include "core/sysid_experiment.hpp"
#include "core/trace_sim.hpp"
#include "telemetry/export.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace vdc {
namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Compares `produced` against the committed golden byte for byte; under
/// VDC_REGEN_GOLDEN=1 rewrites the golden instead (and skips, so a regen
/// run is visibly not a verification run).
void check_golden(const std::string& name, const std::string& produced) {
  const std::string path = std::string(VDC_GOLDEN_DIR) + "/" + name;
  if (std::getenv("VDC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << produced;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with VDC_REGEN_GOLDEN=1 to create it)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == produced) return;
  // Pinpoint the first differing line instead of dumping both files.
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = std::min(expected.size(), produced.size());
  while (i < n && expected[i] == produced[i]) {
    if (expected[i] == '\n') ++line;
    ++i;
  }
  const auto line_at = [](const std::string& s, std::size_t pos) {
    const std::size_t begin = s.rfind('\n', pos == 0 ? 0 : pos - 1) + 1;
    std::size_t end = s.find('\n', pos);
    if (end == std::string::npos) end = s.size();
    return s.substr(begin, end - begin);
  };
  FAIL() << name << " diverges from its golden at line " << line << ":\n  golden:   "
         << (i < expected.size() ? line_at(expected, i) : "<eof>") << "\n  produced: "
         << (i < produced.size() ? line_at(produced, i) : "<eof>")
         << "\nByte-identity under the flat-topology default is a hard requirement; "
            "regenerate only if this change in default behavior is intentional.";
}

// ---- planner stack (the engines behind ablation_packing) --------------------

/// Heterogeneous fleet in the equivalence-test mold: capacities 3-12 GHz,
/// VMs 0.1-1.5 GHz round-robin over the awake servers, every 10th server
/// asleep.
consolidate::DataCenterSnapshot random_fleet(std::size_t servers, std::size_t vms,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  consolidate::DataCenterSnapshot snap;
  std::vector<consolidate::ServerId> awake;
  for (std::size_t i = 0; i < servers; ++i) {
    consolidate::ServerSnapshot s;
    s.id = static_cast<consolidate::ServerId>(i);
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
    consolidate::VmSnapshot vm;
    vm.id = static_cast<consolidate::VmId>(i);
    vm.cpu_demand_ghz = rng.uniform(0.1, 1.5);
    vm.memory_mb = rng.uniform(400.0, 2000.0);
    snap.vms.push_back(vm);
    snap.servers[awake[i % awake.size()]].hosted.push_back(vm.id);
  }
  return snap;
}

void emit_plan(std::ostringstream& csv, std::uint64_t seed, const char* algo,
               const consolidate::PlacementPlan& plan) {
  for (std::size_t i = 0; i < plan.moves.size(); ++i) {
    const consolidate::Move& m = plan.moves[i];
    csv << seed << ',' << algo << ",move," << i << ',' << m.vm << ',';
    if (m.from == datacenter::kNoServer) {
      csv << "none";
    } else {
      csv << m.from;
    }
    csv << ',' << m.to << '\n';
  }
  for (const consolidate::VmId vm : plan.unplaced) {
    csv << seed << ',' << algo << ",unplaced,," << vm << ",,\n";
  }
}

TEST(FlatGolden, PlannerPlansAreByteIdentical) {
  std::ostringstream csv;
  csv << "seed,algo,kind,index,vm,from,to\n";
  const consolidate::ConstraintSet constraints = consolidate::ConstraintSet::standard(1.0);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const consolidate::DataCenterSnapshot snap = random_fleet(100, 400, seed);

    const consolidate::IpacReport ipac_report = consolidate::ipac(snap, constraints);
    emit_plan(csv, seed, "ipac", ipac_report.plan);
    csv << seed << ",ipac,summary,," << ipac_report.occupied_before << ','
        << ipac_report.occupied_after << ',' << ipac_report.rounds_accepted << '\n';

    const consolidate::PMapperReport pm = consolidate::pmapper(snap, constraints);
    emit_plan(csv, seed, "pmapper", pm.plan);
    csv << seed << ",pmapper,summary,," << pm.occupied_before << ',' << pm.occupied_after
        << ',' << pm.moves << '\n';

    // The ablation_packing comparison: evacuate everything, then repack the
    // whole fleet with PAC and (separately) FFD in efficiency order.
    {
      consolidate::WorkingPlacement wp(snap);
      std::vector<consolidate::VmId> all;
      for (const consolidate::VmSnapshot& vm : snap.vms) {
        wp.remove(vm.id);
        all.push_back(vm.id);
      }
      const consolidate::PacResult pac =
          consolidate::power_aware_consolidation(wp, all, constraints);
      csv << seed << ",pac_repack,summary,," << pac.placed.size() << ','
          << pac.servers_used << ',' << fmt(consolidate::naive::estimated_power_w(wp)) << '\n';
      for (const consolidate::VmSnapshot& vm : snap.vms) {
        csv << seed << ",pac_repack,host," << vm.id << ',' << wp.host_of(vm.id) << ",,\n";
      }
    }
    {
      consolidate::WorkingPlacement wp(snap);
      std::vector<consolidate::VmId> all;
      for (const consolidate::VmSnapshot& vm : snap.vms) {
        wp.remove(vm.id);
        all.push_back(vm.id);
      }
      const std::vector<consolidate::ServerId> order =
          consolidate::servers_by_power_efficiency(snap);
      const consolidate::FfdResult ffd =
          consolidate::first_fit_decreasing(wp, order, all, constraints);
      csv << seed << ",ffd_repack,summary,," << ffd.placed.size() << ",,"
          << fmt(consolidate::naive::estimated_power_w(wp)) << '\n';
      for (const consolidate::VmSnapshot& vm : snap.vms) {
        csv << seed << ",ffd_repack,host," << vm.id << ',' << wp.host_of(vm.id) << ",,\n";
      }
    }
  }
  check_golden("planners.csv", csv.str());
}

// ---- Testbed co-simulation (the engine behind fig2-fig5) --------------------

const control::ArxModel& shared_model() {
  static const core::SysIdExperimentResult identified = [] {
    core::SysIdExperimentConfig sysid;
    sysid.periods = 120;
    return core::identify_app_model(app::default_two_tier_app("golden", 1001, 40), sysid);
  }();
  return identified.model;
}

/// The flat-golden Testbed scenario (4 apps on 3 servers, IPAC every
/// 120 s, seed 7, 400 s) at the given shard layout.
core::ScenarioResult run_flat_testbed(std::size_t shards, std::size_t shard_threads) {
  core::ScenarioSpec spec;
  spec.name = "flat-golden";
  spec.engine = core::ScenarioSpec::Engine::kTestbed;
  spec.testbed.num_apps = 4;
  spec.testbed.num_servers = 3;
  spec.testbed.enable_optimizer = true;
  spec.testbed.optimizer_period_s = 120.0;
  spec.testbed.shards = shards;
  spec.testbed.shard_threads = shard_threads;
  spec.model = shared_model();
  spec.seed = 7;
  spec.duration_s = 400.0;
  return core::ScenarioRunner().run(spec);
}

/// Every per-period series and count of a run, in "%.17g".
std::string testbed_csv(const core::ScenarioResult& run) {
  std::ostringstream csv;
  csv << "series,index,value\n";
  const std::vector<double>& power = run.power_series();
  for (std::size_t k = 0; k < power.size(); ++k) {
    csv << "power_w," << k << ',' << fmt(power[k]) << '\n';
  }
  for (std::size_t app = 0; app < run.app_count; ++app) {
    const std::vector<double>& resp = run.response_series(app);
    for (std::size_t k = 0; k < resp.size(); ++k) {
      csv << "response_s_app" << app << ',' << k << ',' << fmt(resp[k]) << '\n';
    }
  }
  csv << "migrations,," << run.completed_migrations << '\n';
  csv << "optimizer_invocations,," << run.optimizer_invocations << '\n';
  return csv.str();
}

TEST(FlatGolden, TestbedBehaviourMatchesItsSummary) {
  // What the fig2-fig5 engine must do on this scenario, not one summation
  // order: the PS queues' floating-point arithmetic may change without
  // changing any of this. Each bound comes from the measurement quoted
  // beside it; a controller that holds a fixed allocation instead of
  // running the MPC misses the p90 bound.
  const core::ScenarioResult run = run_flat_testbed(1, 1);
  const double period_s = run.control_period_s;
  const double setpoint_s = 1.0;
  constexpr double kSettledFromS = 100.0;

  // Mean per-period p90 after settling, per app: 0.999-1.007 s against the
  // 1 s setpoint (0.989-1.014 s with the earlier dual-mode PS queue). A
  // per-period p90 scatters by ~25 % around the setpoint, so over 75
  // periods the mean of one realization is good to ~3.5 %. Bound: 10 %.
  for (std::size_t app = 0; app < run.app_count; ++app) {
    const std::vector<double>& p90 = run.response_series(app);
    const auto first = static_cast<std::size_t>(kSettledFromS / period_s);
    ASSERT_GT(p90.size(), first + 50);
    double sum = 0.0;
    for (std::size_t k = first; k < p90.size(); ++k) sum += p90[k];
    const double mean = sum / static_cast<double>(p90.size() - first);
    EXPECT_NEAR(mean / setpoint_s, 1.0, 0.10) << "app " << app << " settled p90 " << mean;
  }

  // Cluster energy over the run: 90.43 kJ (87.70 kJ with the dual-mode PS
  // queue, whose model identification and trajectories differed). Bound:
  // 6 %.
  double energy_kj = 0.0;
  for (const double w : run.power_series()) energy_kj += w * period_s / 1000.0;
  EXPECT_NEAR(energy_kj, 90.43, 0.06 * 90.43);

  // IPAC runs at 120, 240 and 360 s; it migrated 9 VMs (9 before too).
  // Bound: 6 to 12.
  EXPECT_EQ(run.optimizer_invocations, 3u);
  EXPECT_GE(run.completed_migrations, 6u);
  EXPECT_LE(run.completed_migrations, 12u);
}

TEST(FlatGolden, ShardedTestbedIsByteIdenticalToOneShard) {
  // Partitioning the apps over 4 shards on 2 threads must not move a single
  // byte of the series. (The full shard x thread matrix lives in
  // test_sharding.cpp.)
  const std::string one = testbed_csv(run_flat_testbed(1, 1));
  const std::string four = testbed_csv(run_flat_testbed(4, 2));
  EXPECT_GT(one.size(), 10'000u);
  EXPECT_EQ(one, four);
}

// ---- telemetry export bytes -------------------------------------------------

TEST(FlatGolden, TelemetryTestbedCsvMatchesGolden) {
  // A fig2-style testbed run. While tier-0 retention covers the run (the
  // default by a wide margin), the tiered store must hand every exporter
  // every appended sample — cmp-equal CSV, pinned by a committed golden
  // whose response, allocation and cluster columns were first generated
  // from plain unbounded vectors. The replica, live-VM and fault columns
  // read 1, 4 and 0 on this healthy run.
  core::ScenarioSpec spec;
  spec.name = "telemetry-golden";
  spec.engine = core::ScenarioSpec::Engine::kTestbed;
  spec.testbed.num_apps = 2;
  spec.testbed.num_servers = 2;
  spec.model = shared_model();
  spec.seed = 11;
  spec.duration_s = 200.0;

  const core::ScenarioResult result = core::ScenarioRunner().run(spec);
  check_golden("telemetry_testbed.csv", telemetry::to_csv(result.recorder));
}

// ---- trace-driven simulation (the engine behind fig6) -----------------------

/// Deterministic synthetic utilization trace: piecewise-constant seeded
/// draws (no libm in the generator, so the bytes cannot drift across math
/// library versions).
trace::UtilizationTrace golden_trace() {
  constexpr std::size_t kVms = 40;
  constexpr std::size_t kSamples = 96;  // one day at 15 min
  trace::UtilizationTrace t(kVms, kSamples);
  util::Rng rng(12345);
  for (std::size_t s = 0; s < kVms; ++s) {
    double level = rng.uniform(0.05, 0.6);
    for (std::size_t k = 0; k < kSamples; ++k) {
      if (k % 8 == 0) level = rng.uniform(0.05, 0.8);
      t.set(s, k, level);
    }
  }
  return t;
}

TEST(FlatGolden, TraceSimResultsAreByteIdentical) {
  const trace::UtilizationTrace t = golden_trace();
  const core::TraceDrivenSimulator sim(t);
  std::ostringstream csv;
  csv << "algo,field,index,value\n";
  for (const core::ConsolidationAlgorithm algo :
       {core::ConsolidationAlgorithm::kIpac, core::ConsolidationAlgorithm::kPMapper}) {
    core::TraceSimConfig config;
    config.num_vms = 40;
    config.pool_size = 120;
    config.seed = 42;
    config.algorithm = algo;
    config.dvfs = algo == core::ConsolidationAlgorithm::kIpac;
    const core::TraceSimResult result = sim.run(config);
    const std::string name = core::to_string(algo);
    csv << name << ",energy_wh_total,," << fmt(result.total_energy_wh) << '\n';
    csv << name << ",energy_wh_per_vm,," << fmt(result.energy_wh_per_vm) << '\n';
    csv << name << ",migrations,," << result.migrations << '\n';
    csv << name << ",optimizer_invocations,," << result.optimizer_invocations << '\n';
    csv << name << ",server_wakes,," << result.server_wakes << '\n';
    csv << name << ",peak_active_servers,," << result.peak_active_servers << '\n';
    csv << name << ",final_active_servers,," << result.final_active_servers << '\n';
    csv << name << ",overload_fraction,," << fmt(result.overload_fraction) << '\n';
    for (std::size_t k = 0; k < result.power_series_w.size(); ++k) {
      csv << name << ",power_w," << k << ',' << fmt(result.power_series_w[k]) << '\n';
    }
  }
  check_golden("trace_sim.csv", csv.str());
}

}  // namespace
}  // namespace vdc
