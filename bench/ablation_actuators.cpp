// Actuator ablation: what horizontal scaling and the robust control plane
// buy when DVFS alone runs out of headroom.
//
// Three scenario families, one committed JSON (BENCH_actuators.json):
//
//  1. Surge (standalone AppStack): the workload jumps from 40 to 240
//     concurrent clients mid-run. The MPC's continuous actuator saturates
//     at c_max per tier — 240 clients need more cycles than one replica
//     can be given — so DVFS-only stays infeasible while the supervisory
//     layer scales the tiers out and re-attains the SLA.
//       dvfs_only          MPC alone (the paper's controller)
//       horizontal         MPC + scaling supervisor
//       robust_horizontal  robust MPC variant + scaling supervisor
//
//  2. Chaos (same surge plus sensor faults): response samples dropped,
//     spiked 4x, and whole periods wedged stale while the surge response
//     is in flight. The nominal pipeline feeds the raw garbage to the MPC
//     and supervisor; the robust variant (spike filter, derated gain,
//     setpoint margin, release slew) must still re-attain the SLA — the
//     CI soft gate (--require-robust-slo) checks exactly that.
//
//  3. Testbed (full co-simulation): two apps on two servers with the
//     supervisor creating/retiring real cluster VMs, plus a DVFS-pin
//     actuator fault on server 0 while app 0 surges. Exercises replica
//     VM placement, per-server arbitration over replicas, and scale-in
//     retirement end to end.
//
// Flags:
//   --quick               shorter runs (CI smoke)
//   --out PATH            where to write the JSON (default BENCH_actuators.json)
//   --require-robust-slo  exit non-zero unless robust_horizontal re-attains
//                         the SLA under chaos (soft CI gate: the claim the
//                         robust layer exists to make)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace {

using namespace vdc;
using namespace vdc::core;

constexpr double kSetpointS = 1.0;
constexpr double kPeriodS = 4.0;
constexpr std::size_t kBaseClients = 40;
constexpr std::size_t kSurgeClients = 240;

control::MpcConfig mpc_config() {
  return control::MpcConfig{
      .prediction_horizon = 12,
      .control_horizon = 3,
      .q_weight = 1.0,
      .r_weight = {1.0},
      .period_s = kPeriodS,
      .tref_s = 16.0,
      .setpoint = kSetpointS,
      .c_min = {0.15},
      .c_max = {1.5},
      .delta_max = 0.3,
      .terminal = control::MpcConfig::Terminal::kSoft,
      .terminal_weight = 50.0,
      .disturbance_gain = 0.5,
  };
}

SupervisorConfig supervisor_config() {
  SupervisorConfig sup;
  sup.enabled = true;
  sup.max_replicas = 4;
  return sup;
}

control::RobustConfig robust_config() {
  return control::RobustConfig{};  // defaults: 30% gain margin, 0.9 setpoint
                                   // margin, 0.1 GHz release slew, 3-sample
                                   // spike filter
}

struct VariantMetrics {
  std::string name;
  double settled_p90_s = 0.0;  ///< mean recorded p90 over the settled window
  bool slo_ok = false;
  double reattain_s = -1.0;    ///< surge -> first sustained return under SLA
  double mean_alloc_ghz = 0.0; ///< post-surge sum of alloc x replicas (power proxy)
  double peak_replicas = 0.0;  ///< max total replicas across tiers
  std::uint64_t scale_outs = 0;
  std::uint64_t scale_ins = 0;
  std::size_t stale_holds = 0;
};

/// Scores one scenario result. `surge_s` is when the surge hit, `settled_s`
/// where the steady-state window starts.
VariantMetrics analyze(const char* name, const ScenarioResult& result, double surge_s,
                       double settled_s) {
  VariantMetrics m;
  m.name = name;
  m.scale_outs = result.scale_outs;
  m.scale_ins = result.scale_ins;
  m.stale_holds = result.stale_holds;

  const util::RunningStats settled = result.response_stats_after(0, settled_s);
  m.settled_p90_s = settled.mean();
  m.slo_ok = settled.count() > 0 && m.settled_p90_s <= kSetpointS * 1.1;

  // Re-attain time: first period after the surge where the recorded p90
  // stays at or under 1.05 x setpoint for three consecutive periods.
  const std::vector<double>& resp = result.response_series(0);
  const auto first = static_cast<std::size_t>(surge_s / result.control_period_s);
  std::size_t streak = 0;
  for (std::size_t k = first; k < resp.size(); ++k) {
    streak = resp[k] <= kSetpointS * 1.05 ? streak + 1 : 0;
    if (streak == 3) {
      m.reattain_s = static_cast<double>(k - 2 + 1) * result.control_period_s - surge_s;
      break;
    }
  }

  // Power proxy: total granted capacity = per-replica allocation x replica
  // count, summed over tiers, averaged over the post-surge window. Both
  // series gain one row per control period.
  const telemetry::Recorder::RowsView alloc = result.allocation_series(0);
  const telemetry::Recorder::RowsView replicas = result.recorder.rows(replica_series_name(0));
  util::RunningStats alloc_stats;
  double peak = 0.0;
  for (std::size_t k = 0; k < alloc.size(); ++k) {
    double total_ghz = 0.0;
    double total_replicas = 0.0;
    for (std::size_t j = 0; j < alloc[k].size(); ++j) {
      const double n = replicas[k][j];
      total_ghz += alloc[k][j] * n;
      total_replicas += n;
    }
    if (total_replicas > peak) peak = total_replicas;
    if (static_cast<double>(k) * result.control_period_s >= surge_s) {
      alloc_stats.add(total_ghz);
    }
  }
  m.mean_alloc_ghz = alloc_stats.count() > 0 ? alloc_stats.mean() : 0.0;
  m.peak_replicas = peak;
  return m;
}

void append_metrics_json(std::string& json, const VariantMetrics& m) {
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"settled_p90_s\": %.4f, \"slo_ok\": %s, "
                "\"reattain_s\": %.1f, \"mean_alloc_ghz\": %.3f, "
                "\"peak_replicas\": %.0f, \"scale_outs\": %llu, \"scale_ins\": %llu, "
                "\"stale_holds\": %zu}",
                m.name.c_str(), m.settled_p90_s, m.slo_ok ? "true" : "false", m.reattain_s,
                m.mean_alloc_ghz, m.peak_replicas,
                static_cast<unsigned long long>(m.scale_outs),
                static_cast<unsigned long long>(m.scale_ins), m.stale_holds);
  json += buf;
}

void print_metrics(const VariantMetrics& m) {
  std::printf("%-20s %12.3f %6s %11.1f %12.3f %9.0f %6llu/%llu\n", m.name.c_str(),
              m.settled_p90_s, m.slo_ok ? "yes" : "NO", m.reattain_s, m.mean_alloc_ghz,
              m.peak_replicas, static_cast<unsigned long long>(m.scale_outs),
              static_cast<unsigned long long>(m.scale_ins));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool require_robust_slo = false;
  std::string out_path = "BENCH_actuators.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--require-robust-slo") == 0) {
      require_robust_slo = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const double surge_s = quick ? 300.0 : 400.0;
  const double duration_s = quick ? 1100.0 : 1600.0;
  const double settled_s = duration_s - (quick ? 300.0 : 400.0);

  // One shared plant/model across every variant: identical workload, seed,
  // and ARX model, so the ONLY difference between rows is the control plane.
  AppStackConfig base;
  base.app = app::default_two_tier_app("surge", /*seed=*/11, kBaseClients);
  base.mpc = mpc_config();

  SysIdExperimentConfig sysid;
  const SysIdExperimentResult identified = identify_app_model(base.app, sysid);
  std::printf("# ablation_actuators: shared ARX model R^2 = %.3f\n", identified.r_squared);

  const auto make_spec = [&](const char* name, bool supervised, bool robust,
                             bool chaos) {
    ScenarioSpec spec;
    spec.name = name;
    spec.engine = ScenarioSpec::Engine::kAppStack;
    spec.stack = base;
    if (supervised) spec.stack.supervisor = supervisor_config();
    if (robust) spec.stack.robust = robust_config();
    spec.model = identified.model;
    spec.duration_s = duration_s;
    spec.concurrency_schedule = {{surge_s, 0, kSurgeClients}};
    if (chaos) {
      // Sensor faults land while the surge response is in flight: dropped
      // samples, 4x spikes, then a wedged (stale) monitor pipeline.
      spec.faults.sensor_dropout(surge_s + 100.0, surge_s + 180.0, 0.6, 0)
          .sensor_spikes(surge_s + 180.0, surge_s + 260.0, 4.0, 0.4, 0)
          .sensor_stale(surge_s + 260.0, surge_s + 308.0, 0);
    }
    return spec;
  };

  const std::vector<ScenarioSpec> specs = {
      make_spec("surge/dvfs_only", false, false, false),
      make_spec("surge/horizontal", true, false, false),
      make_spec("surge/robust_horizontal", true, true, false),
      make_spec("chaos/horizontal", true, false, true),
      make_spec("chaos/robust_horizontal", true, true, true),
  };
  const ScenarioRunner runner;
  const std::vector<ScenarioResult> results = runner.run_all(specs);

  std::printf("%-20s %12s %6s %11s %12s %9s %9s\n", "variant", "settled_p90", "slo",
              "reattain_s", "alloc_ghz", "peak_rep", "out/in");
  std::vector<VariantMetrics> metrics;
  metrics.reserve(results.size());
  for (const ScenarioResult& result : results) {
    metrics.push_back(analyze(result.name.c_str(), result, surge_s, settled_s));
    print_metrics(metrics.back());
  }

  // ---- testbed leg: replica VMs + DVFS-pin actuator fault -----------------
  ScenarioSpec tb;
  tb.name = "testbed/robust_horizontal";
  tb.engine = ScenarioSpec::Engine::kTestbed;
  tb.testbed.num_apps = 2;
  tb.testbed.num_servers = 2;
  tb.testbed.concurrency = kBaseClients;
  tb.testbed.supervisor = supervisor_config();
  tb.testbed.robust = robust_config();
  tb.testbed.replica_boot_delay_s = 30.0;
  tb.model = identified.model;
  tb.duration_s = quick ? 800.0 : 1200.0;
  const double tb_surge_s = quick ? 250.0 : 400.0;
  tb.concurrency_schedule = {{tb_surge_s, 0, quick ? std::size_t{200} : std::size_t{220}}};
  // Actuator fault: server 0 pinned to its lowest DVFS step mid-surge.
  tb.faults.dvfs_pin(0, 1.0, tb_surge_s + 100.0, tb_surge_s + 300.0);
  const ScenarioResult tb_result = runner.run(tb);
  const VariantMetrics tb_metrics = analyze("testbed/robust_horizontal", tb_result,
                                            tb_surge_s, tb.duration_s - 300.0);
  print_metrics(tb_metrics);
  std::printf("testbed: %zu migrations, %llu scale-outs, %llu scale-ins\n",
              tb_result.completed_migrations,
              static_cast<unsigned long long>(tb_result.scale_outs),
              static_cast<unsigned long long>(tb_result.scale_ins));

  const VariantMetrics& dvfs_only = metrics[0];
  const VariantMetrics& robust_chaos = metrics[4];
  const bool dvfs_only_infeasible = !dvfs_only.slo_ok;
  const bool robust_reattains = robust_chaos.slo_ok && robust_chaos.reattain_s >= 0.0;

  std::string json = "{\n  \"bench\": \"ablation_actuators\",\n";
  json += quick ? "  \"mode\": \"quick\",\n" : "  \"mode\": \"full\",\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  \"setpoint_s\": %.2f,\n  \"surge\": {\"time_s\": %.0f, \"from\": %zu, "
                "\"to\": %zu},\n  \"model_r_squared\": %.4f,\n  \"variants\": {\n",
                kSetpointS, surge_s, kBaseClients, kSurgeClients, identified.r_squared);
  json += line;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    append_metrics_json(json, metrics[i]);
    json += ",\n";
  }
  append_metrics_json(json, tb_metrics);
  json += "\n  },\n";
  std::snprintf(line, sizeof(line),
                "  \"testbed\": {\"migrations\": %zu, \"scale_outs\": %llu, "
                "\"scale_ins\": %llu},\n",
                tb_result.completed_migrations,
                static_cast<unsigned long long>(tb_result.scale_outs),
                static_cast<unsigned long long>(tb_result.scale_ins));
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"dvfs_only_infeasible\": %s,\n  \"robust_reattains_under_chaos\": %s\n}\n",
                dvfs_only_infeasible ? "true" : "false",
                robust_reattains ? "true" : "false");
  json += line;

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  if (require_robust_slo && !robust_reattains) {
    std::fprintf(stderr,
                 "FAIL: robust_horizontal did not re-attain the SLA under chaos "
                 "(settled p90 %.3f s, reattain %.1f s)\n",
                 robust_chaos.settled_p90_s, robust_chaos.reattain_s);
    return 1;
  }
  return 0;
}
