// Streaming-telemetry performance harness.
//
// Measures the tiered tsdb store: Recorder append throughput, by series
// name and by SeriesId, against a bare std::vector<double>::push_back loop, storage cost (bytes/sample from
// the engine's deterministic storage model) at 1-hour and 1-week horizons, a
// week-long fleet-scale stream across many metrics with ops-style retention,
// and range-query latency per tier. Results are written as machine-readable
// JSON (BENCH_telemetry.json) so CI can gate on storage regressions.
//
// Flags:
//   --quick                    smaller metric counts / shorter streams
//                              (CI smoke mode)
//   --out PATH                 where to write the JSON
//                              (default BENCH_telemetry.json)
//   --max-bytes-per-sample X   exit non-zero if the week-horizon storage
//                              cost exceeds X bytes/sample (CI soft gate;
//                              0 disables)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/recorder.hpp"
#include "telemetry/tsdb.hpp"
#include "util/rng.hpp"

namespace {

using vdc::telemetry::Recorder;
using vdc::telemetry::tsdb::MetricId;
using vdc::telemetry::tsdb::Tier;
using vdc::telemetry::tsdb::Tsdb;
using vdc::telemetry::tsdb::TsdbConfig;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return s > 0.0 ? s : 1e-9;  // clock granularity floor
}

/// Appends `n` samples into a Recorder by series name and reports
/// appends/sec.
double recorder_append_rate(std::size_t n) {
  Recorder rec;
  vdc::util::Rng rng(1);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) rec.append("m", rng.uniform(0.0, 2.0));
  return static_cast<double>(n) / seconds_since(t0);
}

/// The same appends through the SeriesId the declaration returned — the
/// path the simulator's control tick takes.
double recorder_id_append_rate(std::size_t n) {
  Recorder rec;
  const Recorder::SeriesId id = rec.declare_scalar("m");
  vdc::util::Rng rng(1);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) rec.append(id, rng.uniform(0.0, 2.0));
  return static_cast<double>(n) / seconds_since(t0);
}

/// The same samples pushed onto a plain vector: the floor any sample
/// store is measured against.
double vector_push_back_rate(std::size_t n) {
  std::vector<double> samples;
  vdc::util::Rng rng(1);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform(0.0, 2.0));
  const double rate = static_cast<double>(n) / seconds_since(t0);
  if (samples.size() != n) std::printf("# impossible\n");  // keep the loop observable
  return rate;
}

struct HorizonResult {
  std::size_t metrics = 0;
  std::size_t samples_per_metric = 0;
  double appends_per_sec = 0.0;
  std::size_t memory_bytes = 0;
  std::size_t pages_live = 0;
  double bytes_per_sample = 0.0;
  bool within_budget = false;
};

/// Deterministic per-metric storage budget implied by the config: the full
/// page ring (+1 recycling spare), full rollup retention rings, and the
/// open-window accumulators of both tiers at one sample per period.
std::size_t budget_bytes_per_metric(const TsdbConfig& c, double sample_period_s) {
  const std::size_t page_bytes = c.page_samples * sizeof(vdc::telemetry::tsdb::RawSample);
  const std::size_t pages = (c.tier0_max_pages == 0 ? 1 : c.tier0_max_pages) + 1;
  const auto acc_samples =
      static_cast<std::size_t>((c.tier1_period_s + c.tier2_period_s) / sample_period_s) + 2;
  return pages * page_bytes +
         (c.tier1_retention_points + c.tier2_retention_points + 2) *
             sizeof(vdc::telemetry::tsdb::RollupPoint) +
         acc_samples * 40;
}

/// Streams `samples_per_metric` samples at `period_s` into `metrics`
/// metrics and reports the storage model's verdict.
HorizonResult run_horizon(const TsdbConfig& config, std::size_t metrics,
                          std::size_t samples_per_metric, double period_s) {
  Tsdb db(config);
  std::vector<MetricId> ids;
  ids.reserve(metrics);
  for (std::size_t m = 0; m < metrics; ++m) {
    std::string name = "m";
    name += std::to_string(m);
    ids.push_back(db.declare(name));
  }
  vdc::util::Rng rng(7);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < samples_per_metric; ++k) {
    const double t = static_cast<double>(k) * period_s;
    for (const MetricId id : ids) db.append(id, t, rng.uniform(0.0, 2.0));
  }
  const double wall_s = seconds_since(t0);

  HorizonResult out;
  out.metrics = metrics;
  out.samples_per_metric = samples_per_metric;
  out.appends_per_sec = static_cast<double>(metrics * samples_per_metric) / wall_s;
  out.memory_bytes = db.approx_memory_bytes();
  out.pages_live = db.pages_live();
  out.bytes_per_sample = static_cast<double>(out.memory_bytes) /
                         static_cast<double>(metrics * samples_per_metric);
  out.within_budget =
      out.memory_bytes <= budget_bytes_per_metric(config, period_s) * metrics;
  return out;
}

struct QueryLatency {
  double raw_us = 0.0;
  double rollup_us = 0.0;
  double auto_us = 0.0;
};

/// Random range queries against a week-long single-metric store.
QueryLatency run_queries(const Tsdb& db, MetricId id, double horizon_s, std::size_t n) {
  vdc::util::Rng rng(13);
  QueryLatency out;
  double sink = 0.0;
  auto time_loop = [&](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) body();
    return seconds_since(t0) * 1e6 / static_cast<double>(n);
  };
  out.raw_us = time_loop([&] {
    const double t0 = rng.uniform(0.0, horizon_s);
    sink += static_cast<double>(db.raw(id, t0, t0 + 400.0).size());
  });
  out.rollup_us = time_loop([&] {
    const double t0 = rng.uniform(0.0, horizon_s);
    sink += static_cast<double>(db.rollups(id, Tier::kPeriod, t0, t0 + 4000.0).size());
  });
  out.auto_us = time_loop([&] {
    const double t0 = rng.uniform(0.0, horizon_s);
    sink += static_cast<double>(db.query(id, t0, horizon_s).size());
  });
  if (sink < 0.0) std::printf("# impossible\n");  // keep the loops observable
  return out;
}

void append_horizon_json(std::string& json, const char* name, const HorizonResult& h) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"metrics\": %zu, \"samples_per_metric\": %zu, "
                "\"appends_per_sec\": %.0f, \"memory_bytes\": %zu, \"pages_live\": %zu, "
                "\"bytes_per_sample\": %.2f, \"within_budget\": %s}",
                name, h.metrics, h.samples_per_metric, h.appends_per_sec, h.memory_bytes,
                h.pages_live, h.bytes_per_sample, h.within_budget ? "true" : "false");
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_telemetry.json";
  double max_bytes_per_sample = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-bytes-per-sample") == 0 && i + 1 < argc) {
      max_bytes_per_sample = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  constexpr double kHourS = 3600.0;
  constexpr double kWeekS = 7.0 * 24.0 * 3600.0;
  constexpr double kControlPeriodS = 4.0;

  std::printf("# perf_telemetry: tiered tsdb store vs a bare std::vector\n");

  // ---- append throughput through the Recorder front door -------------------
  const std::size_t n_appends = quick ? 200'000 : 2'000'000;
  const double recorder_rate = recorder_append_rate(n_appends);
  const double recorder_id_rate = recorder_id_append_rate(n_appends);
  const double vector_rate = vector_push_back_rate(n_appends);
  std::printf("\n%-28s %16s\n", "store", "appends/sec");
  std::printf("%-28s %16.0f\n", "recorder by name (tsdb)", recorder_rate);
  std::printf("%-28s %16.0f\n", "recorder by id (tsdb)", recorder_id_rate);
  std::printf("%-28s %16.0f\n", "std::vector push_back", vector_rate);
  std::printf("%-28s %15.3fx\n", "by-name/vector ratio", recorder_rate / vector_rate);
  std::printf("%-28s %15.3fx\n", "by-id/vector ratio", recorder_id_rate / vector_rate);

  // ---- storage at 1-hour and 1-week horizons (default config) --------------
  // One sample per 4 s control period, default retention: the week horizon
  // runs far past tier-0 retention, so raw pages recycle while the rollup
  // tiers keep the whole history's statistics.
  const std::size_t horizon_metrics = quick ? 8 : 64;
  const TsdbConfig default_config;
  const auto hour_samples = static_cast<std::size_t>(kHourS / kControlPeriodS);
  const auto week_samples = static_cast<std::size_t>(kWeekS / kControlPeriodS);
  const HorizonResult hour =
      run_horizon(default_config, horizon_metrics, hour_samples, kControlPeriodS);
  const HorizonResult week =
      run_horizon(default_config, horizon_metrics, week_samples, kControlPeriodS);
  std::printf("\n%-8s %8s %10s %14s %12s %10s %8s\n", "horizon", "metrics", "samples/m",
              "appends/sec", "mem (KiB)", "B/sample", "bounded");
  for (const auto& [name, h] : {std::pair{"1h", &hour}, std::pair{"1week", &week}}) {
    std::printf("%-8s %8zu %10zu %14.0f %12.1f %10.2f %8s\n", name, h->metrics,
                h->samples_per_metric, h->appends_per_sec,
                static_cast<double>(h->memory_bytes) / 1024.0, h->bytes_per_sample,
                h->within_budget ? "yes" : "NO");
  }

  // ---- week-long fleet-scale stream (ops retention, many metrics) ----------
  // 10k metrics for a simulated week at a 240 s sampling period, with the
  // kind of retention an operator would configure at that scale: a small
  // raw ring per metric, a day of per-period rollups, a week of hourly.
  TsdbConfig fleet_config;
  fleet_config.page_samples = 64;
  fleet_config.tier0_max_pages = 8;
  fleet_config.tier1_period_s = 240.0;
  fleet_config.tier1_retention_points = 360;  // a day at 240 s
  fleet_config.tier2_retention_points = 168;  // a week of hours
  const std::size_t fleet_metrics = quick ? 500 : 10'000;
  const double fleet_period_s = 240.0;
  const auto fleet_samples = static_cast<std::size_t>(kWeekS / fleet_period_s);
  const HorizonResult fleet =
      run_horizon(fleet_config, fleet_metrics, fleet_samples, fleet_period_s);
  const double unbounded_vector_bytes =
      static_cast<double>(fleet_metrics * fleet_samples) * static_cast<double>(sizeof(double));
  std::printf("\n# fleet week: %zu metrics x %zu samples -> %.1f MiB (raw vectors: %.1f "
              "MiB), %.2f bytes/sample, %s\n",
              fleet.metrics, fleet.samples_per_metric,
              static_cast<double>(fleet.memory_bytes) / (1024.0 * 1024.0),
              unbounded_vector_bytes / (1024.0 * 1024.0), fleet.bytes_per_sample,
              fleet.within_budget ? "within page budget" : "OVER PAGE BUDGET");

  // ---- query latency against a week-long stream ----------------------------
  Tsdb query_db(default_config);
  const MetricId qid = query_db.declare("q");
  {
    vdc::util::Rng rng(21);
    for (std::size_t k = 0; k < week_samples; ++k) {
      query_db.append(qid, static_cast<double>(k) * kControlPeriodS, rng.uniform(0.0, 2.0));
    }
  }
  const std::size_t n_queries = quick ? 2'000 : 20'000;
  const QueryLatency q = run_queries(query_db, qid, kWeekS, n_queries);
  std::printf("\n%-28s %14s\n", "query", "us/query");
  std::printf("%-28s %14.2f\n", "raw 400 s range", q.raw_us);
  std::printf("%-28s %14.2f\n", "tier-1 4000 s range", q.rollup_us);
  std::printf("%-28s %14.2f\n", "auto, range to horizon", q.auto_us);

  // ---- JSON ----------------------------------------------------------------
  std::string json = "{\n  \"bench\": \"perf_telemetry\",\n";
  json += quick ? "  \"mode\": \"quick\",\n" : "  \"mode\": \"full\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"append\": {\"recorder_appends_per_sec\": %.0f, "
                "\"recorder_id_appends_per_sec\": %.0f, "
                "\"vector_push_backs_per_sec\": %.0f, \"recorder_vs_vector\": %.3f, "
                "\"recorder_id_vs_vector\": %.3f},\n",
                recorder_rate, recorder_id_rate, vector_rate, recorder_rate / vector_rate,
                recorder_id_rate / vector_rate);
  json += buf;
  json += "  \"horizons\": {\n";
  append_horizon_json(json, "1h", hour);
  json += ",\n";
  append_horizon_json(json, "1week", week);
  json += ",\n";
  append_horizon_json(json, "fleet_week", fleet);
  json += "\n  },\n";
  std::snprintf(buf, sizeof(buf),
                "  \"queries_us\": {\"raw\": %.2f, \"rollup\": %.2f, \"auto\": %.2f},\n",
                q.raw_us, q.rollup_us, q.auto_us);
  json += buf;
  std::snprintf(buf, sizeof(buf), "  \"week_bytes_per_sample\": %.2f\n}\n",
                week.bytes_per_sample > fleet.bytes_per_sample ? week.bytes_per_sample
                                                               : fleet.bytes_per_sample);
  json += buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }

  if (!hour.within_budget || !week.within_budget || !fleet.within_budget) {
    std::fprintf(stderr, "REGRESSION: storage model exceeded the configured page budget\n");
    return 1;
  }
  const double worst_bytes_per_sample = week.bytes_per_sample > fleet.bytes_per_sample
                                            ? week.bytes_per_sample
                                            : fleet.bytes_per_sample;
  if (max_bytes_per_sample > 0.0 && worst_bytes_per_sample > max_bytes_per_sample) {
    std::fprintf(stderr, "REGRESSION: %.2f bytes/sample at the week horizon > allowed %.2f\n",
                 worst_bytes_per_sample, max_bytes_per_sample);
    return 1;
  }
  return 0;
}
