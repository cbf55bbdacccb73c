// Streaming-telemetry performance harness.
//
// Measures the Recorder's page-aged series buffers: append throughput, by
// series name and by SeriesId, against a bare std::vector<double>::push_back
// loop, and storage cost (the bytes the buffers hold per retained sample,
// from Recorder::approx_memory_bytes) at 1-hour and 1-week horizons and on a
// week-long fleet-scale stream across many metrics with a small page budget.
// Results are written as machine-readable JSON (BENCH_telemetry.json) so CI
// can gate on storage regressions.
//
// Flags:
//   --quick                    smaller metric counts / shorter streams
//                              (CI smoke mode)
//   --out PATH                 where to write the JSON
//                              (default BENCH_telemetry.json)
//   --max-bytes-per-sample X   exit non-zero if the week-horizon storage
//                              cost exceeds X bytes per retained sample (CI
//                              soft gate; 0 disables)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "telemetry/recorder.hpp"
#include "util/rng.hpp"

namespace {

using vdc::telemetry::Recorder;
using vdc::telemetry::RecorderConfig;

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
  std::size_t retained_samples = 0;
  double bytes_per_sample = 0.0;
  bool within_budget = false;
};

/// Streams `samples_per_metric` samples at the config's sample period into
/// `metrics` scalar series, by id, and reports what the buffers hold. The
/// budget is the full page ring of every series.
HorizonResult run_horizon(const RecorderConfig& config, std::size_t metrics,
                          std::size_t samples_per_metric) {
  Recorder rec(config);
  std::vector<Recorder::SeriesId> ids;
  ids.reserve(metrics);
  for (std::size_t m = 0; m < metrics; ++m) {
    std::string name = "m";
    name += std::to_string(m);
    ids.push_back(rec.declare_scalar(name));
  }
  vdc::util::Rng rng(7);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < samples_per_metric; ++k) {
    for (const Recorder::SeriesId id : ids) rec.append(id, rng.uniform(0.0, 2.0));
  }
  const double wall_s = seconds_since(t0);

  HorizonResult out;
  out.metrics = metrics;
  out.samples_per_metric = samples_per_metric;
  out.appends_per_sec = static_cast<double>(metrics * samples_per_metric) / wall_s;
  out.memory_bytes = rec.approx_memory_bytes();
  for (const std::string& name : rec.series_names()) out.retained_samples += rec.size(name);
  out.bytes_per_sample =
      static_cast<double>(out.memory_bytes) / static_cast<double>(out.retained_samples);
  out.within_budget = config.max_pages == 0 ||
                      out.memory_bytes <= config.max_pages * config.page_samples *
                                              sizeof(double) * metrics;
  return out;
}

void append_horizon_json(std::string& json, const char* name, const HorizonResult& h) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"metrics\": %zu, \"samples_per_metric\": %zu, "
                "\"appends_per_sec\": %.0f, \"memory_bytes\": %zu, \"retained_samples\": %zu, "
                "\"bytes_per_sample\": %.2f, \"within_budget\": %s}",
                name, h.metrics, h.samples_per_metric, h.appends_per_sec, h.memory_bytes,
                h.retained_samples, h.bytes_per_sample, h.within_budget ? "true" : "false");
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

  std::printf("# perf_telemetry: page-aged Recorder buffers vs a bare std::vector\n");

  // ---- append throughput through the Recorder front door -------------------
  const std::size_t n_appends = quick ? 200'000 : 2'000'000;
  const double recorder_rate = recorder_append_rate(n_appends);
  const double recorder_id_rate = recorder_id_append_rate(n_appends);
  const double vector_rate = vector_push_back_rate(n_appends);
  std::printf("\n%-28s %16s\n", "store", "appends/sec");
  std::printf("%-28s %16.0f\n", "recorder by name", recorder_rate);
  std::printf("%-28s %16.0f\n", "recorder by id", recorder_id_rate);
  std::printf("%-28s %16.0f\n", "std::vector push_back", vector_rate);
  std::printf("%-28s %15.3fx\n", "by-name/vector ratio", recorder_rate / vector_rate);
  std::printf("%-28s %15.3fx\n", "by-id/vector ratio", recorder_id_rate / vector_rate);

  // ---- storage at 1-hour and 1-week horizons (default config) --------------
  // One sample per 4 s control period, default retention: the week horizon
  // runs far past the 64-page budget, so every series holds its full page
  // ring and the oldest page ages out as each new one opens.
  const std::size_t horizon_metrics = quick ? 8 : 64;
  const RecorderConfig default_config{.sample_period_s = kControlPeriodS};
  const auto hour_samples = static_cast<std::size_t>(kHourS / kControlPeriodS);
  const auto week_samples = static_cast<std::size_t>(kWeekS / kControlPeriodS);
  const HorizonResult hour = run_horizon(default_config, horizon_metrics, hour_samples);
  const HorizonResult week = run_horizon(default_config, horizon_metrics, week_samples);
  std::printf("\n%-8s %8s %10s %14s %12s %10s %8s\n", "horizon", "metrics", "samples/m",
              "appends/sec", "mem (KiB)", "B/sample", "bounded");
  for (const auto& [name, h] : {std::pair{"1h", &hour}, std::pair{"1week", &week}}) {
    std::printf("%-8s %8zu %10zu %14.0f %12.1f %10.2f %8s\n", name, h->metrics,
                h->samples_per_metric, h->appends_per_sec,
                static_cast<double>(h->memory_bytes) / 1024.0, h->bytes_per_sample,
                h->within_budget ? "yes" : "NO");
  }

  // ---- week-long fleet-scale stream (small page budget, many metrics) -------
  // 10k metrics for a simulated week at a 240 s sampling period, each
  // keeping the last 8 pages of 64 samples.
  const RecorderConfig fleet_config{.sample_period_s = 240.0, .page_samples = 64, .max_pages = 8};
  const std::size_t fleet_metrics = quick ? 500 : 10'000;
  const auto fleet_samples = static_cast<std::size_t>(kWeekS / fleet_config.sample_period_s);
  const HorizonResult fleet = run_horizon(fleet_config, fleet_metrics, fleet_samples);
  const double unbounded_vector_bytes =
      static_cast<double>(fleet_metrics * fleet_samples) * static_cast<double>(sizeof(double));
  std::printf("\n# fleet week: %zu metrics x %zu samples -> %.1f MiB (unbounded vectors: "
              "%.1f MiB), %.2f bytes/retained sample, %s\n",
              fleet.metrics, fleet.samples_per_metric,
              static_cast<double>(fleet.memory_bytes) / (1024.0 * 1024.0),
              unbounded_vector_bytes / (1024.0 * 1024.0), fleet.bytes_per_sample,
              fleet.within_budget ? "within page budget" : "OVER PAGE BUDGET");

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
