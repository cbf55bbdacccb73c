// One repetition of one workload, printed as a single JSON line:
//
//   vdc_perfbench --workload testbed --seed 1 [--traced]
//   vdc_perfbench --info
//
// perfbench/run.py runs this once per repetition, so every repetition is a
// process of its own (its peak RSS is the workload's alone) and a crash
// costs one repetition, not the run.
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/log.hpp"

namespace {

using perfbench::Rep;
using perfbench::Workload;

#ifdef VDC_CHECKS_OFF
constexpr bool kChecks = false;
#else
constexpr bool kChecks = true;
#endif

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

template <typename T, typename Format>
std::string array(const std::vector<T>& items, Format format) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += format(items[i]);
  }
  out += ']';
  return out;
}

/// Flat JSON object built field by field; values arrive already encoded.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& encoded) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += quoted(key);
    out_ += ": ";
    out_ += encoded;
    return *this;
  }
  JsonObject& add(const std::string& key, double value) { return add(key, number(value)); }
  JsonObject& add(const std::string& key, std::uint64_t value) {
    return add(key, std::to_string(value));
  }
  [[nodiscard]] std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

// VmHWM, the peak RSS of this process image. getrusage's ru_maxrss would
// also carry the high-water mark of the process this one was exec'ed from
// (perfbench/run.py), which exceeds a small workload's own peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_info() {
  const std::string workloads =
      array(perfbench::workloads(), [](const Workload& w) { return quoted(w.name); });
  JsonObject info;
  info.add("hardware_concurrency", std::uint64_t{std::thread::hardware_concurrency()})
      .add("build_type", quoted(VDC_PERFBENCH_BUILD_TYPE))
      .add("vdc_checks", kChecks ? "true" : "false")
      .add("threads", std::uint64_t{perfbench::kThreads})
      .add("workloads", workloads);
  std::printf("%s\n", info.str().c_str());
}

void print_rep(const Rep& rep, const std::vector<double>& reference_s) {
  const perfbench::SimOutputs& o = rep.out;
  JsonObject outputs;
  outputs.add("energy_kj", o.energy_kj)
      .add("p90_err_pct", o.p90_err_pct)
      .add("overload_pct", o.overload_pct)
      .add("events", o.events)
      .add("requests", o.requests)
      .add("migrations", o.migrations)
      .add("plans", o.plans)
      .add("barriers", o.barriers)
      .add("resident_jobs_max", o.resident_jobs_max);
  JsonObject values;
  for (const auto& [name, value] : rep.layers.values) values.add(name, value);
  JsonObject spans;
  for (const auto& [name, span] : rep.layers.spans) spans.add(name, array(span, number));
  JsonObject json;
  json.add("setup_s", rep.setup_s)
      .add("run_s", rep.run_s)
      .add("sim_seconds", rep.sim_seconds)
      .add("replay_s", rep.replay_s)
      .add("reference_s", array(reference_s, number))
      .add("peak_rss_mb", peak_rss_mb())
      .add("outputs", outputs.str())
      .add("errors", array(rep.errors, quoted))
      .add("values", values.str())
      .add("spans", spans.str());
  std::printf("%s\n", json.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: vdc_perfbench --workload NAME --seed N [--traced]\n"
               "       vdc_perfbench --info\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vdc::util::set_log_level(vdc::util::LogLevel::kError);
  std::string name;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--info") {
      print_info();
      return 0;
    }
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  for (const Workload& w : perfbench::workloads()) {
    if (w.name != name) continue;
    try {
      // Reference passes bracket the repetition (see reference.cpp).
      const double reference_before_s = perfbench::reference_kernel_s();
      Rep rep = w.run(seed, traced);
      print_rep(rep, {reference_before_s, perfbench::reference_kernel_s()});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vdc_perfbench: %s: %s\n", name.c_str(), e.what());
      return 1;
    }
    return 0;
  }
  return usage();
}
