// Tiered streaming time-series store (netdata-style) for telemetry at
// fleet scale. The Recorder's raw per-series vectors are the memory/IO wall
// at the 100k-server / 1M-VM target: seconds-scale sampling over a week is
// ~600k samples *per metric*, and experiments record thousands of metrics.
// This engine bounds memory per metric while keeping the statistics the
// control plane actually consumes — per-period count/min/avg/max/p90 (the
// paper's MPC tracks the period p90) — exact and cheap:
//
//   tier 0  raw timestamped samples in fixed-capacity ring pages
//           (O(1) append; oldest page evicted whole past the page budget)
//   tier 1  per-period rollups (default: the 4 s control period)
//   tier 2  hourly rollups
//
// Rollups are maintained by util::WindowStats (Welford moments plus the
// open window's samples, whose quantile is selected when the window
// closes), so every finalized or still-open window's count/min/avg/max/p90
// is bit-identical to a brute-force recompute over the raw samples of that
// window — the property the differential tests in tests/test_tsdb.cpp pin
// down. Eviction never goes backwards in fidelity: a raw page may be
// dropped, but the windows it contributed to live on in tiers 1 and 2.
//
// Appends must be non-decreasing in time per metric; out-of-order samples
// and NaN samples/timestamps are rejected and counted, never stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/page.hpp"
#include "telemetry/query.hpp"
#include "util/statistics.hpp"

namespace vdc::telemetry::tsdb {

using MetricId = std::uint32_t;

struct TsdbConfig {
  /// Raw samples per tier-0 page. Appends are O(1); a page is the eviction
  /// granule.
  std::size_t page_samples = 256;
  /// Tier-0 page budget per metric; 0 keeps every raw sample (the
  /// "retention covers the whole run" mode the CSV byte-identity oracle
  /// relies on).
  std::size_t tier0_max_pages = 64;
  /// Tier-1 rollup window (the paper's 4 s control period by default).
  double tier1_period_s = 4.0;
  /// Finalized tier-1 points kept per metric; 0 = unbounded.
  std::size_t tier1_retention_points = 4096;
  /// Tier-2 rollup window (hourly).
  double tier2_period_s = 3600.0;
  /// Finalized tier-2 points kept per metric; 0 = unbounded.
  std::size_t tier2_retention_points = 1024;
  /// The rolled-up quantile (0.9 = the paper's 90-percentile SLA).
  double quantile = 0.9;

  friend bool operator==(const TsdbConfig&, const TsdbConfig&) = default;
};

class Tsdb {
 public:
  /// Validates the config; throws std::invalid_argument on nonsense
  /// (zero-sample pages, non-positive periods, quantile outside [0,1]).
  explicit Tsdb(TsdbConfig config = {});

  /// Opens (or re-opens) a metric by name and returns its id. Idempotent:
  /// an existing name returns the already-assigned id.
  MetricId declare(const std::string& name);
  [[nodiscard]] std::optional<MetricId> find(std::string_view name) const noexcept;
  [[nodiscard]] const std::string& name(MetricId id) const { return metric(id).name; }
  [[nodiscard]] std::size_t metric_count() const noexcept { return metrics_.size(); }

  /// Appends one sample. Returns false (and counts the rejection) when the
  /// value or timestamp is NaN, or when the timestamp precedes the metric's
  /// last accepted sample; equal timestamps are accepted.
  bool append(MetricId id, double time_s, double value);

  /// Moves one metric — name, pages, rollups, accounting — out of `from`
  /// into this store and returns its id here. The sharded engine's
  /// merge-on-query path uses this to combine per-shard stores into one
  /// without copying a single sample. Requires identical configs and a name
  /// not yet declared here (throws std::invalid_argument otherwise); the
  /// slot left behind in `from` is emptied and its name unregistered.
  MetricId adopt(Tsdb& from, MetricId id);

  // ---- queries (ranges are half-open [t0, t1)) ----------------------------
  /// Serves the range from `tier`; kAuto picks the finest tier whose
  /// retained data still covers t0 (see query.hpp for the exact rules).
  [[nodiscard]] QueryResult query(MetricId id, double t0_s, double t1_s,
                                  Tier tier = Tier::kAuto) const;
  /// Retained raw samples in range.
  [[nodiscard]] std::vector<RawSample> raw(MetricId id, double t0_s, double t1_s) const;
  /// Retained rollup points whose windows intersect the range, including
  /// the still-open window (computed on the fly, nothing is mutated).
  [[nodiscard]] std::vector<RollupPoint> rollups(MetricId id, Tier tier, double t0_s,
                                                 double t1_s) const;
  /// Finalized points only (no open window) — the differential tests poke
  /// at these directly.
  [[nodiscard]] const std::deque<RollupPoint>& finalized(MetricId id, Tier tier) const;

  // ---- accounting (the memory-bound and bench contracts) ------------------
  [[nodiscard]] std::size_t samples_appended(MetricId id) const {
    return metric(id).samples_appended;
  }
  [[nodiscard]] std::size_t samples_evicted(MetricId id) const {
    return metric(id).samples_evicted;
  }
  [[nodiscard]] std::size_t rejected_nan(MetricId id) const { return metric(id).rejected_nan; }
  [[nodiscard]] std::size_t rejected_out_of_order(MetricId id) const {
    return metric(id).rejected_out_of_order;
  }
  /// Live tier-0 pages of one metric / across all metrics (the recycling
  /// free list is counted by free_pages, not here).
  [[nodiscard]] std::size_t pages_live(MetricId id) const { return metric(id).pages.size(); }
  [[nodiscard]] std::size_t pages_live() const noexcept;
  [[nodiscard]] std::size_t free_pages() const noexcept { return free_.size(); }
  /// Earliest retained raw timestamp; nullopt when tier 0 is empty.
  [[nodiscard]] std::optional<double> earliest_raw_time_s(MetricId id) const;
  /// Last accepted timestamp; nullopt before the first accepted sample.
  [[nodiscard]] std::optional<double> last_time_s(MetricId id) const;
  /// Deterministic storage-cost model (not RSS): pages at full capacity,
  /// finalized rollup points, and the open-window accumulators at ~40
  /// bytes/resident sample (treap node + moments amortized). The bench's
  /// bytes-per-sample figures and the tests' memory bound both read this.
  [[nodiscard]] std::size_t approx_memory_bytes() const noexcept;

  [[nodiscard]] const TsdbConfig& config() const noexcept { return config_; }

 private:
  /// One rollup tier's live state: finalized ring + open-window accumulator.
  struct TierState {
    std::deque<RollupPoint> points;  // finalized, oldest first
    util::WindowStats acc;           // samples of the still-open window
    std::int64_t open_window = 0;    // floor(t / period) of the open window
    std::size_t evicted_points = 0;
  };

  struct Metric {
    std::string name;
    std::deque<Page> pages;  // oldest first; back page is the append target
    double last_time_s = 0.0;
    bool has_samples = false;
    std::size_t samples_appended = 0;
    std::size_t samples_evicted = 0;
    std::size_t rejected_nan = 0;
    std::size_t rejected_out_of_order = 0;
    TierState tier1;
    TierState tier2;
  };

  [[nodiscard]] const Metric& metric(MetricId id) const;
  [[nodiscard]] Metric& metric(MetricId id);
  [[nodiscard]] double tier_period_s(Tier tier) const;
  [[nodiscard]] const TierState& tier_state(const Metric& m, Tier tier) const;
  void rollup_append(TierState& tier, double period_s, std::size_t retention, double time_s,
                     double value);
  /// The open window's rollup point, with its quantile already computed
  /// (in place when finalizing, on a copy when a const query reads it).
  [[nodiscard]] RollupPoint make_point(const TierState& tier, double period_s,
                                       double p90) const;
  /// True when the tier's retained data still reaches back to t0.
  [[nodiscard]] bool covers(const Metric& m, Tier tier, double t0_s) const;

  TsdbConfig config_;
  std::vector<Metric> metrics_;
  // Transparent ordered map: deterministic iteration and string_view lookup.
  std::map<std::string, MetricId, std::less<>> by_name_;
  std::vector<std::vector<RawSample>> free_;  // recycled page sample vectors
};

}  // namespace vdc::telemetry::tsdb
