#include "telemetry/tsdb.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace vdc::telemetry::tsdb {

namespace {

/// Aligned window index of a timestamp. Times are well within the int64
/// range for any simulated horizon (a week at 3600 s periods is ~168).
std::int64_t window_of(double time_s, double period_s) {
  return static_cast<std::int64_t>(std::floor(time_s / period_s));
}

double window_start_s(std::int64_t window, double period_s) {
  return static_cast<double>(window) * period_s;
}

}  // namespace

Tsdb::Tsdb(TsdbConfig config) : config_(config) {
  if (config_.page_samples == 0) throw std::invalid_argument("Tsdb: page_samples == 0");
  if (!(config_.tier1_period_s > 0.0) || std::isnan(config_.tier1_period_s)) {
    throw std::invalid_argument("Tsdb: tier1_period_s must be positive");
  }
  if (!(config_.tier2_period_s > 0.0) || std::isnan(config_.tier2_period_s)) {
    throw std::invalid_argument("Tsdb: tier2_period_s must be positive");
  }
  if (std::isnan(config_.quantile) || config_.quantile < 0.0 || config_.quantile > 1.0) {
    throw std::invalid_argument("Tsdb: quantile outside [0,1]");
  }
}

MetricId Tsdb::declare(const std::string& name) {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  const auto id = static_cast<MetricId>(metrics_.size());
  Metric m;
  m.name = name;
  metrics_.push_back(std::move(m));
  by_name_.emplace(name, id);
  return id;
}

MetricId Tsdb::adopt(Tsdb& from, MetricId id) {
  if (!(config_ == from.config_)) {
    throw std::invalid_argument("Tsdb::adopt: config mismatch");
  }
  Metric& source = from.metric(id);
  if (by_name_.find(source.name) != by_name_.end()) {
    throw std::invalid_argument("Tsdb::adopt: metric '" + source.name + "' already declared");
  }
  const auto here = static_cast<MetricId>(metrics_.size());
  from.by_name_.erase(source.name);
  by_name_.emplace(source.name, here);
  metrics_.push_back(std::move(source));
  source = Metric{};  // leave a well-defined empty slot behind
  return here;
}

std::optional<MetricId> Tsdb::find(std::string_view name) const noexcept {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  return std::nullopt;
}

const Tsdb::Metric& Tsdb::metric(MetricId id) const {
  if (id >= metrics_.size()) throw std::out_of_range("Tsdb: unknown metric id");
  return metrics_[id];
}

Tsdb::Metric& Tsdb::metric(MetricId id) {
  if (id >= metrics_.size()) throw std::out_of_range("Tsdb: unknown metric id");
  return metrics_[id];
}

bool Tsdb::append(MetricId id, double time_s, double value) {
  Metric& m = metric(id);
  if (std::isnan(time_s) || std::isnan(value)) {
    ++m.rejected_nan;
    return false;
  }
  if (m.has_samples && time_s < m.last_time_s) {
    ++m.rejected_out_of_order;
    return false;
  }
  m.last_time_s = time_s;
  m.has_samples = true;

  // Tier 0: O(1) ring-page append, whole-page eviction past the budget.
  if (m.pages.empty() || m.pages.back().size() >= config_.page_samples) {
    Page page;
    if (!free_.empty()) {
      page.samples = std::move(free_.back());
      free_.pop_back();
    } else {
      page.samples.reserve(config_.page_samples);
    }
    m.pages.push_back(std::move(page));
    if (config_.tier0_max_pages > 0 && m.pages.size() > config_.tier0_max_pages) {
      Page old = std::move(m.pages.front());
      m.pages.pop_front();
      m.samples_evicted += old.size();
      old.samples.clear();  // keeps capacity; the next page reuses it
      free_.push_back(std::move(old.samples));
    }
  }
  m.pages.back().samples.push_back(RawSample{time_s, value});

  // Tiers 1 and 2 both accumulate straight from the raw stream, so hourly
  // statistics are exact (a window's p90 is not derivable from sub-window
  // p90s).
  rollup_append(m.tier1, config_.tier1_period_s, config_.tier1_retention_points, time_s, value);
  rollup_append(m.tier2, config_.tier2_period_s, config_.tier2_retention_points, time_s, value);
  ++m.samples_appended;
  return true;
}

void Tsdb::rollup_append(TierState& tier, double period_s, std::size_t retention, double time_s,
                         double value) {
  const std::int64_t w = window_of(time_s, period_s);
  if (tier.acc.empty()) {
    tier.open_window = w;
  } else if (w != tier.open_window) {
    tier.points.push_back(make_point(tier, period_s, tier.acc.quantile(config_.quantile)));
    if (retention > 0 && tier.points.size() > retention) {
      tier.points.pop_front();
      ++tier.evicted_points;
    }
    tier.acc.reset();
    tier.open_window = w;
  }
  tier.acc.add(value);
}

RollupPoint Tsdb::make_point(const TierState& tier, double period_s, double p90) const {
  RollupPoint p;
  p.start_s = window_start_s(tier.open_window, period_s);
  p.count = tier.acc.count();
  p.min = tier.acc.min();
  p.max = tier.acc.max();
  p.mean = tier.acc.mean();
  p.p90 = p90;
  return p;
}

double Tsdb::tier_period_s(Tier tier) const {
  switch (tier) {
    case Tier::kPeriod: return config_.tier1_period_s;
    case Tier::kHourly: return config_.tier2_period_s;
    case Tier::kRaw:
    case Tier::kAuto: break;
  }
  throw std::invalid_argument("Tsdb: tier has no rollup period");
}

const Tsdb::TierState& Tsdb::tier_state(const Metric& m, Tier tier) const {
  switch (tier) {
    case Tier::kPeriod: return m.tier1;
    case Tier::kHourly: return m.tier2;
    case Tier::kRaw:
    case Tier::kAuto: break;
  }
  throw std::invalid_argument("Tsdb: tier has no rollup state");
}

std::vector<RawSample> Tsdb::raw(MetricId id, double t0_s, double t1_s) const {
  const Metric& m = metric(id);
  std::vector<RawSample> out;
  for (const Page& page : m.pages) {
    if (page.empty()) continue;
    if (page.last_time_s() < t0_s || page.first_time_s() >= t1_s) continue;
    const auto lo = std::lower_bound(
        page.samples.begin(), page.samples.end(), t0_s,
        [](const RawSample& s, double t) { return s.time_s < t; });
    const auto hi = std::lower_bound(
        lo, page.samples.end(), t1_s,
        [](const RawSample& s, double t) { return s.time_s < t; });
    out.insert(out.end(), lo, hi);
  }
  return out;
}

std::vector<RollupPoint> Tsdb::rollups(MetricId id, Tier tier, double t0_s, double t1_s) const {
  const Metric& m = metric(id);
  const TierState& state = tier_state(m, tier);
  const double period_s = tier_period_s(tier);
  std::vector<RollupPoint> out;
  // Finalized points are sorted by start; keep every window intersecting
  // [t0, t1).
  for (const RollupPoint& p : state.points) {
    if (p.start_s >= t1_s) break;
    if (p.start_s + period_s > t0_s) out.push_back(p);
  }
  if (!state.acc.empty()) {
    const double open_start_s = window_start_s(state.open_window, period_s);
    if (open_start_s < t1_s && open_start_s + period_s > t0_s) {
      out.push_back(make_point(state, period_s, state.acc.quantile(config_.quantile)));
    }
  }
  return out;
}

const std::deque<RollupPoint>& Tsdb::finalized(MetricId id, Tier tier) const {
  return tier_state(metric(id), tier).points;
}

bool Tsdb::covers(const Metric& m, Tier tier, double t0_s) const {
  if (tier == Tier::kRaw) {
    // Raw covers t0 while nothing at or after t0 has been evicted. With no
    // evictions tier 0 is the complete history.
    if (m.samples_evicted == 0) return true;
    if (m.pages.empty() || m.pages.front().empty()) return false;
    return m.pages.front().first_time_s() <= t0_s;
  }
  const TierState& state = tier_state(m, tier);
  if (state.evicted_points == 0) return true;
  if (!state.points.empty()) return state.points.front().start_s <= t0_s;
  if (!state.acc.empty()) {
    return window_start_s(state.open_window, tier_period_s(tier)) <= t0_s;
  }
  return false;
}

QueryResult Tsdb::query(MetricId id, double t0_s, double t1_s, Tier tier) const {
  Tier serve = tier;
  if (tier == Tier::kAuto) {
    const Metric& m = metric(id);
    if (covers(m, Tier::kRaw, t0_s)) {
      serve = Tier::kRaw;
    } else if (covers(m, Tier::kPeriod, t0_s)) {
      serve = Tier::kPeriod;
    } else {
      serve = Tier::kHourly;
    }
  }
  QueryResult result;
  result.tier = serve;
  if (serve == Tier::kRaw) {
    result.raw = raw(id, t0_s, t1_s);
  } else {
    result.rollups = rollups(id, serve, t0_s, t1_s);
  }
  return result;
}

std::size_t Tsdb::pages_live() const noexcept {
  std::size_t total = 0;
  for (const Metric& m : metrics_) total += m.pages.size();
  return total;
}

std::optional<double> Tsdb::earliest_raw_time_s(MetricId id) const {
  const Metric& m = metric(id);
  if (m.pages.empty() || m.pages.front().empty()) return std::nullopt;
  return m.pages.front().first_time_s();
}

std::optional<double> Tsdb::last_time_s(MetricId id) const {
  const Metric& m = metric(id);
  if (!m.has_samples) return std::nullopt;
  return m.last_time_s;
}

std::size_t Tsdb::approx_memory_bytes() const noexcept {
  // Cost model constants: a page's reserved capacity, a finalized rollup
  // point, and ~40 bytes per sample resident in an open-window accumulator
  // (32-byte treap node + amortized Welford moments).
  constexpr std::size_t kAccBytesPerSample = 40;
  const std::size_t page_bytes = config_.page_samples * sizeof(RawSample);
  std::size_t total = free_.size() * page_bytes;
  for (const Metric& m : metrics_) {
    total += m.pages.size() * page_bytes;
    total += (m.tier1.points.size() + m.tier2.points.size()) * sizeof(RollupPoint);
    total += (m.tier1.acc.count() + m.tier2.acc.count()) * kAccBytesPerSample;
  }
  return total;
}

}  // namespace vdc::telemetry::tsdb
