#include "telemetry/recorder.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace vdc::telemetry {

Recorder::Recorder(RecorderConfig config) : config_(config), tsdb_(config.tsdb) {
  if (!std::isfinite(config_.sample_period_s) || config_.sample_period_s <= 0.0) {
    throw std::invalid_argument("Recorder: sample_period_s must be finite and > 0");
  }
}

Recorder::SeriesId Recorder::open(const std::string& series, bool vector) {
  const auto it = ids_.find(series);
  if (it == ids_.end()) {
    const auto id = static_cast<SeriesId>(series_.size());
    Series& s = series_.emplace_back();
    s.vector = vector;
    if (!vector) s.metric = tsdb_.declare(series);
    ids_.emplace(series, id);
    names_.push_back(series);
    return id;
  }
  if (series_[static_cast<std::size_t>(it->second)].vector != vector) {
    throw std::invalid_argument("Recorder: series '" + series +
                                "' already exists with the other sample kind");
  }
  return it->second;
}

Recorder::Series& Recorder::at(SeriesId id, bool vector) {
  const auto index = static_cast<std::size_t>(id);
  if (index >= series_.size()) throw std::out_of_range("Recorder: unknown series id");
  Series& s = series_[index];
  if (s.vector != vector) {
    throw std::invalid_argument("Recorder: series '" + names_[index] +
                                "' holds the other sample kind");
  }
  return s;
}

const Recorder::Series* Recorder::find(std::string_view series) const noexcept {
  const auto it = ids_.find(series);
  return it == ids_.end() ? nullptr : &series_[static_cast<std::size_t>(it->second)];
}

Recorder::SeriesId Recorder::declare_scalar(const std::string& series) {
  return open(series, /*vector=*/false);
}

Recorder::SeriesId Recorder::declare_vector(const std::string& series) {
  return open(series, /*vector=*/true);
}

void Recorder::append(SeriesId series, double value) {
  Series& s = at(series, /*vector=*/false);
  const double time_s =
      static_cast<double>(tsdb_.samples_appended(s.metric)) * config_.sample_period_s;
  tsdb_.append(s.metric, time_s, value);
  s.cache_dirty = true;
}

void Recorder::append_at(SeriesId series, double time_s, double value) {
  Series& s = at(series, /*vector=*/false);
  tsdb_.append(s.metric, time_s, value);
  s.cache_dirty = true;
}

void Recorder::append(SeriesId series, std::span<const double> row) {
  at(series, /*vector=*/true).rows.emplace_back(row.begin(), row.end());
}

void Recorder::append(const std::string& series, double value) {
  append(open(series, /*vector=*/false), value);
}

void Recorder::append_at(const std::string& series, double time_s, double value) {
  append_at(open(series, /*vector=*/false), time_s, value);
}

void Recorder::append(const std::string& series, std::vector<double> row) {
  // The row is moved in rather than copied through the span overload.
  at(open(series, /*vector=*/true), /*vector=*/true).rows.push_back(std::move(row));
}

bool Recorder::has(std::string_view series) const noexcept { return find(series) != nullptr; }

bool Recorder::is_vector(std::string_view series) const {
  const Series* s = find(series);
  if (s == nullptr) throw std::out_of_range("Recorder: unknown series");
  return s->vector;
}

const std::vector<double>& Recorder::scalar_samples(const Series& s) const {
  if (s.cache_dirty) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::vector<tsdb::RawSample> raw = tsdb_.raw(s.metric, -kInf, kInf);
    s.cache.clear();
    s.cache.reserve(raw.size());
    for (const tsdb::RawSample& sample : raw) s.cache.push_back(sample.value);
    s.cache_dirty = false;
  }
  return s.cache;
}

const std::vector<double>& Recorder::values(std::string_view series) const {
  const Series* s = find(series);
  if (s == nullptr || s->vector) {
    throw std::out_of_range("Recorder: no scalar series named '" + std::string(series) + "'");
  }
  return scalar_samples(*s);
}

const std::vector<std::vector<double>>& Recorder::rows(std::string_view series) const {
  const Series* s = find(series);
  if (s == nullptr || !s->vector) {
    throw std::out_of_range("Recorder: no vector series named '" + std::string(series) + "'");
  }
  return s->rows;
}

std::size_t Recorder::size(std::string_view series) const noexcept {
  const Series* s = find(series);
  if (s == nullptr) return 0;
  if (s->vector) return s->rows.size();
  return tsdb_.samples_appended(s->metric) - tsdb_.samples_evicted(s->metric);
}

void Recorder::absorb(Recorder&& other) {
  if (!(config_.tsdb == other.config_.tsdb)) {
    throw std::invalid_argument("Recorder::absorb: config mismatch");
  }
  for (const std::string& name : other.names_) {
    if (ids_.find(name) != ids_.end()) {
      throw std::invalid_argument("Recorder::absorb: series '" + name + "' exists here too");
    }
  }
  for (std::size_t k = 0; k < other.series_.size(); ++k) {
    Series& s = series_.emplace_back(std::move(other.series_[k]));
    if (!s.vector) s.metric = tsdb_.adopt(other.tsdb_, s.metric);
    ids_.emplace(other.names_[k], static_cast<SeriesId>(series_.size() - 1));
    names_.push_back(std::move(other.names_[k]));
  }
  other.series_.clear();
  other.ids_.clear();
  other.names_.clear();
  annotations_.insert(annotations_.end(),
                      std::make_move_iterator(other.annotations_.begin()),
                      std::make_move_iterator(other.annotations_.end()));
  other.annotations_.clear();
}

void Recorder::annotate(double time_s, std::string label) {
  annotations_.push_back(Annotation{time_s, std::move(label)});
}

void Recorder::clear() {
  series_.clear();
  ids_.clear();
  names_.clear();
  annotations_.clear();
  tsdb_ = tsdb::Tsdb(config_.tsdb);
}

bool operator==(const Recorder& a, const Recorder& b) {
  if (a.names_ != b.names_ || a.annotations_ != b.annotations_) return false;
  for (const std::string& name : a.names_) {
    const Recorder::Series* sa = a.find(name);
    const Recorder::Series* sb = b.find(name);
    if (sb == nullptr || sa->vector != sb->vector) return false;
    if (sa->vector) {
      if (sa->rows != sb->rows) return false;
    } else if (a.scalar_samples(*sa) != b.scalar_samples(*sb)) {
      return false;
    }
  }
  return true;
}

}  // namespace vdc::telemetry
