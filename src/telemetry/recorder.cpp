#include "telemetry/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace vdc::telemetry {

Recorder::Recorder(RecorderConfig config) : config_(config) {
  if (!std::isfinite(config_.sample_period_s) || config_.sample_period_s <= 0.0) {
    throw std::invalid_argument("Recorder: sample_period_s must be finite and > 0");
  }
  if (config_.page_samples == 0) throw std::invalid_argument("Recorder: page_samples == 0");
}

Recorder::SeriesId Recorder::open(const std::string& series, bool vector) {
  const auto it = ids_.find(series);
  if (it == ids_.end()) {
    const auto id = static_cast<SeriesId>(series_.size());
    Series& s = series_.emplace_back();
    s.vector = vector;
    if (!vector) s.width = 1;
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

void Recorder::append(SeriesId series, double value) {
  Series& s = at(series, /*vector=*/false);
  accept(s, static_cast<double>(s.accepted) * config_.sample_period_s, value);
}

void Recorder::append_at(SeriesId series, double time_s, double value) {
  accept(at(series, /*vector=*/false), time_s, value);
}

void Recorder::accept(Series& s, double time_s, double value) {
  // NaN samples and time regressions are rejected and not stored.
  if (std::isnan(time_s) || std::isnan(value) || time_s < s.last_time_s) return;
  s.last_time_s = time_s;
  ++s.accepted;
  push(s, std::span<const double>(&value, 1));
}

void Recorder::append(SeriesId series, std::span<const double> row) {
  Series& s = at(series, /*vector=*/true);
  if (s.rows == 0) s.width = row.size();  // only before the first row
  if (row.size() != s.width) {
    throw std::invalid_argument("Recorder: series '" + names_[static_cast<std::size_t>(series)] +
                                "' holds rows of width " + std::to_string(s.width));
  }
  // A row holding a NaN is rejected and not stored, like a NaN sample.
  if (std::ranges::any_of(row, [](double x) { return std::isnan(x); })) return;
  push(s, row);
}

void Recorder::push(Series& s, std::span<const double> row) {
  // Past max_pages pages, the sample that opens a page erases the oldest
  // page whole. Erasing keeps the capacity.
  const std::size_t page = config_.page_samples;
  if (config_.max_pages > 0 && s.rows == config_.max_pages * page) {
    s.data.erase(s.data.begin(), s.data.begin() + static_cast<std::ptrdiff_t>(page * s.width));
    s.rows -= page;
  }
  s.data.insert(s.data.end(), row.begin(), row.end());
  ++s.rows;
  s.cache_dirty = true;
}

bool Recorder::has(std::string_view series) const noexcept { return find(series) != nullptr; }

bool Recorder::is_vector(std::string_view series) const {
  const Series* s = find(series);
  if (s == nullptr) throw std::out_of_range("Recorder: unknown series");
  return s->vector;
}

const std::vector<double>& Recorder::values(std::string_view series) const {
  const Series* s = find(series);
  if (s == nullptr || s->vector) {
    throw std::out_of_range("Recorder: no scalar series named '" + std::string(series) + "'");
  }
  return s->data;
}

Recorder::RowsView Recorder::rows(std::string_view series) const {
  const Series* s = find(series);
  if (s == nullptr || !s->vector) {
    throw std::out_of_range("Recorder: no vector series named '" + std::string(series) + "'");
  }
  return RowsView(*s);
}

Recorder::RowsView::operator const std::vector<std::vector<double>>&() const {
  if (series_->cache_dirty) {
    series_->row_cache.clear();
    for (const auto row : rows_) series_->row_cache.emplace_back(row.begin(), row.end());
    series_->cache_dirty = false;
  }
  return series_->row_cache;
}

std::size_t Recorder::size(std::string_view series) const noexcept {
  const Series* s = find(series);
  return s == nullptr ? 0 : s->rows;
}

std::size_t Recorder::approx_memory_bytes() const noexcept {
  std::size_t total = 0;
  for (const Series& s : series_) total += s.data.capacity() * sizeof(double);
  return total;
}

void Recorder::annotate(double time_s, std::string label) {
  annotations_.push_back(Annotation{time_s, std::move(label)});
}

// No series stores a NaN, so comparing the buffers value by value is an
// equivalence: a recorder equals its own copy.
bool operator==(const Recorder& a, const Recorder& b) {
  if (a.names_ != b.names_ || a.annotations_ != b.annotations_) return false;
  for (const std::string& name : a.names_) {
    const Recorder::Series* sa = a.find(name);
    const Recorder::Series* sb = b.find(name);
    if (sb == nullptr || sa->vector != sb->vector || sa->rows != sb->rows ||
        sa->data != sb->data) {
      return false;
    }
  }
  return true;
}

}  // namespace vdc::telemetry
