// Named-series recorder: the single sink for everything an experiment
// measures, one sample per control period. Replaces the ad-hoc metric
// vectors that used to live inside `core::Testbed` — any layer (AppStack,
// Testbed) appends into series it names, and exporters/analyses read them
// back uniformly.
//
// Two kinds of series:
//   * scalar — one double per sample (response time p90, cluster power, ...)
//   * vector — one row of doubles per sample (per-tier CPU allocation)
//
// Both kinds keep their samples in one flat buffer, oldest first: a scalar
// series is a vector series of width 1. They age out by one rule: past
// max_pages pages of page_samples samples (rows), the sample that opens a
// page erases the oldest page whole and the buffer keeps its capacity, so
// memory stops growing once a series is full (max_pages x page_samples x 8
// bytes a scalar series: 128 KiB at the defaults). max_pages = 0 keeps every
// sample. While nothing has aged out, values() is every accepted sample in
// append order, so every exporter reading it sees the bytes an unbounded
// vector would hold.
//
// Scalar samples carry a time: append_at()'s, or the accepted count times
// sample_period_s for append(). A NaN sample or time, or a time before the
// series' last accepted one, is rejected and not stored; equal times are
// accepted. Only the last accepted time is kept. A row that holds a NaN is
// rejected the same way, so no series ever stores a NaN and operator== is
// reflexive: a recorder equals its own copy.
//
// References returned by the accessors stay valid as more series are
// created (series storage is a deque indexed by id).
//
// Hot paths append by id: declare_scalar/declare_vector return a SeriesId
// (the series' index in creation order), and the id overloads of append,
// append_at and the row append skip the name lookup. The name overloads
// are thin wrappers that resolve (or create) the series and take the id
// path.
//
// Concurrency: an append by id touches only its own series (and reads the
// config), and the deque's element access counts as a read under the
// standard library's container data-race rules. So threads may append by id
// to distinct series at once, as long as none declares a series (or appends
// by name, which may declare one) meanwhile. The Testbed's sharded phases
// rely on this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vdc::telemetry {

/// A timestamped text marker next to the series — "server 2 crashed",
/// "migration of vm3 aborted". Chaos runs use these to make injected
/// faults visible alongside the numeric telemetry.
struct Annotation {
  double time_s = 0.0;
  std::string label;

  friend bool operator==(const Annotation&, const Annotation&) = default;
};

struct RecorderConfig {
  /// Timestamp synthesized for the i-th sample of plain append() calls
  /// (i * sample_period_s). append_at() callers supply real times instead.
  /// Must be finite and > 0; anything else would make the order check
  /// reject samples as out of order or NaN.
  double sample_period_s = 1.0;
  /// Samples (rows, for a vector series) per page, the ageing granule.
  /// Must be > 0.
  std::size_t page_samples = 256;
  /// Pages a series retains; 0 keeps every sample.
  std::size_t max_pages = 64;

  friend bool operator==(const RecorderConfig&, const RecorderConfig&) = default;
};

class Recorder {
  struct Series;

 public:
  /// A series handle: its index in creation order (series_names()[id]).
  /// Ids stay valid as more series are created.
  enum class SeriesId : std::uint32_t {};

  /// The default retention and a 1 s sample period.
  Recorder() = default;
  /// Throws std::invalid_argument on a bad sample_period_s or page_samples.
  explicit Recorder(RecorderConfig config);

  /// Read-only view of a vector series' retained rows, oldest first: row k
  /// is a span of the series' row width. Valid until the series' next append.
  class RowsView : public std::ranges::view_interface<RowsView> {
   public:
    [[nodiscard]] auto begin() const { return rows_.begin(); }
    [[nodiscard]] auto end() const { return rows_.end(); }
    /// The rows copied out as nested vectors into a per-series cache (the
    /// reference stays valid and is refreshed in place). Implicit, so code
    /// that binds rows() to `const std::vector<std::vector<double>>&` works.
    operator const std::vector<std::vector<double>>&() const;

   private:
    friend class Recorder;
    struct RowAt {
      const Series* series;
      std::span<const double> operator()(std::size_t k) const {
        return {series->data.data() + k * series->width, series->width};
      }
    };
    explicit RowsView(const Series& series)
        : series_(&series), rows_(std::views::iota(std::size_t{0}, series.rows), RowAt{&series}) {}
    const Series* series_;
    std::ranges::transform_view<std::ranges::iota_view<std::size_t, std::size_t>, RowAt> rows_;
  };

  /// Creates an empty series up front so accessors are valid before the
  /// first sample arrives, and returns its id. When it already exists with
  /// this kind, returns the existing id; with the other kind, throws
  /// std::invalid_argument.
  SeriesId declare_scalar(const std::string& series) { return open(series, false); }
  SeriesId declare_vector(const std::string& series) { return open(series, true); }

  /// Appends one sample to a scalar series at the synthesized timestamp
  /// index * sample_period_s.
  void append(SeriesId series, double value);
  /// Appends one sample with an explicit timestamp (simulation time). A
  /// timestamp before the series' last accepted one is rejected, as is a
  /// NaN value or time (neither is stored).
  void append_at(SeriesId series, double time_s, double value);
  /// Appends one row (copied) to a vector series. Every row of a series has
  /// the first row's width; another width throws std::invalid_argument. A
  /// row holding a NaN is rejected (not stored), as a NaN sample is.
  void append(SeriesId series, std::span<const double> row);
  // The id overloads throw std::out_of_range for an id this recorder never
  // issued and std::invalid_argument for an id of the other kind.

  /// By-name forms: create the series on first use, then append as above.
  void append(const std::string& series, double value) { append(open(series, false), value); }
  void append_at(const std::string& series, double time_s, double value) {
    append_at(open(series, false), time_s, value);
  }
  void append(const std::string& series, const std::vector<double>& row) {
    append(open(series, true), std::span<const double>(row));
  }

  [[nodiscard]] bool has(std::string_view series) const noexcept;
  [[nodiscard]] bool is_vector(std::string_view series) const;

  /// Retained samples of a scalar series, oldest first: the series' own
  /// buffer, so the reference stays valid and sees later appends. Throws
  /// std::out_of_range when unknown or when the name refers to a vector
  /// series.
  [[nodiscard]] const std::vector<double>& values(std::string_view series) const;
  /// Retained rows of a vector series, oldest first; throws
  /// std::out_of_range when unknown or when the name refers to a scalar
  /// series.
  [[nodiscard]] RowsView rows(std::string_view series) const;

  /// Number of retained samples in a series (either kind); 0 for unknown
  /// names. Equal to the number appended while nothing has been evicted.
  [[nodiscard]] std::size_t size(std::string_view series) const noexcept;

  /// Appends a timestamped text marker (kept in insertion order, which for
  /// simulation-driven recorders is time order).
  void annotate(double time_s, std::string label);
  [[nodiscard]] const std::vector<Annotation>& annotations() const noexcept {
    return annotations_;
  }

  /// All series names in creation order.
  [[nodiscard]] const std::vector<std::string>& series_names() const noexcept {
    return names_;
  }
  [[nodiscard]] std::size_t series_count() const noexcept { return names_.size(); }
  [[nodiscard]] bool empty() const noexcept { return names_.empty(); }

  [[nodiscard]] const RecorderConfig& config() const noexcept { return config_; }
  /// Bytes the series buffers hold: the sum of their capacities.
  [[nodiscard]] std::size_t approx_memory_bytes() const noexcept;

  /// Exact equality of series names, kinds, and every retained sample —
  /// the determinism check the parallel ScenarioRunner is tested against.
  /// Recorders with different configs compare equal while their retained
  /// samples match.
  friend bool operator==(const Recorder& a, const Recorder& b);

 private:
  struct Series {
    bool vector = false;
    // The retained samples (rows), flat and oldest first.
    std::vector<double> data;
    std::size_t width = 0;  // 1 for a scalar; fixed by a vector's first row
    std::size_t rows = 0;
    // Scalar order check: accepted samples (append() stamps the next one
    // accepted * sample_period_s) and the last accepted time.
    std::size_t accepted = 0;
    double last_time_s = -std::numeric_limits<double>::infinity();
    // The rows for RowsView's nested-vector form.
    mutable std::vector<std::vector<double>> row_cache;
    mutable bool cache_dirty = false;
  };

  SeriesId open(const std::string& series, bool vector);
  [[nodiscard]] Series& at(SeriesId id, bool vector);
  [[nodiscard]] const Series* find(std::string_view series) const noexcept;
  void accept(Series& s, double time_s, double value);
  void push(Series& s, std::span<const double> row);

  RecorderConfig config_;
  // Series by id. A deque keeps references stable as series are added.
  std::deque<Series> series_;
  // Name -> id; transparent comparison, so lookups work from string_view
  // without allocating.
  std::map<std::string, SeriesId, std::less<>> ids_;
  std::vector<std::string> names_;  // by id
  std::vector<Annotation> annotations_;
};

}  // namespace vdc::telemetry
