#include "telemetry/recorder.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/export.hpp"

namespace vdc::telemetry {
namespace {

std::vector<double> copy_of(std::span<const double> row) { return {row.begin(), row.end()}; }

TEST(Recorder, ScalarSeriesAppendsInOrder) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("p90", 0.5);
  rec.append("p90", 2.0);
  EXPECT_TRUE(rec.has("p90"));
  EXPECT_FALSE(rec.is_vector("p90"));
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{1.0, 0.5, 2.0}));
  EXPECT_EQ(rec.size("p90"), 3u);
}

TEST(Recorder, VectorSeriesKeepsRows) {
  Recorder rec;
  rec.append("alloc", std::vector<double>{0.3, 0.4});
  rec.append("alloc", std::vector<double>{0.5, 0.6});
  EXPECT_TRUE(rec.is_vector("alloc"));
  ASSERT_EQ(rec.rows("alloc").size(), 2u);
  EXPECT_EQ(copy_of(rec.rows("alloc")[1]), (std::vector<double>{0.5, 0.6}));
}

TEST(Recorder, DeclareCreatesEmptySeries) {
  Recorder rec;
  rec.declare_scalar("power");
  rec.declare_vector("alloc");
  EXPECT_TRUE(rec.has("power"));
  EXPECT_TRUE(rec.values("power").empty());
  EXPECT_TRUE(rec.rows("alloc").empty());
  EXPECT_EQ(rec.size("power"), 0u);
}

TEST(Recorder, SeriesNamesInCreationOrder) {
  Recorder rec;
  rec.append("z", 1.0);
  rec.append("a", 2.0);
  rec.append("m", std::vector<double>{3.0});
  EXPECT_EQ(rec.series_names(), (std::vector<std::string>{"z", "a", "m"}));
  EXPECT_EQ(rec.series_count(), 3u);
}

TEST(Recorder, KindMismatchThrows) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("alloc", std::vector<double>{0.3});
  EXPECT_THROW(rec.append("p90", std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(rec.append("alloc", 1.0), std::invalid_argument);
  EXPECT_THROW((void)rec.values("alloc"), std::out_of_range);
  EXPECT_THROW((void)rec.rows("p90"), std::out_of_range);
  EXPECT_THROW((void)rec.values("unknown"), std::out_of_range);
}

TEST(Recorder, ReferencesStayValidAcrossNewSeries) {
  Recorder rec;
  rec.append("first", 1.0);
  const std::vector<double>& first = rec.values("first");
  for (int i = 0; i < 64; ++i) rec.append("series" + std::to_string(i), double(i));
  EXPECT_EQ(first, (std::vector<double>{1.0}));  // node-based storage
}

TEST(Recorder, EqualityIsExact) {
  Recorder a;
  Recorder b;
  a.append("p90", 1.0);
  a.append("alloc", std::vector<double>{0.3, 0.4});
  b.append("p90", 1.0);
  b.append("alloc", std::vector<double>{0.3, 0.4});
  EXPECT_TRUE(a == b);
  b.append("p90", 1.0 + 1e-15);
  EXPECT_FALSE(a == b);
}

TEST(Recorder, RejectsNegativeSamplePeriod) {
  // A negative period would stamp sample 1 before sample 0, and the store
  // would reject every sample after the first as out of order.
  RecorderConfig config;
  config.sample_period_s = -1.0;
  EXPECT_THROW(Recorder{config}, std::invalid_argument);
}

TEST(Recorder, RejectsNaNSamplePeriod) {
  RecorderConfig config;
  config.sample_period_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Recorder{config}, std::invalid_argument);
}

TEST(Recorder, RejectsInfiniteSamplePeriod) {
  RecorderConfig config;
  config.sample_period_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Recorder{config}, std::invalid_argument);
}

TEST(Recorder, RejectsZeroSamplePeriod) {
  RecorderConfig config;
  config.sample_period_s = 0.0;
  EXPECT_THROW(Recorder{config}, std::invalid_argument);
}

TEST(Recorder, RejectsZeroPageSamples) {
  // A page is the ageing granule; an empty one would never fill.
  RecorderConfig config;
  config.page_samples = 0;
  EXPECT_THROW(Recorder{config}, std::invalid_argument);
  config.max_pages = 0;  // even with nothing ever aged out
  EXPECT_THROW(Recorder{config}, std::invalid_argument);
}

// ---- series ids -------------------------------------------------------------

TEST(RecorderSeriesId, IdsAreCreationIndicesAndStayStable) {
  Recorder rec;
  const Recorder::SeriesId a = rec.declare_scalar("a");
  const Recorder::SeriesId rows = rec.declare_vector("rows");
  rec.append("b", 1.0);  // created by name, third in creation order
  for (int i = 0; i < 100; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    rec.declare_scalar(name);
  }
  EXPECT_EQ(static_cast<std::size_t>(a), 0u);
  EXPECT_EQ(static_cast<std::size_t>(rows), 1u);
  // Re-declaring returns the existing id, however many series came since.
  EXPECT_EQ(rec.declare_scalar("a"), a);
  EXPECT_EQ(rec.declare_vector("rows"), rows);
  EXPECT_EQ(static_cast<std::size_t>(rec.declare_scalar("b")), 2u);
  EXPECT_EQ(rec.series_names()[static_cast<std::size_t>(a)], "a");
  rec.append(a, 4.0);
  EXPECT_EQ(rec.values("a"), (std::vector<double>{4.0}));
}

TEST(RecorderSeriesId, NameAndIdAppendsLandInOneSeries) {
  Recorder rec;
  const Recorder::SeriesId p90 = rec.declare_scalar("app0/p90");
  rec.append(p90, 1.0);
  rec.append("app0/p90", 2.0);
  rec.append(p90, 3.0);
  EXPECT_EQ(rec.values("app0/p90"), (std::vector<double>{1.0, 2.0, 3.0}));
  // Synthesized timestamps count every sample, whichever path appended it:
  // the third was stamped 2.0, so 1.5 is a regression and 2.0 is not.
  rec.append_at(p90, 1.5, 9.0);
  rec.append_at("app0/p90", 2.0, 4.0);
  EXPECT_EQ(rec.values("app0/p90"), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));

  // An append_at time is the series' last accepted time: 7.0 is rejected
  // after 8.0, and 8.0 is accepted again.
  const Recorder::SeriesId at = rec.declare_scalar("at");
  rec.append_at(at, 4.0, 10.0);
  rec.append_at("at", 8.0, 20.0);
  rec.append_at(at, 7.0, 99.0);
  rec.append_at(at, 8.0, 30.0);
  EXPECT_EQ(rec.values("at"), (std::vector<double>{10.0, 20.0, 30.0}));

  const Recorder::SeriesId alloc = rec.declare_vector("app0/alloc");
  const std::vector<double> row{0.5, 0.75};
  rec.append(alloc, row);
  rec.append("app0/alloc", std::vector<double>{0.25, 1.0});
  ASSERT_EQ(rec.rows("app0/alloc").size(), 2u);
  EXPECT_EQ(copy_of(rec.rows("app0/alloc")[0]), row);
  EXPECT_EQ(copy_of(rec.rows("app0/alloc")[1]), (std::vector<double>{0.25, 1.0}));

  // The id path and the name path build equal recorders.
  Recorder by_name;
  by_name.declare_scalar("app0/p90");
  for (const double v : {1.0, 2.0, 3.0}) by_name.append("app0/p90", v);
  by_name.append_at("app0/p90", 2.0, 4.0);
  by_name.append_at("at", 4.0, 10.0);
  by_name.append_at("at", 8.0, 20.0);
  by_name.append_at("at", 8.0, 30.0);
  by_name.append("app0/alloc", row);
  by_name.append("app0/alloc", std::vector<double>{0.25, 1.0});
  EXPECT_EQ(rec, by_name);
}

TEST(RecorderSeriesId, WrongKindOrUnknownIdThrows) {
  Recorder rec;
  const Recorder::SeriesId scalar = rec.declare_scalar("s");
  const Recorder::SeriesId vector = rec.declare_vector("v");
  const std::vector<double> row{1.0};
  EXPECT_THROW(rec.append(scalar, row), std::invalid_argument);
  EXPECT_THROW(rec.append(vector, 1.0), std::invalid_argument);
  EXPECT_THROW(rec.append_at(vector, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rec.append(static_cast<Recorder::SeriesId>(2), 1.0), std::out_of_range);
  EXPECT_THROW(rec.declare_vector("s"), std::invalid_argument);
  EXPECT_EQ(rec.size("s"), 0u);
  EXPECT_EQ(rec.size("v"), 0u);
}

// ---- page-aged buffers -------------------------------------------------------

TEST(RecorderStore, ValuesIdenticalToAppendedVector) {
  std::vector<double> appended;
  Recorder rec;
  for (int i = 0; i < 300; ++i) {
    const double v = 1.0 / (1.0 + static_cast<double>(i));  // awkward decimals
    appended.push_back(v);
    rec.append("p90", v);
  }
  EXPECT_EQ(rec.values("p90"), appended);
  EXPECT_EQ(rec.size("p90"), appended.size());
  // Equality compares retained samples, not the retention rule.
  RecorderConfig small_pages;
  small_pages.page_samples = 16;
  small_pages.max_pages = 0;
  Recorder other(small_pages);
  for (const double v : appended) other.append("p90", v);
  EXPECT_TRUE(rec == other);
  EXPECT_TRUE(other == rec);
}

TEST(RecorderStore, OrderCheckKeepsTheLastAcceptedTime) {
  Recorder rec;  // 1 s sample period
  rec.append_at("p90", 4.0, 1.0);
  rec.append_at("p90", 8.0, 2.0);
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{1.0, 2.0}));
  // append() stamps the accepted count: 2 x 1 s is before 8.0.
  rec.append("p90", 9.0);
  EXPECT_EQ(rec.size("p90"), 2u);
}

TEST(RecorderStore, RejectsOutOfOrderKeepsEqualTimestamps) {
  Recorder rec;
  rec.append_at("p90", 2.0, 1.0);
  rec.append_at("p90", 1.9, 9.0);  // before the last accepted time
  rec.append_at("p90", 2.0, 2.0);  // equal times are in order
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{1.0, 2.0}));
}

TEST(RecorderStore, RejectsNaNTimeOrValueWithoutMovingTheClock) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Recorder rec;  // 1 s sample period
  rec.append_at("q", 1.0, kNan);
  rec.append_at("q", kNan, 1.0);
  EXPECT_EQ(rec.size("q"), 0u);
  // A rejected sample does not move the last accepted time.
  rec.append_at("q", 0.5, 1.0);
  rec.append("q", 2.0);  // stamped 1 x 1 s
  EXPECT_EQ(rec.values("q"), (std::vector<double>{1.0, 2.0}));
}

TEST(RecorderStore, ReferencesStayValidAndSeeLaterAppends) {
  Recorder rec;
  rec.append("first", 1.0);
  const std::vector<double>& first = rec.values("first");
  for (int i = 0; i < 64; ++i) rec.append("series" + std::to_string(i), double(i));
  EXPECT_EQ(first, (std::vector<double>{1.0}));
  // values() is the series' own buffer, so the reference sees the append.
  rec.append("first", 2.0);
  EXPECT_EQ(first, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(&rec.values("first"), &first);
}

TEST(RecorderStore, NaNSamplesAreRejectedNotStored) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("p90", std::numeric_limits<double>::quiet_NaN());
  rec.append("p90", 2.0);
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{1.0, 2.0}));
}

TEST(RecorderStore, EvictionShrinksVisibleValues) {
  RecorderConfig config;
  config.page_samples = 4;
  config.max_pages = 2;
  Recorder rec(config);
  for (int i = 0; i < 12; ++i) rec.append("p90", static_cast<double>(i));
  // Oldest page dropped: the visible window is the retained tail.
  EXPECT_EQ(rec.size("p90"), 8u);
  EXPECT_EQ(rec.values("p90").front(), 4.0);
}

TEST(RecorderStore, EvictionDropsWholePagesAndKeepsCapacity) {
  RecorderConfig config;
  config.page_samples = 4;
  config.max_pages = 2;
  Recorder rec(config);
  for (int i = 0; i < 13; ++i) rec.append("p90", static_cast<double>(i));
  // The 13th sample opens a page: the oldest page goes whole, and the
  // buffer keeps the capacity of the full two pages.
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{8.0, 9.0, 10.0, 11.0, 12.0}));
  EXPECT_EQ(rec.approx_memory_bytes(), 8 * sizeof(double));
}

TEST(RecorderStore, WeekLongStreamStaysWithinPageBudget) {
  const RecorderConfig config{.sample_period_s = 4.0};  // 64 pages of 256
  Recorder rec(config);
  const Recorder::SeriesId id = rec.declare_scalar("m");
  // One sample per 4 s control period for a simulated week.
  const std::size_t samples = 7 * 24 * 3600 / 4;
  for (std::size_t i = 0; i < samples; ++i) rec.append(id, static_cast<double>(i));
  // Whole-page ageing: the newest (possibly partial) page counts against
  // the budget, so retained = budget pages minus the unfilled tail.
  const std::size_t total_pages = (samples + config.page_samples - 1) / config.page_samples;
  const std::size_t first = (total_pages - config.max_pages) * config.page_samples;
  EXPECT_EQ(rec.size("m"), samples - first);
  EXPECT_EQ(rec.values("m").front(), static_cast<double>(first));
  EXPECT_EQ(rec.values("m").back(), static_cast<double>(samples - 1));
  // The bound is the full page budget, however many samples streamed.
  EXPECT_EQ(rec.approx_memory_bytes(), config.max_pages * config.page_samples * sizeof(double));
}

TEST(RecorderStore, CopiesAreIndependent) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("alloc", std::vector<double>{0.5});
  Recorder copy = rec;
  copy.append("p90", 2.0);
  copy.append("alloc", std::vector<double>{0.25});
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{1.0}));
  EXPECT_EQ(rec.size("alloc"), 1u);
  EXPECT_EQ(copy.values("p90"), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(copy.size("alloc"), 2u);
}

TEST(RecorderStore, RowsAgeOutByWholePagesLikeScalars) {
  RecorderConfig config;
  config.page_samples = 4;
  config.max_pages = 2;
  Recorder rec(config);
  for (int i = 0; i < 12; ++i) {
    const double v = static_cast<double>(i);
    rec.append("p90", v);
    rec.append("alloc", std::vector<double>{v, -v});
    // Rows and scalars keep the same window at every step.
    ASSERT_EQ(rec.size("alloc"), rec.size("p90")) << "after " << i + 1 << " appends";
  }
  const Recorder::RowsView rows = rec.rows("alloc");
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(copy_of(rows.front()), (std::vector<double>{4.0, -4.0}));
  EXPECT_EQ(copy_of(rows.back()), (std::vector<double>{11.0, -11.0}));
  // The 13th row opens a page: the oldest page goes whole.
  rec.append("alloc", std::vector<double>{12.0, -12.0});
  EXPECT_EQ(rec.size("alloc"), 5u);
  EXPECT_EQ(rec.rows("alloc")[0][0], 8.0);

  // max_pages = 0 keeps every row.
  RecorderConfig keep_all = config;
  keep_all.max_pages = 0;
  Recorder all(keep_all);
  for (int i = 0; i < 100; ++i) all.append("alloc", std::vector<double>{static_cast<double>(i)});
  EXPECT_EQ(all.size("alloc"), 100u);
  EXPECT_EQ(all.rows("alloc")[0][0], 0.0);
}

TEST(RecorderStore, RowWidthIsFixedByTheFirstRow) {
  Recorder rec;
  const Recorder::SeriesId alloc = rec.declare_vector("alloc");
  rec.append(alloc, std::vector<double>{0.5, 0.5});
  EXPECT_THROW(rec.append(alloc, std::vector<double>{0.5}), std::invalid_argument);
  EXPECT_THROW(rec.append("alloc", std::vector<double>{1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_EQ(rec.size("alloc"), 1u);  // rejected rows leave no trace
  rec.append(alloc, std::vector<double>{0.25, 0.75});
  EXPECT_EQ(copy_of(rec.rows("alloc")[1]), (std::vector<double>{0.25, 0.75}));
}

TEST(RecorderStore, RowsViewIteratesAndCopiesOut) {
  Recorder rec;
  rec.append("alloc", std::vector<double>{1.0, 2.0});
  rec.append("alloc", std::vector<double>{3.0, 4.0});
  double sum = 0.0;
  for (const std::span<const double> row : rec.rows("alloc")) {
    ASSERT_EQ(row.size(), 2u);
    sum += row[0] + row[1];
  }
  EXPECT_EQ(sum, 10.0);
  // The nested-vector form is cached per series and refreshed in place.
  const std::vector<std::vector<double>>& nested = rec.rows("alloc");
  EXPECT_EQ(nested, (std::vector<std::vector<double>>{{1.0, 2.0}, {3.0, 4.0}}));
  rec.append("alloc", std::vector<double>{5.0, 6.0});
  const std::vector<std::vector<double>>& again = rec.rows("alloc");
  EXPECT_EQ(&again, &nested);
  EXPECT_EQ(nested.size(), 3u);
}

TEST(RecorderStore, RowEqualityComparesRetainedRows) {
  RecorderConfig small;
  small.page_samples = 2;
  small.max_pages = 1;
  Recorder a(small);
  Recorder b(small);
  RecorderConfig keep_all = small;
  keep_all.max_pages = 0;
  Recorder c(keep_all);
  for (const double v : {1.0, 2.0, 3.0}) {
    a.append("alloc", std::vector<double>{v});
    b.append("alloc", std::vector<double>{v});
  }
  c.append("alloc", std::vector<double>{3.0});
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a == c);  // only row 3.0 is retained in a
  b.append("alloc", std::vector<double>{4.0});
  EXPECT_FALSE(a == b);
}

/// The exporter's cell format: the shortest text that parses back exactly.
std::string shortest(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  EXPECT_EQ(ec, std::errc{});
  return std::string(buffer, end);
}

TEST(RecorderStore, CsvExportHoldsEveryAppendedValue) {
  Recorder rec;
  std::ostringstream expected;
  expected << "p90,alloc[0],alloc[1],power\n";
  for (int i = 0; i < 100; ++i) {
    const double p90 = 0.9 + 0.01 * static_cast<double>(i % 7);
    const double alloc = 0.4 + 0.001 * i;
    rec.append("p90", p90);
    rec.append("alloc", std::vector<double>{0.3, alloc});
    // "power" gets one sample, so only the first row has a cell for it.
    expected << shortest(p90) << ",0.3," << shortest(alloc) << ','
             << (i == 0 ? "123.456789" : "") << '\n';
  }
  rec.append("power", 123.456789);
  EXPECT_EQ(to_csv(rec), expected.str());
}

TEST(Export, CsvRoundTripsExactly) {
  Recorder rec;
  rec.append("p90", 1.0 / 3.0);  // not representable in short decimal
  rec.append("p90", 0.125);
  rec.append("alloc", std::vector<double>{0.3, 0.7});
  rec.append("alloc", std::vector<double>{0.6, 1.4});
  rec.append("power", 123.456789);
  // power has 1 sample, p90 has 2: ragged lengths pad with empty cells.
  const Recorder back = from_csv(to_csv(rec));
  EXPECT_TRUE(back == rec);
  // A cell that does not parse as a number in full is rejected by name.
  try {
    (void)from_csv("p90\n1.0\nabc\n");
    ADD_FAILURE() << "a non-numeric cell was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'abc'"), std::string::npos) << e.what();
  }
}

TEST(Export, CsvRoundTripKeepsRowsPastDefaultRetention) {
  // 20,000 rows outlast the default budget (64 pages x 256 samples);
  // from_csv must still hand back every one.
  RecorderConfig keep_all;
  keep_all.max_pages = 0;
  Recorder rec(keep_all);
  std::vector<double> appended;
  for (int i = 0; i < 20'000; ++i) {
    const double v = 1.0 / (1.0 + static_cast<double>(i));
    rec.append("p90", v);
    appended.push_back(v);
  }
  const Recorder back = from_csv(to_csv(rec));
  EXPECT_EQ(back.size("p90"), appended.size());
  EXPECT_EQ(back.values("p90"), appended);
}

TEST(Export, HeaderFlattensVectorSeries) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("alloc", std::vector<double>{0.3, 0.7});
  std::ostringstream out;
  write_csv(rec, out);
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, text.find('\n')), "p90,alloc[0],alloc[1]");
}

TEST(Export, FileRoundTrip) {
  Recorder rec;
  rec.append("p90", 0.987);
  rec.append("alloc", std::vector<double>{0.25, 0.5, 0.75});
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "vdc_telemetry_roundtrip.csv";
  write_csv_file(rec, path);
  const Recorder back = read_csv_file(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(back == rec);
}

TEST(Export, EmptyRecorderRejectedEmptyTextAccepted) {
  const Recorder rec;
  EXPECT_THROW((void)to_csv(rec), std::invalid_argument);
  EXPECT_TRUE(from_csv("") == rec);
}

}  // namespace
}  // namespace vdc::telemetry
