// Fuzz test: random append/compare traffic against a naive model of the
// Recorder. The model keeps every accepted sample (row) of every series and
// derives what the Recorder must still retain from page arithmetic; after
// every operation the Recorder must match it exactly — names in creation
// order, kinds, sizes, values and rows — including NaN and out-of-order
// rejections, rows of the wrong width, and copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/recorder.hpp"
#include "util/rng.hpp"

namespace vdc::telemetry {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

struct ModelSeries {
  bool vector = false;
  std::size_t width = 0;
  std::vector<std::vector<double>> accepted;  // every accepted sample, in order
  double last_time_s = -std::numeric_limits<double>::infinity();
};

/// Everything the naive model needs to predict the Recorder.
struct NaiveModel {
  RecorderConfig config;
  std::vector<std::string> names;  // creation order
  std::map<std::string, ModelSeries> series;

  /// What the Recorder still retains: whole pages dropped from the front
  /// past the page budget, the newest (possibly partial) page counting.
  [[nodiscard]] std::vector<std::vector<double>> retained(const ModelSeries& s) const {
    if (config.max_pages == 0) return s.accepted;
    const std::size_t page = config.page_samples;
    const std::size_t total_pages = (s.accepted.size() + page - 1) / page;
    const std::size_t live_pages = std::min(config.max_pages, total_pages);
    const std::size_t first = (total_pages - live_pages) * page;
    return {s.accepted.begin() + static_cast<std::ptrdiff_t>(first), s.accepted.end()};
  }

  ModelSeries& open(const std::string& name, bool vector) {
    const auto [it, created] = series.try_emplace(name);
    if (created) {
      it->second.vector = vector;
      if (!vector) it->second.width = 1;
      names.push_back(name);
    }
    return it->second;
  }

  void append_at(const std::string& name, double time_s, double value) {
    ModelSeries& s = open(name, false);
    if (std::isnan(time_s) || std::isnan(value) || time_s < s.last_time_s) return;
    s.last_time_s = time_s;
    s.accepted.push_back({value});
  }

  void append(const std::string& name, double value) {
    const ModelSeries& s = open(name, false);
    append_at(name, static_cast<double>(s.accepted.size()) * config.sample_period_s, value);
  }

  /// False when the row's width differs from the series' first row. A row
  /// holding a NaN is dropped, like a NaN sample.
  bool append_row(const std::string& name, const std::vector<double>& row) {
    ModelSeries& s = open(name, true);
    if (s.accepted.empty()) s.width = row.size();
    if (row.size() != s.width) return false;
    if (std::ranges::any_of(row, [](double x) { return std::isnan(x); })) return true;
    s.accepted.push_back(row);
    return true;
  }
};

void expect_matches(const Recorder& rec, const NaiveModel& model) {
  ASSERT_EQ(rec.series_names(), model.names);
  std::size_t retained_bytes = 0;
  std::size_t budget_bytes = 0;
  for (const std::string& name : model.names) {
    const ModelSeries& s = model.series.at(name);
    const std::vector<std::vector<double>> retained = model.retained(s);
    ASSERT_EQ(rec.is_vector(name), s.vector) << name;
    EXPECT_EQ(rec.size(name), retained.size()) << name;
    if (s.vector) {
      const Recorder::RowsView rows = rec.rows(name);
      ASSERT_EQ(rows.size(), retained.size()) << name;
      for (std::size_t k = 0; k < retained.size(); ++k) {
        EXPECT_TRUE(std::ranges::equal(rows[k], retained[k])) << name << " row " << k;
      }
    } else {
      std::vector<double> values;
      for (const std::vector<double>& sample : retained) values.push_back(sample.front());
      EXPECT_EQ(rec.values(name), values) << name;
    }
    retained_bytes += retained.size() * s.width * sizeof(double);
    // A buffer grows by doubling up to the full page budget, never past
    // twice it.
    budget_bytes += 2 * model.config.max_pages * model.config.page_samples * s.width *
                    sizeof(double);
  }
  EXPECT_GE(rec.approx_memory_bytes(), retained_bytes);
  if (model.config.max_pages > 0) {
    EXPECT_LE(rec.approx_memory_bytes(), budget_bytes);
  }
}

class RecorderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RecorderFuzz, MatchesNaiveVectorModel) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);

  // Tiny pages so ageing happens constantly.
  RecorderConfig config;
  config.sample_period_s = rng.uniform(0.5, 2.0);
  config.page_samples = static_cast<std::size_t>(rng.uniform_int(1, 5));
  config.max_pages = static_cast<std::size_t>(rng.uniform_int(0, 4));

  Recorder rec(config);
  NaiveModel model{config, {}, {}};
  const std::string scalars[] = {"p90", "power", "replicas"};
  const std::string vectors[] = {"alloc", "util"};
  const auto pick = [&](const auto& names) { return names[rng.index(std::size(names))]; };
  const auto value = [&] { return rng.bernoulli(0.05) ? kNan : rng.uniform(-5.0, 5.0); };

  for (int op = 0; op < 600; ++op) {
    const std::int64_t kind = rng.uniform_int(0, 16);
    if (kind < 6) {  // append at the synthesized time, by name or by id
      const std::string& name = pick(scalars);
      const double v = value();
      if (rng.bernoulli(0.5)) {
        rec.append(name, v);
      } else {
        rec.append(rec.declare_scalar(name), v);
      }
      model.append(name, v);
    } else if (kind < 11) {  // append_at: mostly forward, sometimes equal, back or NaN
      const std::string& name = pick(scalars);
      const double last = model.open(name, false).last_time_s;
      double t = std::isfinite(last) ? last : rng.uniform(0.0, 2.0);
      const std::int64_t step = rng.uniform_int(0, 9);
      if (step == 0) {
        t -= rng.uniform(0.1, 2.0);
      } else if (step > 1) {  // step 1 repeats the last time
        t += rng.uniform(0.0, 1.5);
      }
      if (rng.bernoulli(0.05)) t = kNan;
      const double v = value();
      rec.append_at(name, t, v);
      model.append_at(name, t, v);
    } else if (kind < 16) {  // a row, occasionally of the wrong width
      const std::string& name = pick(vectors);
      const std::size_t width = name == "alloc" ? 2 : 3;
      std::vector<double> row(rng.bernoulli(0.05) ? width + 1 : width);
      for (double& x : row) x = rng.uniform(0.0, 1.0);
      if (model.append_row(name, row)) {
        rec.append(name, row);
      } else {
        EXPECT_THROW(rec.append(name, row), std::invalid_argument);
      }
    } else {  // a copy compares equal until one side moves
      Recorder copy = rec;
      EXPECT_TRUE(copy == rec);
      copy.append("copy-only", 1.0);
      EXPECT_FALSE(copy == rec);
    }
    expect_matches(rec, model);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Every series kept within its page budget, however much streamed.
  if (config.max_pages > 0) {
    for (const std::string& name : model.names) {
      EXPECT_LE(rec.size(name), config.max_pages * config.page_samples) << name;
    }
  }
}

// Rows and samples that hold NaN, by name and by id, into series that age
// out: every NaN row is dropped exactly as a NaN sample is, and after every
// append the recorder equals its own copy and a recorder fed the same
// traffic, which a stored NaN would break.
TEST_P(RecorderFuzz, NaNRowsAreRejectedAndCopiesStayEqual) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  RecorderConfig config;
  config.page_samples = static_cast<std::size_t>(rng.uniform_int(1, 4));
  config.max_pages = static_cast<std::size_t>(rng.uniform_int(0, 3));

  Recorder rec(config);
  Recorder twin(config);
  NaiveModel model{config, {}, {}};
  const Recorder::SeriesId alloc = rec.declare_vector("alloc");
  const Recorder::SeriesId p90 = rec.declare_scalar("p90");
  twin.declare_vector("alloc");
  twin.declare_scalar("p90");
  model.open("alloc", true);
  model.open("p90", false);
  std::size_t nan_rows = 0;

  for (int op = 0; op < 400; ++op) {
    if (rng.bernoulli(0.3)) {
      const double v = rng.bernoulli(0.2) ? kNan : rng.uniform(0.0, 1.0);
      rec.append(p90, v);
      twin.append("p90", v);
      model.append("p90", v);
    } else {
      std::vector<double> row(3);
      for (double& x : row) x = rng.bernoulli(0.15) ? kNan : rng.uniform(0.0, 2.0);
      if (std::ranges::any_of(row, [](double x) { return std::isnan(x); })) ++nan_rows;
      rec.append(alloc, row);
      twin.append("alloc", row);
      ASSERT_TRUE(model.append_row("alloc", row));
    }
    expect_matches(rec, model);
    const Recorder copy = rec;
    EXPECT_TRUE(copy == rec) << "op " << op;
    EXPECT_TRUE(twin == rec) << "op " << op;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(nan_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecorderFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace vdc::telemetry
