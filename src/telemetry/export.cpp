#include "telemetry/export.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace vdc::telemetry {

namespace {

/// Shortest representation that parses back to the same double.
std::string format_sample(double value) {
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) throw std::runtime_error("telemetry: cannot format sample");
  return std::string(buffer, ptr);
}

/// Splits "name[idx]" into (name, idx); nullopt when the column is scalar.
struct VectorColumn {
  std::string series;
  std::size_t index;
};

std::optional<VectorColumn> parse_vector_column(const std::string& column) {
  if (column.empty() || column.back() != ']') return std::nullopt;
  const std::size_t open = column.rfind('[');
  if (open == std::string::npos || open + 2 > column.size() - 1) return std::nullopt;
  const std::string digits = column.substr(open + 1, column.size() - open - 2);
  std::size_t index = 0;
  const auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) return std::nullopt;
  return VectorColumn{column.substr(0, open), index};
}

}  // namespace

void write_csv(const Recorder& recorder, std::ostream& out) {
  if (recorder.empty()) throw std::invalid_argument("telemetry::write_csv: no series");

  // Header: scalar series as-is, vector series flattened to their row width.
  std::vector<std::string> header;
  struct Column {
    const std::string* series;
    bool vector;
    std::size_t index;  // tier index within a vector series
  };
  std::vector<Column> columns;
  std::size_t samples = 0;
  for (const std::string& name : recorder.series_names()) {
    samples = std::max(samples, recorder.size(name));
    if (recorder.is_vector(name)) {
      const Recorder::RowsView rows = recorder.rows(name);
      const std::size_t width = rows.empty() ? 0 : rows.front().size();
      for (std::size_t j = 0; j < width; ++j) {
        header.push_back(name + "[" + std::to_string(j) + "]");
        columns.push_back(Column{&name, true, j});
      }
    } else {
      header.push_back(name);
      columns.push_back(Column{&name, false, 0});
    }
  }

  util::CsvWriter writer(out, std::move(header));
  std::vector<std::string> cells(columns.size());
  for (std::size_t k = 0; k < samples; ++k) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const Column& column = columns[c];
      cells[c].clear();
      if (column.vector) {
        const Recorder::RowsView rows = recorder.rows(*column.series);
        if (k < rows.size() && column.index < rows[k].size()) {
          cells[c] = format_sample(rows[k][column.index]);
        }
      } else {
        const auto& values = recorder.values(*column.series);
        if (k < values.size()) cells[c] = format_sample(values[k]);
      }
    }
    writer.row(cells);
  }
}

std::string to_csv(const Recorder& recorder) {
  std::ostringstream out;
  write_csv(recorder, out);
  return out.str();
}

std::string annotations_csv(const Recorder& recorder) {
  std::ostringstream out;
  util::CsvWriter writer(out, {"time_s", "label"});
  for (const Annotation& a : recorder.annotations()) {
    writer.row({format_sample(a.time_s), a.label});
  }
  return out.str();
}

void write_csv_file(const Recorder& recorder, const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("telemetry::write_csv_file: cannot open " + path.string());
  }
  write_csv(recorder, out);
}

Recorder from_csv(std::string_view text) {
  const util::CsvTable table = util::parse_csv(text);
  // max_pages = 0 keeps every sample, however long the CSV.
  Recorder recorder(RecorderConfig{.max_pages = 0});
  // Column metadata, preserving vector-column grouping.
  std::vector<std::optional<VectorColumn>> vector_columns;
  vector_columns.reserve(table.header.size());
  for (const std::string& column : table.header) {
    vector_columns.push_back(parse_vector_column(column));
  }
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const std::vector<std::string>& row = table.rows[r];
    for (std::size_t c = 0; c < table.header.size(); ++c) {
      if (c >= row.size() || row[c].empty()) continue;
      if (vector_columns[c] && vector_columns[c]->index > 0) continue;  // handled below
      if (!vector_columns[c]) {
        recorder.append(table.header[c], table.as_double(r, c));
        continue;
      }
      // First cell of a vector series: gather the contiguous non-empty
      // cells of its sibling columns into one sample row.
      const std::string& series = vector_columns[c]->series;
      std::vector<double> sample;
      for (std::size_t j = c; j < table.header.size(); ++j) {
        if (!vector_columns[j] || vector_columns[j]->series != series) break;
        if (j >= row.size() || row[j].empty()) break;
        sample.push_back(table.as_double(r, j));
      }
      recorder.append(series, sample);
    }
  }
  return recorder;
}

Recorder read_csv_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("telemetry::read_csv_file: cannot open " + path.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_csv(ss.str());
}

}  // namespace vdc::telemetry
