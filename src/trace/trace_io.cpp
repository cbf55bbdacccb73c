#include "trace/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace vdc::trace {

void write_trace_csv(std::ostream& out, const UtilizationTrace& trace) {
  out << "server,label";
  for (std::size_t k = 0; k < trace.sample_count(); ++k) out << ",u" << k;
  out << '\n';
  for (std::size_t s = 0; s < trace.server_count(); ++s) {
    out << s << ',';
    if (s < trace.labels.size()) out << trace.labels[s];
    for (const double u : trace.series(s)) out << ',' << u;
    out << '\n';
  }
}

void write_trace_csv_file(const std::filesystem::path& path, const UtilizationTrace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_trace_csv_file: cannot open " + path.string());
  write_trace_csv(out, trace);
}

UtilizationTrace read_trace_csv(std::istream& in, double sample_period_s) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("read_trace_csv: empty input");
  // Count sample columns from the header.
  std::size_t commas = 0;
  for (const char c : line) commas += (c == ',');
  const bool has_label = line.find(",label") != std::string::npos;
  const std::size_t samples = commas - (has_label ? 1 : 0);
  if (samples == 0) throw std::runtime_error("read_trace_csv: no sample columns");

  std::vector<std::vector<double>> rows;
  std::vector<std::string> labels;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<double> values;
    values.reserve(samples);
    std::string label;
    std::size_t field = 0;
    std::size_t start = 0;
    while (start <= line.size()) {
      std::size_t end = line.find(',', start);
      if (end == std::string::npos) end = line.size();
      const std::string_view cell(line.data() + start, end - start);
      if (field == 1 && has_label) {
        label = std::string(cell);
      } else if (field >= (has_label ? 2u : 1u)) {
        double v = 0.0;
        const auto [ptr, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), v);
        if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
          throw std::runtime_error("read_trace_csv: bad cell '" + std::string(cell) + "'");
        }
        if (!(v >= 0.0 && v <= 1.0)) {  // a NaN fails both comparisons
          throw std::runtime_error("read_trace_csv: utilization '" + std::string(cell) +
                                   "' outside [0,1] at data row " + std::to_string(rows.size()) +
                                   ", column u" + std::to_string(values.size()));
        }
        values.push_back(v);
      }
      start = end + 1;
      ++field;
    }
    if (values.size() != samples) {
      throw std::runtime_error("read_trace_csv: row width mismatch");
    }
    rows.push_back(std::move(values));
    labels.push_back(std::move(label));
  }
  if (rows.empty()) throw std::runtime_error("read_trace_csv: no data rows");

  UtilizationTrace trace(rows.size(), samples, sample_period_s);
  trace.labels = std::move(labels);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    for (std::size_t k = 0; k < samples; ++k) trace.set(s, k, rows[s][k]);
  }
  return trace;
}

UtilizationTrace read_trace_csv_file(const std::filesystem::path& path,
                                     double sample_period_s) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_trace_csv_file: cannot open " + path.string());
  return read_trace_csv(in, sample_period_s);
}

}  // namespace vdc::trace
