// CSV export/import for recorded series, built on util::csv. One column
// per scalar series; vector series are flattened to indexed columns
// ("alloc[0]", "alloc[1]", ...) and reassembled on import. Series of
// different lengths are padded with empty cells, which import skips — so
// export followed by import reproduces the recorder exactly.
#pragma once

#include <filesystem>
#include <ostream>
#include <string>
#include <string_view>

#include "telemetry/recorder.hpp"

namespace vdc::telemetry {

/// Writes every series of `recorder` as one CSV table (header + rows).
void write_csv(const Recorder& recorder, std::ostream& out);

/// `write_csv` into a string.
[[nodiscard]] std::string to_csv(const Recorder& recorder);

/// `write_csv` into a file; throws std::runtime_error when unwritable.
void write_csv_file(const Recorder& recorder, const std::filesystem::path& path);

/// The recorder's annotations as their own small CSV table
/// ("time_s,label"); empty annotation list yields just the header. Kept
/// separate from `write_csv` so the series table is byte-identical whether
/// or not a run was annotated.
[[nodiscard]] std::string annotations_csv(const Recorder& recorder);

/// Parses a table produced by `write_csv` back into a Recorder. Columns
/// named "name[i]" are reassembled into the vector series "name"; every
/// other column becomes a scalar series. Empty cells are skipped. The
/// recorder's tier-0 retention is unbounded, so every row is kept. A vector
/// series whose rows differ in width throws std::invalid_argument.
[[nodiscard]] Recorder from_csv(std::string_view text);

/// `from_csv` on a file's contents; throws std::runtime_error when
/// unreadable.
[[nodiscard]] Recorder read_csv_file(const std::filesystem::path& path);

}  // namespace vdc::telemetry
