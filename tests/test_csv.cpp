#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/export.hpp"
#include "telemetry/recorder.hpp"

namespace vdc::util {
namespace {

TEST(CsvEscape, PlainCellUnchanged) { EXPECT_EQ(csv_escape("hello"), "hello"); }

TEST(CsvEscape, QuotesCommasAndNewlines) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(CsvWriter, HeaderAndRows) {
  std::ostringstream out;
  CsvWriter writer(out, {"a", "b"});
  writer.row(std::vector<std::string>{"1", "x,y"});
  writer.row(std::vector<double>{2.5, 3.0});
  EXPECT_EQ(writer.rows_written(), 2u);
  EXPECT_EQ(out.str(), "a,b\n1,\"x,y\"\n2.5,3\n");
}

TEST(CsvWriter, RejectsWidthMismatch) {
  std::ostringstream out;
  CsvWriter writer(out, {"a", "b"});
  EXPECT_THROW(writer.row(std::vector<std::string>{"only-one"}), std::invalid_argument);
}

TEST(CsvWriter, RejectsEmptyHeader) {
  std::ostringstream out;
  EXPECT_THROW(CsvWriter(out, {}), std::invalid_argument);
}

TEST(ParseCsv, SimpleTable) {
  const CsvTable t = parse_csv("a,b\n1,2\n3,4\n");
  ASSERT_EQ(t.header.size(), 2u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][0], "1");
  EXPECT_EQ(t.rows[1][1], "4");
  EXPECT_EQ(t.column_index("b"), 1u);
  EXPECT_DOUBLE_EQ(t.as_double(1, 0), 3.0);
}

TEST(ParseCsv, QuotedCells) {
  const CsvTable t = parse_csv("name,note\nx,\"a,b\"\ny,\"say \"\"hi\"\"\"\n");
  EXPECT_EQ(t.rows[0][1], "a,b");
  EXPECT_EQ(t.rows[1][1], "say \"hi\"");
}

TEST(ParseCsv, CarriageReturnsAndBlankLines) {
  const CsvTable t = parse_csv("a,b\r\n1,2\r\n\r\n3,4\r\n");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[1][0], "3");
}

TEST(ParseCsv, NoHeaderMode) {
  const CsvTable t = parse_csv("1,2\n3,4\n", /*has_header=*/false);
  EXPECT_TRUE(t.header.empty());
  ASSERT_EQ(t.rows.size(), 2u);
}

TEST(CsvTable, ErrorsOnUnknownColumnAndBadNumber) {
  const CsvTable t = parse_csv("a\nxyz\n");
  EXPECT_THROW(static_cast<void>(t.column_index("nope")), std::out_of_range);
  EXPECT_THROW(static_cast<void>(t.as_double(0, 0)), std::runtime_error);
}

TEST(CsvRoundTrip, WriteThenParse) {
  std::ostringstream out;
  CsvWriter writer(out, {"k", "v"});
  writer.row(std::vector<std::string>{"key,with,commas", "line\nbreak"});
  const CsvTable t = parse_csv(out.str());
  // Note: embedded newline splits on parse (line-based parser), so this
  // documents the supported round-trip subset: commas and quotes.
  EXPECT_EQ(t.rows[0][0], "key,with,commas");
}

TEST(ReadCsvFile, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/path.csv"), std::runtime_error);
}

TEST(TelemetryCsv, RecorderRoundTripsThroughParser) {
  // The recorder's export must be bytes this parser round-trips, holding
  // exactly the appended values (ragged series lengths and vector columns
  // included).
  telemetry::Recorder rec;
  rec.append("p90", 1.0 / 3.0);
  rec.append("p90", 0.125);
  rec.append("alloc", std::vector<double>{0.3, 0.7});
  rec.append("power", 123.456789);
  const std::string csv = telemetry::to_csv(rec);
  EXPECT_EQ(csv,
            "p90,alloc[0],alloc[1],power\n"
            "0.3333333333333333,0.3,0.7,123.456789\n"
            "0.125,,,\n");
  const telemetry::Recorder back = telemetry::from_csv(csv);
  EXPECT_TRUE(back == rec);
  const CsvTable table = parse_csv(csv);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.as_double(0, 0), 1.0 / 3.0);
  EXPECT_EQ(table.as_double(1, 0), 0.125);
}

}  // namespace
}  // namespace vdc::util
