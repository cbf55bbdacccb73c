#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/synthetic.hpp"

namespace vdc::trace {
namespace {

TEST(TraceIo, RoundTripPreservesValuesAndLabels) {
  SyntheticTraceOptions o;
  o.servers = 10;
  o.samples = 48;
  o.seed = 3;
  const UtilizationTrace original = generate_synthetic_trace(o);

  std::ostringstream out;
  write_trace_csv(out, original);
  std::istringstream in(out.str());
  const UtilizationTrace restored = read_trace_csv(in);

  ASSERT_EQ(restored.server_count(), original.server_count());
  ASSERT_EQ(restored.sample_count(), original.sample_count());
  EXPECT_EQ(restored.labels, original.labels);
  for (std::size_t s = 0; s < original.server_count(); ++s) {
    for (std::size_t k = 0; k < original.sample_count(); ++k) {
      EXPECT_NEAR(restored.at(s, k), original.at(s, k), 1e-6);
    }
  }
}

TEST(TraceIo, ReadsHeaderlessLabelColumn) {
  std::istringstream in("server,label,u0,u1\n0,web,0.1,0.2\n1,db,0.3,0.4\n");
  const UtilizationTrace t = read_trace_csv(in);
  EXPECT_EQ(t.server_count(), 2u);
  EXPECT_EQ(t.sample_count(), 2u);
  EXPECT_EQ(t.labels[0], "web");
  EXPECT_DOUBLE_EQ(t.at(1, 1), 0.4);
}

TEST(TraceIo, CustomSamplePeriod) {
  std::istringstream in("server,label,u0\n0,,0.5\n");
  const UtilizationTrace t = read_trace_csv(in, 60.0);
  EXPECT_DOUBLE_EQ(t.sample_period_s(), 60.0);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW(read_trace_csv(empty), std::runtime_error);
  std::istringstream no_samples("server,label\n");
  EXPECT_THROW(read_trace_csv(no_samples), std::runtime_error);
  std::istringstream ragged("server,label,u0,u1\n0,x,0.1\n");
  EXPECT_THROW(read_trace_csv(ragged), std::runtime_error);
  std::istringstream bad_cell("server,label,u0\n0,x,abc\n");
  EXPECT_THROW(read_trace_csv(bad_cell), std::runtime_error);
  // from_chars parses "nan" in full, so the range check must reject it.
  std::istringstream nan_cell("server,label,u0,u1\n0,x,0.1,nan\n");
  EXPECT_THROW(read_trace_csv(nan_cell), std::runtime_error);
  std::istringstream high_cell("server,label,u0,u1\n0,x,0.1,0.2\n1,y,1.5,0.3\n");
  try {
    (void)read_trace_csv(high_cell);
    ADD_FAILURE() << "a utilization above 1 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("data row 1, column u0"), std::string::npos) << e.what();
  }
  std::istringstream header_only("server,label,u0\n");
  EXPECT_THROW(read_trace_csv(header_only), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  SyntheticTraceOptions o;
  o.servers = 4;
  o.samples = 8;
  const UtilizationTrace original = generate_synthetic_trace(o);
  const std::filesystem::path path = std::filesystem::temp_directory_path() /
                                     "vdc_trace_io_test.csv";
  write_trace_csv_file(path, original);
  const UtilizationTrace restored = read_trace_csv_file(path);
  EXPECT_EQ(restored.server_count(), 4u);
  std::filesystem::remove(path);
  EXPECT_THROW(read_trace_csv_file("/no/such/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace vdc::trace
