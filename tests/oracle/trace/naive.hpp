// Reference ("naive") synthetic-trace generator: the per-sample loop that
// recomputes the calendar (hour-of-day, weekday) and every diurnal bump for
// each of the trace's samples, retained verbatim as the differential-testing
// oracle for trace::generate_synthetic_trace (tests/test_synthetic.cpp). The
// fast generator computes the calendar once per trace and each server's
// daily shape once per distinct hour-of-day; it must reproduce this one bit
// for bit, values and labels. Do not "optimize" this file.
#pragma once

#include "trace/synthetic.hpp"

namespace vdc::trace::naive {

[[nodiscard]] UtilizationTrace generate_synthetic_trace(const SyntheticTraceOptions& options);

}  // namespace vdc::trace::naive
