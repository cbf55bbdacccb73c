// Umbrella header: the public API of the vdc-power library.
//
//   #include "vdc.hpp"
//
// pulls in the two-level power-management system (response-time control +
// power optimization) and every substrate. Fine-grained headers remain
// available for faster builds.
#pragma once

// Utilities.
#include "util/csv.hpp"          // IWYU pragma: export
#include "util/log.hpp"          // IWYU pragma: export
#include "util/rng.hpp"          // IWYU pragma: export
#include "util/statistics.hpp"   // IWYU pragma: export
#include "util/thread_pool.hpp"  // IWYU pragma: export

// Linear algebra / optimization.
#include "linalg/cholesky.hpp"  // IWYU pragma: export
#include "linalg/eigen.hpp"     // IWYU pragma: export
#include "linalg/lu.hpp"        // IWYU pragma: export
#include "linalg/matrix.hpp"    // IWYU pragma: export
#include "linalg/qp.hpp"        // IWYU pragma: export
#include "linalg/qr.hpp"        // IWYU pragma: export

// Discrete-event simulation.
#include "sim/ps_queue.hpp"    // IWYU pragma: export
#include "sim/simulation.hpp"  // IWYU pragma: export

// Multi-tier applications.
#include "app/monitor.hpp"         // IWYU pragma: export
#include "app/multi_tier_app.hpp"  // IWYU pragma: export
#include "app/queueing.hpp"        // IWYU pragma: export

// Virtualized data center.
#include "datacenter/arbitrator.hpp"   // IWYU pragma: export
#include "datacenter/cluster.hpp"      // IWYU pragma: export
#include "datacenter/cpu_spec.hpp"     // IWYU pragma: export
#include "datacenter/migration.hpp"    // IWYU pragma: export
#include "datacenter/power_model.hpp"  // IWYU pragma: export
#include "datacenter/server.hpp"       // IWYU pragma: export

// Control.
#include "control/arx.hpp"        // IWYU pragma: export
#include "control/mpc.hpp"        // IWYU pragma: export
#include "control/reference.hpp"  // IWYU pragma: export
#include "control/stability.hpp"  // IWYU pragma: export
#include "control/sysid.hpp"      // IWYU pragma: export
#include "control/tuning.hpp"     // IWYU pragma: export

// Consolidation.
#include "consolidate/constraints.hpp"        // IWYU pragma: export
#include "consolidate/cost_policy.hpp"        // IWYU pragma: export
#include "consolidate/ffd.hpp"                // IWYU pragma: export
#include "consolidate/ipac.hpp"               // IWYU pragma: export
#include "consolidate/minimum_slack.hpp"      // IWYU pragma: export
#include "consolidate/pac.hpp"                // IWYU pragma: export
#include "consolidate/planning_model.hpp"     // IWYU pragma: export
#include "consolidate/pmapper.hpp"            // IWYU pragma: export
#include "consolidate/snapshot.hpp"           // IWYU pragma: export
#include "consolidate/working_placement.hpp"  // IWYU pragma: export

// Traces.
#include "trace/analysis.hpp"   // IWYU pragma: export
#include "trace/forecast.hpp"   // IWYU pragma: export
#include "trace/synthetic.hpp"  // IWYU pragma: export
#include "trace/trace.hpp"      // IWYU pragma: export
#include "trace/trace_io.hpp"   // IWYU pragma: export

// Integration layer.
#include "core/overload_guard.hpp"            // IWYU pragma: export
#include "core/power_optimizer.hpp"           // IWYU pragma: export
#include "core/response_time_controller.hpp"  // IWYU pragma: export
#include "core/sysid_experiment.hpp"          // IWYU pragma: export
#include "core/testbed.hpp"                   // IWYU pragma: export
#include "core/trace_sim.hpp"                 // IWYU pragma: export
