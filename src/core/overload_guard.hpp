// On-demand overload mitigation between optimizer invocations.
//
// Section III of the paper: "Between two consecutive invocations of the
// data center-level optimizer, it is possible that an unexpected increase
// of the workload can cause a severe overload on a server. To deal with
// this problem, the solution in this paper can be integrated with
// algorithms to move VMs from the overloaded servers to idle servers in an
// on-demand manner" (citing the authors' Co-Con work). This guard is that
// integration: it runs on the controller time scale, watches for servers
// whose demand exceeds capacity for several consecutive checks, and
// performs the minimal relief migrations immediately instead of waiting
// hours for the next IPAC invocation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "consolidate/constraints.hpp"
#include "consolidate/minimum_slack.hpp"
#include "consolidate/planning_model.hpp"
#include "datacenter/cluster.hpp"

namespace vdc::core {

struct OverloadGuardConfig {
  /// Consecutive overloaded checks before the guard acts (debounce against
  /// demand jitter the controller will absorb by itself).
  std::size_t trigger_after_checks = 2;
  /// Utilization target the relieved servers are packed back to.
  double utilization_target = 0.9;
  consolidate::MinSlackOptions min_slack;
};

struct OverloadGuardReport {
  std::size_t overloaded_servers = 0;
  std::size_t migrations = 0;
  std::size_t woken_servers = 0;
  /// VMs that no server could absorb (the cluster itself is saturated).
  std::size_t unplaced = 0;
};

class OverloadGuard {
 public:
  /// Throws std::invalid_argument on an invalid `min_slack` sub-config or
  /// a utilization target outside (0, 1].
  explicit OverloadGuard(OverloadGuardConfig config = {});

  /// One check (call once per control period). Returns what was done.
  /// Relief is planned on the guard's own planning model.
  OverloadGuardReport check(datacenter::Cluster& cluster, double now_s);
  /// The same check, planning on a borrowed model (the optimizer's, so
  /// both share one set of planning buffers and one efficiency order).
  OverloadGuardReport check(datacenter::Cluster& cluster, double now_s,
                            consolidate::PlanningModel& model);

  [[nodiscard]] std::size_t total_migrations() const noexcept { return total_migrations_; }
  [[nodiscard]] std::size_t total_activations() const noexcept { return total_activations_; }

 private:
  OverloadGuardConfig config_;
  consolidate::ConstraintSet constraints_;
  /// Created on the first check that plans without a borrowed model.
  std::unique_ptr<consolidate::PlanningModel> own_model_;
  /// Per-server consecutive-overload counters (resized lazily).
  std::vector<std::size_t> strikes_;
  std::size_t total_migrations_ = 0;
  std::size_t total_activations_ = 0;
};

}  // namespace vdc::core
