// Pluggable placement constraints. Algorithm 1 (Minimum Slack) was
// explicitly extended from the MBS heuristic to evaluate "a more general
// constraint in each step, instead of checking if the total size of the
// items exceeds the size of the bin" — this interface is that extension
// point. The paper's simulation adds a memory constraint as its example of
// an administrator-defined real-world constraint.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "consolidate/snapshot.hpp"

namespace vdc::consolidate {

class PlacementConstraint {
 public:
  virtual ~PlacementConstraint() = default;
  /// May `server` host exactly the VMs in `hosted` (existing + candidates)?
  [[nodiscard]] virtual bool admits(const ServerSnapshot& server,
                                    std::span<const VmSnapshot* const> hosted) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Sum of CPU demands must fit within max capacity times a utilization
/// target (<= 1.0 keeps headroom for demand jitter between invocations).
class CpuCapacityConstraint final : public PlacementConstraint {
 public:
  explicit CpuCapacityConstraint(double utilization_target = 1.0);
  [[nodiscard]] bool admits(const ServerSnapshot& server,
                            std::span<const VmSnapshot* const> hosted) const override;
  [[nodiscard]] std::string name() const override { return "cpu-capacity"; }
  [[nodiscard]] double utilization_target() const noexcept { return target_; }

 private:
  double target_;
};

/// Sum of VM memory must not exceed server memory.
class MemoryConstraint final : public PlacementConstraint {
 public:
  [[nodiscard]] bool admits(const ServerSnapshot& server,
                            std::span<const VmSnapshot* const> hosted) const override;
  [[nodiscard]] std::string name() const override { return "memory"; }
};

/// Administrator-defined constraint from a callable.
class CustomConstraint final : public PlacementConstraint {
 public:
  using Fn = std::function<bool(const ServerSnapshot&, std::span<const VmSnapshot* const>)>;
  CustomConstraint(std::string name, Fn fn);
  [[nodiscard]] bool admits(const ServerSnapshot& server,
                            std::span<const VmSnapshot* const> hosted) const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  Fn fn_;
};

/// Conjunction of constraints; shared by all consolidation algorithms.
class ConstraintSet {
 public:
  /// Classification of the set, maintained by `add`. When every member is a
  /// builtin (CPU capacity / memory) constraint, callers holding running
  /// demand/memory sums can evaluate admission in O(1) against
  /// `cpu_limit_ghz(server)` / the server's memory instead of walking the
  /// polymorphic chain. WorkingPlacement::admits_with, which every
  /// algorithm and auditor admits through, and the Minimum Slack DFS take
  /// this path. Any custom (or future) constraint type clears `all_builtin`
  /// and forces the generic evaluation (`admits`) everywhere.
  struct BuiltinProfile {
    bool all_builtin = true;
    bool has_cpu = false;
    bool has_memory = false;
    /// Effective utilization target: the minimum across all CPU capacity
    /// constraints (meaningful only when has_cpu).
    double cpu_target = 1.0;
  };

  ConstraintSet() = default;
  ConstraintSet(ConstraintSet&&) = default;
  ConstraintSet& operator=(ConstraintSet&&) = default;

  ConstraintSet& add(std::unique_ptr<PlacementConstraint> constraint);
  [[nodiscard]] bool admits(const ServerSnapshot& server,
                            std::span<const VmSnapshot* const> hosted) const;
  [[nodiscard]] std::size_t size() const noexcept { return constraints_.size(); }

  [[nodiscard]] const BuiltinProfile& builtin_profile() const noexcept { return profile_; }
  /// CPU admission limit under the builtin profile (GHz): capacity times
  /// the effective utilization target.
  [[nodiscard]] double cpu_limit_ghz(const ServerSnapshot& server) const noexcept {
    return server.max_capacity_ghz * profile_.cpu_target;
  }

  /// The paper's simulation setup: CPU capacity + memory.
  [[nodiscard]] static ConstraintSet standard(double utilization_target = 1.0);

 private:
  std::vector<std::unique_ptr<PlacementConstraint>> constraints_;
  BuiltinProfile profile_;
};

}  // namespace vdc::consolidate
