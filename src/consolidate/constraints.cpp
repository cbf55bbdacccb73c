#include "consolidate/constraints.hpp"

#include <algorithm>
#include <stdexcept>

namespace vdc::consolidate {

CpuCapacityConstraint::CpuCapacityConstraint(double utilization_target)
    : target_(utilization_target) {
  if (!(utilization_target > 0.0) || utilization_target > 1.0) {
    throw std::invalid_argument("CpuCapacityConstraint: target must be in (0,1]");
  }
}

bool CpuCapacityConstraint::admits(const ServerSnapshot& server,
                                   std::span<const VmSnapshot* const> hosted) const {
  double demand = 0.0;
  for (const VmSnapshot* vm : hosted) demand += vm->cpu_demand_ghz;
  return demand <= server.max_capacity_ghz * target_ + 1e-9;
}

bool MemoryConstraint::admits(const ServerSnapshot& server,
                              std::span<const VmSnapshot* const> hosted) const {
  double memory = 0.0;
  for (const VmSnapshot* vm : hosted) memory += vm->memory_mb;
  return memory <= server.memory_mb + 1e-9;
}

CustomConstraint::CustomConstraint(std::string name, Fn fn)
    : name_(std::move(name)), fn_(std::move(fn)) {
  if (!fn_) throw std::invalid_argument("CustomConstraint: empty callable");
}

bool CustomConstraint::admits(const ServerSnapshot& server,
                              std::span<const VmSnapshot* const> hosted) const {
  return fn_(server, hosted);
}

ConstraintSet& ConstraintSet::add(std::unique_ptr<PlacementConstraint> constraint) {
  if (!constraint) throw std::invalid_argument("ConstraintSet: null constraint");
  if (const auto* cpu = dynamic_cast<const CpuCapacityConstraint*>(constraint.get())) {
    profile_.cpu_target =
        profile_.has_cpu ? std::min(profile_.cpu_target, cpu->utilization_target())
                         : cpu->utilization_target();
    profile_.has_cpu = true;
  } else if (dynamic_cast<const MemoryConstraint*>(constraint.get()) != nullptr) {
    profile_.has_memory = true;
  } else {
    profile_.all_builtin = false;
  }
  constraints_.push_back(std::move(constraint));
  return *this;
}

bool ConstraintSet::admits(const ServerSnapshot& server,
                           std::span<const VmSnapshot* const> hosted) const {
  // Single choke point for crashed servers: no algorithm may plan onto one,
  // and a failed server hosting anything is by definition infeasible (which
  // is what makes IPAC's overload-relief step evacuate it).
  if (server.failed) return false;
  for (const auto& constraint : constraints_) {
    if (!constraint->admits(server, hosted)) return false;
  }
  return true;
}

ConstraintSet ConstraintSet::standard(double utilization_target) {
  ConstraintSet set;
  set.add(std::make_unique<CpuCapacityConstraint>(utilization_target));
  set.add(std::make_unique<MemoryConstraint>());
  return set;
}

}  // namespace vdc::consolidate
