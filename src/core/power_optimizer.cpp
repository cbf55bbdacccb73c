#include "core/power_optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace vdc::core {

std::string to_string(ConsolidationAlgorithm algorithm) {
  switch (algorithm) {
    case ConsolidationAlgorithm::kIpac: return "IPAC";
    case ConsolidationAlgorithm::kPMapper: return "pMapper";
    case ConsolidationAlgorithm::kNone: return "none";
  }
  return "?";
}

PowerOptimizer::PowerOptimizer(OptimizerConfig config,
                               std::shared_ptr<consolidate::MigrationCostPolicy> policy)
    : config_(config),
      constraints_(consolidate::ConstraintSet::standard(config.utilization_target)),
      policy_(std::move(policy)),
      model_(std::make_unique<consolidate::PlanningModel>()) {
  if (!(config_.utilization_target > 0.0) || config_.utilization_target > 1.0) {
    throw std::invalid_argument("PowerOptimizer: utilization_target must be in (0, 1]");
  }
  // NaN or negative would silently disable the backoff (see plan()).
  if (std::isnan(config_.migration_backoff_s) || config_.migration_backoff_s < 0.0) {
    throw std::invalid_argument("PowerOptimizer: migration_backoff_s must be >= 0");
  }
  consolidate::validate(config_.ipac.min_slack, "PowerOptimizer");
  consolidate::validate(config_.rack, "PowerOptimizer");
  if (!policy_) policy_ = std::make_shared<consolidate::FreeMigrationPolicy>();
}

void PowerOptimizer::add_constraint(
    std::unique_ptr<consolidate::PlacementConstraint> constraint) {
  constraints_.add(std::move(constraint));
}

consolidate::PlacementPlan PowerOptimizer::plan(const datacenter::Cluster& cluster,
                                                double now_s) {
  consolidate::PlacementPlan out;
  if (config_.algorithm == ConsolidationAlgorithm::kNone) return out;
  model_->refresh(cluster);
  if (config_.algorithm == ConsolidationAlgorithm::kIpac) {
    out = consolidate::ipac(*model_, constraints_, *policy_, config_.ipac, config_.rack).plan;
  } else {
    out = consolidate::pmapper(*model_, constraints_, config_.rack).plan;
  }

  // Drop moves of VMs still backing off from a failed migration; placements
  // of homeless VMs (from == kNoServer) are never deferred — a VM with no
  // host gets no CPU, so re-placing it always beats waiting.
  if (!backoff_until_.empty()) {
    std::vector<consolidate::Move> kept;
    kept.reserve(out.moves.size());
    for (const consolidate::Move& move : out.moves) {
      const auto it = backoff_until_.find(move.vm);
      if (move.from != datacenter::kNoServer && it != backoff_until_.end() &&
          now_s < it->second) {
        ++moves_deferred_;
        continue;
      }
      kept.push_back(move);
    }
    out.moves = std::move(kept);
    // Expired entries can go; the map stays small.
    std::erase_if(backoff_until_, [now_s](const auto& kv) { return kv.second <= now_s; });
  }
  return out;
}

void PowerOptimizer::note_migration_failure(datacenter::VmId vm, double now_s) {
  ++migration_failures_;
  backoff_until_[vm] = now_s + config_.migration_backoff_s;
}

OptimizationOutcome PowerOptimizer::optimize(datacenter::Cluster& cluster, double now_s) {
  ++invocations_;
  OptimizationOutcome outcome;
  outcome.active_before = cluster.active_server_count();

  if (config_.algorithm == ConsolidationAlgorithm::kNone) {
    cluster.sleep_idle_servers();
    outcome.active_after = cluster.active_server_count();
    return outcome;
  }

  const consolidate::PlacementPlan decided = plan(cluster, now_s);
  consolidate::apply_plan(cluster, decided, now_s);
  outcome.migrations = decided.moves.size();
  outcome.unplaced = decided.unplaced.size();
  outcome.active_after = cluster.active_server_count();
  total_migrations_ += outcome.migrations;
  return outcome;
}

}  // namespace vdc::core
