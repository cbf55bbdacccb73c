// Administrator extension points: the paper's Section V provides "an
// interface for data center administrators to define their own cost
// functions based on their various policies", and Algorithm 1 evaluates "a
// more general constraint in each step". This example exercises both:
//
//   * a custom placement constraint (anti-affinity: at most 3 VMs of the
//     same tenant per server), and
//   * a custom migration cost policy (allow a migration only when its
//     expected power saving beats a per-gigabyte network cost).
//
//   ./build/examples/custom_cost_policy
#include <cstdio>
#include <string>

#include "core/power_optimizer.hpp"

namespace {

using namespace vdc;

/// Tenant of a VM, encoded in its id for this example: tenant = id % 4.
int tenant_of(consolidate::VmId id) { return static_cast<int>(id % 4); }

class TenantAntiAffinity final : public consolidate::PlacementConstraint {
 public:
  [[nodiscard]] bool admits(
      const consolidate::ServerSnapshot&,
      std::span<const consolidate::VmSnapshot* const> hosted) const override {
    int per_tenant[4] = {0, 0, 0, 0};
    for (const consolidate::VmSnapshot* vm : hosted) {
      if (++per_tenant[tenant_of(vm->id)] > 3) return false;
    }
    return true;
  }
  [[nodiscard]] std::string name() const override { return "tenant-anti-affinity"; }
};

class PayForBandwidthPolicy final : public consolidate::MigrationCostPolicy {
 public:
  explicit PayForBandwidthPolicy(double watts_per_gb) : watts_per_gb_(watts_per_gb) {}
  [[nodiscard]] bool allow(const consolidate::DataCenterSnapshot& snapshot,
                           const consolidate::MigrationProposal& p) const override {
    const double gb = snapshot.vm(p.vm).memory_mb / 1024.0;
    const double cost_w = gb * watts_per_gb_;
    std::printf("  proposal vm%-3u %u->%u  benefit %.1f W, cost %.1f W -> %s\n", p.vm,
                p.from, p.to, p.estimated_benefit_w, cost_w,
                p.estimated_benefit_w >= cost_w ? "allow" : "reject");
    return p.estimated_benefit_w >= cost_w;
  }
  [[nodiscard]] std::string name() const override { return "pay-for-bandwidth"; }

 private:
  double watts_per_gb_;
};

}  // namespace

int main() {
  using namespace vdc;
  // A scattered data center: 12 VMs across six inefficient servers, with
  // two efficient quads asleep.
  datacenter::Cluster cluster;
  for (int i = 0; i < 2; ++i) {
    cluster.add_server(datacenter::Server(datacenter::quad_core_3ghz(),
                                          datacenter::power_model_quad_3ghz(), 32768.0));
  }
  cluster.sleep_idle_servers();  // the two quads, empty so far
  for (int i = 0; i < 6; ++i) {
    cluster.add_server(datacenter::Server(datacenter::dual_core_1_5ghz(),
                                          datacenter::power_model_dual_1_5ghz(), 12288.0));
  }
  for (datacenter::VmId v = 0; v < 12; ++v) {
    datacenter::Vm vm;
    vm.name = "tenant" + std::to_string(v % 4) + "-vm" + std::to_string(v);
    vm.cpu_demand_ghz = 0.6 + 0.05 * static_cast<double>(v % 5);
    vm.memory_mb = 1024.0 * static_cast<double>(1 + v % 3);
    cluster.add_vm(vm, 2 + v % 6);
  }
  std::printf("before: %zu active servers, %.1f W\n", cluster.active_server_count(),
              cluster.step().awake_power_w);

  core::OptimizerConfig opt_config;
  opt_config.algorithm = core::ConsolidationAlgorithm::kIpac;
  opt_config.utilization_target = 0.9;
  core::PowerOptimizer optimizer(opt_config, std::make_shared<PayForBandwidthPolicy>(8.0));
  optimizer.add_constraint(std::make_unique<TenantAntiAffinity>());

  std::printf("optimizing (cost policy decisions below):\n");
  const core::OptimizationOutcome outcome = optimizer.optimize(cluster, 0.0);
  std::printf("after: %zu active servers, %.1f W, %zu migrations\n",
              cluster.active_server_count(), cluster.step().awake_power_w,
              outcome.migrations);

  // Show the anti-affinity held.
  for (datacenter::ServerId s = 0; s < cluster.server_count(); ++s) {
    int per_tenant[4] = {0, 0, 0, 0};
    for (const datacenter::VmId vm : cluster.vms_on(s)) ++per_tenant[tenant_of(vm)];
    for (int t = 0; t < 4; ++t) {
      if (per_tenant[t] > 3) {
        std::printf("ANTI-AFFINITY VIOLATED on server %u\n", s);
        return 1;
      }
    }
  }
  std::printf("tenant anti-affinity satisfied everywhere.\n");
  return 0;
}
