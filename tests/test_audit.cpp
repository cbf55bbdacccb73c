// Each domain auditor must reject corrupted state: these tests feed
// deliberately invalid values/structs to the audit functions and expect a
// CheckFailure with a useful message. The auditors take values and small
// structs precisely so corruption can be injected here without breaking the
// domain types' encapsulation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "check/app_audit.hpp"
#include "check/check.hpp"
#include "check/consolidate_audit.hpp"
#include "check/control_audit.hpp"
#include "check/dc_audit.hpp"
#include "check/sim_audit.hpp"
#include "consolidate/constraints.hpp"
#include "consolidate/planning_model.hpp"
#include "consolidate/snapshot.hpp"
#include "consolidate/working_placement.hpp"
#include "datacenter/arbitrator.hpp"
#include "datacenter/cluster.hpp"
#include "datacenter/cpu_spec.hpp"
#include "datacenter/power_model.hpp"
#include "datacenter/server.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qp.hpp"

namespace vdc {
namespace {

using check::CheckFailure;

#if VDC_CHECKS_ENABLED

// ---- sim::audit -------------------------------------------------------------

TEST(SimAudit, RejectsClockRewind) {
  EXPECT_NO_THROW(sim::audit::clock_monotonic(1.0, 1.0));
  EXPECT_THROW(sim::audit::clock_monotonic(5.0, 4.999), CheckFailure);
}

TEST(SimAudit, RejectsNegativePsResidual) {
  EXPECT_NO_THROW(sim::audit::ps_residual(0.0));
  EXPECT_NO_THROW(sim::audit::ps_residual(-1e-9));  // rounding slack
  EXPECT_THROW(sim::audit::ps_residual(-0.5), CheckFailure);
  EXPECT_THROW(sim::audit::ps_residual(std::numeric_limits<double>::quiet_NaN()), CheckFailure);
}

TEST(SimAudit, RejectsBrokenPsAccounting) {
  EXPECT_NO_THROW(sim::audit::ps_accounting(10.0, 2.0));
  EXPECT_THROW(sim::audit::ps_accounting(-1.0, 2.0), CheckFailure);
  EXPECT_THROW(sim::audit::ps_accounting(10.0, -2.0), CheckFailure);
}

// ---- datacenter::audit ------------------------------------------------------

TEST(DcAudit, RejectsOvercommittedArbitration) {
  const datacenter::CpuSpec cpu = datacenter::dual_core_2ghz();  // 4 GHz max
  const std::vector<double> demands = {1.0, 1.0};
  datacenter::ArbitrationResult result;
  result.frequency_ghz = 2.0;
  result.capacity_ghz = 4.0;
  result.saturated = false;
  result.allocations_ghz = {3.0, 3.0};  // 6 GHz granted on a 4 GHz budget
  EXPECT_THROW(datacenter::audit::arbitration(cpu, demands, result), CheckFailure);
}

TEST(DcAudit, RejectsUnderAllocationWhenUnsaturated) {
  const datacenter::CpuSpec cpu = datacenter::dual_core_2ghz();
  const std::vector<double> demands = {1.0, 1.0};
  datacenter::ArbitrationResult result;
  result.frequency_ghz = 2.0;
  result.capacity_ghz = 4.0;
  result.saturated = false;  // claims everyone got their demand...
  result.allocations_ghz = {1.0, 0.5};  // ...but VM 1 did not
  EXPECT_THROW(datacenter::audit::arbitration(cpu, demands, result), CheckFailure);
  result.saturated = true;  // the same grants are legal under saturation
  EXPECT_NO_THROW(datacenter::audit::arbitration(cpu, demands, result));
}

TEST(DcAudit, RejectsFrequencyAboveLadder) {
  const datacenter::CpuSpec cpu = datacenter::dual_core_2ghz();
  const std::vector<double> demands = {1.0};
  datacenter::ArbitrationResult result;
  result.frequency_ghz = 3.5;  // ladder tops out at 2.0
  result.capacity_ghz = 4.0;
  result.allocations_ghz = {1.0};
  EXPECT_THROW(datacenter::audit::arbitration(cpu, demands, result), CheckFailure);
}

TEST(DcAudit, RejectsWrongSleepPower) {
  datacenter::Server server(datacenter::dual_core_2ghz(), datacenter::power_model_dual_2ghz(),
                            4096.0);
  server.set_state(datacenter::ServerState::kSleeping);
  const double sleep_w = server.power_model().sleep_w;
  EXPECT_NO_THROW(datacenter::audit::server_power(server, sleep_w));
  EXPECT_THROW(datacenter::audit::server_power(server, sleep_w + 5.0), CheckFailure);
}

TEST(DcAudit, RejectsActivePowerOutsideEnvelope) {
  datacenter::Server server(datacenter::dual_core_2ghz(), datacenter::power_model_dual_2ghz(),
                            4096.0);
  ASSERT_TRUE(server.active());
  const datacenter::PowerModel& model = server.power_model();
  EXPECT_NO_THROW(datacenter::audit::server_power(server, model.max_power_w()));
  EXPECT_THROW(datacenter::audit::server_power(server, model.max_power_w() + 10.0), CheckFailure);
  EXPECT_THROW(datacenter::audit::server_power(server, model.sleep_w - 10.0), CheckFailure);
}

// ---- consolidate::audit -----------------------------------------------------

consolidate::DataCenterSnapshot two_server_snapshot() {
  consolidate::DataCenterSnapshot snap;
  consolidate::ServerSnapshot s0;
  s0.id = 0;
  s0.max_capacity_ghz = 4.0;
  s0.memory_mb = 4096.0;
  s0.active = true;
  s0.hosted = {0};
  consolidate::ServerSnapshot s1 = s0;
  s1.id = 1;
  s1.max_capacity_ghz = 12.0;
  s1.memory_mb = 8192.0;
  s1.hosted = {1};
  snap.servers = {s0, s1};
  snap.vms = {consolidate::VmSnapshot{0, 1.0, 1024.0},
              consolidate::VmSnapshot{1, 5.0, 1024.0}};
  return snap;
}

TEST(ConsolidateAudit, AcceptsFeasiblePlan) {
  const consolidate::DataCenterSnapshot snap = two_server_snapshot();
  const consolidate::ConstraintSet constraints = consolidate::ConstraintSet::standard(1.0);
  consolidate::PlacementPlan plan;
  plan.moves.push_back(consolidate::Move{0, 0, 1});  // 1 GHz onto the 12 GHz box
  EXPECT_NO_THROW(consolidate::audit::plan(snap, plan, constraints));
}

TEST(ConsolidateAudit, RejectsPlanOverloadingReceiver) {
  const consolidate::DataCenterSnapshot snap = two_server_snapshot();
  const consolidate::ConstraintSet constraints = consolidate::ConstraintSet::standard(1.0);
  consolidate::PlacementPlan plan;
  plan.moves.push_back(consolidate::Move{1, 1, 0});  // 5 GHz onto the 4 GHz box
  EXPECT_THROW(consolidate::audit::plan(snap, plan, constraints), CheckFailure);
}

TEST(ConsolidateAudit, RejectsStaleMoveSource) {
  const consolidate::DataCenterSnapshot snap = two_server_snapshot();
  const consolidate::ConstraintSet constraints = consolidate::ConstraintSet::standard(1.0);
  consolidate::PlacementPlan plan;
  plan.moves.push_back(consolidate::Move{0, 1, 1});  // VM 0 actually lives on server 0
  EXPECT_THROW(consolidate::audit::plan(snap, plan, constraints), CheckFailure);
}

TEST(ConsolidateAudit, RejectsDoubleMove) {
  const consolidate::DataCenterSnapshot snap = two_server_snapshot();
  const consolidate::ConstraintSet constraints = consolidate::ConstraintSet::standard(1.0);
  consolidate::PlacementPlan plan;
  plan.moves.push_back(consolidate::Move{0, 0, 1});
  plan.moves.push_back(consolidate::Move{0, 1, 0});
  EXPECT_THROW(consolidate::audit::plan(snap, plan, constraints), CheckFailure);
}

TEST(ConsolidateAudit, RejectsMovedAndUnplacedVm) {
  const consolidate::DataCenterSnapshot snap = two_server_snapshot();
  const consolidate::ConstraintSet constraints = consolidate::ConstraintSet::standard(1.0);
  consolidate::PlacementPlan plan;
  plan.moves.push_back(consolidate::Move{0, 0, 1});
  plan.unplaced.push_back(0);
  EXPECT_THROW(consolidate::audit::plan(snap, plan, constraints), CheckFailure);
}

TEST(ConsolidateAudit, RejectsNonCandidateMinSlackSelection) {
  const consolidate::DataCenterSnapshot snap = two_server_snapshot();
  const consolidate::WorkingPlacement placement(snap);
  const consolidate::ConstraintSet constraints = consolidate::ConstraintSet::standard(1.0);
  const std::vector<consolidate::VmId> candidates = {0};
  const std::vector<consolidate::VmId> empty = {};
  EXPECT_NO_THROW(consolidate::audit::min_slack_selection(placement, 1, candidates, constraints,
                                                          empty));
  const std::vector<consolidate::VmId> not_a_candidate = {1};
  EXPECT_THROW(consolidate::audit::min_slack_selection(placement, 1, candidates, constraints,
                                                       not_a_candidate),
               CheckFailure);
}

TEST(ConsolidateAudit, RejectsStalePlanningModel) {
  datacenter::Cluster cluster;
  cluster.add_server(datacenter::Server(datacenter::dual_core_1_5ghz(),
                                        datacenter::power_model_dual_1_5ghz(), 12288.0));
  cluster.add_server(datacenter::Server(datacenter::quad_core_3ghz(),
                                        datacenter::power_model_quad_3ghz(), 32768.0));
  datacenter::Vm vm;
  vm.cpu_demand_ghz = 1.0;
  cluster.add_vm(vm, 0);
  consolidate::PlanningModel model;
  model.refresh(cluster);
  EXPECT_NO_THROW(
      consolidate::audit::planning_model(model.snapshot(), model.efficiency_order(), cluster));
  // The cluster moves on without a refresh: a changed demand, a crash.
  cluster.vm(0).cpu_demand_ghz = 1.5;
  EXPECT_THROW(
      consolidate::audit::planning_model(model.snapshot(), model.efficiency_order(), cluster),
      CheckFailure);
  model.refresh(cluster);
  (void)cluster.fail_server(0);
  EXPECT_THROW(
      consolidate::audit::planning_model(model.snapshot(), model.efficiency_order(), cluster),
      CheckFailure);
  // A cached order that is not the efficiency order.
  model.refresh(cluster);
  const std::vector<consolidate::ServerId> wrong_order = {0, 1};
  EXPECT_THROW(consolidate::audit::planning_model(model.snapshot(), wrong_order, cluster),
               CheckFailure);
}

// ---- control::audit ---------------------------------------------------------

TEST(ControlAudit, AcceptsFeasibleOptimalQpSolution) {
  const linalg::Matrix hessian = linalg::Matrix::identity(2);
  const std::vector<double> gradient = {0.0, 0.0};
  const linalg::Matrix m_ineq = linalg::Matrix::identity(2);
  const std::vector<double> gamma = {1.0, 1.0};
  linalg::QpResult qp;
  qp.converged = true;
  qp.x = {0.0, 0.0};  // the unconstrained (and feasible) minimizer
  EXPECT_NO_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false));
}

TEST(ControlAudit, RejectsPrimalInfeasibleQpSolution) {
  const linalg::Matrix hessian = linalg::Matrix::identity(2);
  const std::vector<double> gradient = {0.0, 0.0};
  const linalg::Matrix m_ineq = linalg::Matrix::identity(2);
  const std::vector<double> gamma = {-1.0, -1.0};  // requires x <= -1
  linalg::QpResult qp;
  qp.converged = true;
  qp.x = {0.0, 0.0};  // violates both rows by a full unit
  EXPECT_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false),
               CheckFailure);
}

TEST(ControlAudit, RejectsSuboptimalQpSolution) {
  const linalg::Matrix hessian = linalg::Matrix::identity(2);
  const std::vector<double> gradient = {0.0, 0.0};
  const linalg::Matrix m_ineq = linalg::Matrix::identity(2);
  const std::vector<double> gamma = {1.0, 1.0};
  linalg::QpResult qp;
  qp.converged = true;
  qp.x = {0.5, 0.5};  // feasible but J = 0.25 > 0 = J(zero move)
  EXPECT_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false),
               CheckFailure);
  // With an eliminated equality block the zero move is not feasible, so the
  // optimality bound is waived.
  EXPECT_NO_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, true));
}

TEST(ControlAudit, RejectsPrimalResidualFarAboveRounding) {
  // A 1e-6 violation is far above rounding: the audit judges the exact
  // solver's results at 1e-8 relative to each row's scale.
  const linalg::Matrix hessian = linalg::Matrix::identity(2);
  const std::vector<double> gradient = {-1.0, -1.0};
  const linalg::Matrix m_ineq = linalg::Matrix::identity(2);
  const std::vector<double> gamma = {0.5, 0.5};
  linalg::QpResult qp;
  qp.converged = true;
  qp.x = {0.5 + 1e-6, 0.5};
  qp.active = {0, 1};
  qp.multipliers = {0.5, 0.5};
  EXPECT_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false),
               CheckFailure);
  qp.x = {0.5, 0.5};  // the optimum, both rows tight
  EXPECT_NO_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false));
}

TEST(ControlAudit, RejectsNegativeMultiplier) {
  const linalg::Matrix hessian = linalg::Matrix::identity(2);
  const std::vector<double> gradient = {-1.0, -1.0};
  const linalg::Matrix m_ineq = linalg::Matrix::identity(2);
  const std::vector<double> gamma = {0.5, 0.5};
  linalg::QpResult qp;
  qp.converged = true;
  qp.x = {0.5, 0.5};
  qp.active = {0, 1};
  qp.multipliers = {0.5, -0.5};
  EXPECT_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false),
               CheckFailure);
  qp.multipliers = {0.5};  // one multiplier short of the active rows
  EXPECT_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false),
               CheckFailure);
}

TEST(ControlAudit, RejectsActiveRowThatIsNotTight) {
  // Complementarity: a row with a positive multiplier must sit on its bound.
  const linalg::Matrix hessian = linalg::Matrix::identity(2);
  const std::vector<double> gradient = {-1.0, -1.0};
  const linalg::Matrix m_ineq = linalg::Matrix::identity(2);
  const std::vector<double> gamma = {0.5, 0.5};
  linalg::QpResult qp;
  qp.converged = true;
  qp.x = {0.4, 0.5};
  qp.active = {0, 1};
  qp.multipliers = {0.6, 0.5};
  EXPECT_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false),
               CheckFailure);
  qp.multipliers = {0.0, 0.5};  // a zero multiplier asks nothing of its row
  EXPECT_NO_THROW(control::audit::qp_solution(hessian, gradient, m_ineq, gamma, qp, false));
}

TEST(ControlAudit, IgnoresUnconvergedQpSolution) {
  const linalg::Matrix hessian = linalg::Matrix::identity(1);
  const std::vector<double> gradient = {0.0};
  linalg::QpResult qp;  // converged = false: fallback paths handle this
  qp.x = {1e9};
  EXPECT_NO_THROW(
      control::audit::qp_solution(hessian, gradient, linalg::Matrix(), {}, qp, false));
}

TEST(ControlAudit, RejectsAllocationOutsideActuatorBox) {
  const std::vector<double> c_min = {0.5, 0.5};
  const std::vector<double> c_max = {2.0, 2.0};
  const std::vector<double> inside = {1.0, 2.0};
  EXPECT_NO_THROW(control::audit::allocation_bounds(inside, c_min, c_max));
  const std::vector<double> above = {1.0, 2.5};
  EXPECT_THROW(control::audit::allocation_bounds(above, c_min, c_max), CheckFailure);
  const std::vector<double> below = {0.25, 1.0};
  EXPECT_THROW(control::audit::allocation_bounds(below, c_min, c_max), CheckFailure);
}

// ---- app::audit -------------------------------------------------------------

TEST(AppAudit, RejectsLostRequests) {
  EXPECT_NO_THROW(app::audit::request_conservation(10, 7, 3));
  EXPECT_THROW(app::audit::request_conservation(10, 5, 3), CheckFailure);   // 2 lost
  EXPECT_THROW(app::audit::request_conservation(10, 8, 3), CheckFailure);   // 1 double-counted
}

TEST(AppAudit, RejectsUnphysicalMvaResult) {
  app::MvaResult result;
  result.throughput_rps = 1.0;
  result.response_time_s = 0.5;
  result.stations = {app::MvaStation{0.5, 0.5, 1.5}};  // utilization 1.5 > 1
  EXPECT_THROW(app::audit::mva_result(result, 4, 1.0), CheckFailure);
}

TEST(AppAudit, RejectsMvaPopulationOverflow) {
  app::MvaResult result;
  result.throughput_rps = 3.0;
  result.response_time_s = 0.5;
  result.stations = {app::MvaStation{0.5, 2.5, 0.9}};  // 2.5 queued + 3.0 thinking > 4
  EXPECT_THROW(app::audit::mva_result(result, 4, 1.0), CheckFailure);
}

#else

TEST(Audit, ChecksDisabledInThisBuild) { SUCCEED(); }

#endif  // VDC_CHECKS_ENABLED

}  // namespace
}  // namespace vdc
