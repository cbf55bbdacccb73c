#include "consolidate/minimum_slack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "check/consolidate_audit.hpp"

namespace vdc::consolidate {

namespace {

// The fast engine for Algorithm 1. Eight changes against the test-only
// reference (naive::minimum_slack), all of them *plan-exact*: the engine
// returns the same selection as the reference for every input, including
// when the step budget binds and epsilon escalates mid-search.
//
//  * Branch-and-bound pruning: candidates are sorted by descending demand,
//    so a suffix sum bounds the demand any subtree can still pack. When
//    even packing the entire suffix cannot beat the incumbent slack, the
//    subtree is abandoned — no improving node is ever pruned. Skipping a
//    subtree skips its step counts, though, which would shift epsilon
//    escalation under a binding budget, so the bound is armed only when
//    the whole search provably fits inside the initial budget (a search
//    over n candidates attempts at most 2^n - 1 placements): then
//    escalation cannot fire and pruning is unobservable.
//
//  * O(1) admission for builtin-only constraint sets: the CPU/memory sums
//    are maintained incrementally alongside the selection instead of being
//    re-summed through the polymorphic constraint chain at every node. The
//    builtin search runs as an explicit-stack loop over contiguous
//    demand/memory mirrors of the candidate list, keeping the whole DFS
//    state in registers and one scratch array. Custom constraints fall
//    back to the generic recursive evaluation, on the placement's cached
//    resident-pointer list (no per-step allocation).
//
//  * Unfittable-prefix jump: within a level, every candidate too large for
//    the remaining raw slack forms a contiguous run (descending demand
//    order), and the reference engine touches each as one counted step
//    with no other effect. The fast engine binary-searches past the run
//    and adds the skipped count in bulk, landing exactly on any budget
//    threshold in between so escalation fires at the same logical step.
//
//  * Target-band jump: below a utilisation target (0.8 in the paper's
//    simulation) the candidates that fit the raw slack but push the server
//    past its CPU limit form a second contiguous run, because the limit
//    test (base + selected) + d is monotone in d. Each is again one counted
//    step with no other effect — a symmetry skip inside the run costs the
//    same one step, and tail collapse cannot fire on it since suffix[i] >=
//    d — so the engine jumps it the same way. With branch-and-bound armed
//    the run is walked candidate by candidate instead, so the bound's exits
//    inside it (and with them the reported step count) stay where they were.
//
//  * Dead-level shortcut: after a selection, when the smallest remaining
//    candidate already fails the raw slack or the CPU limit (or the smallest
//    remaining memory fails the memory limit), the level below rejects every
//    candidate, one counted step each. The engine consumes those steps in
//    bulk and moves to the next sibling without descending: most selections
//    near the target are leaves of this kind, and each used to cost three
//    loop iterations (descend, reject run, pop).
//
//  * Dead runs: the siblings that follow such a leaf are mostly leaves of
//    the same kind, and none of them can improve the incumbent (their
//    demand is no larger). One tight pass takes every following sibling
//    whose selection also leaves the level below dead — n - j counted
//    steps for sibling j — plus the symmetric and memory-rejected siblings
//    among them, one step each, and stops at the first sibling the
//    per-candidate loop must handle. Every test in the pass is the loop's
//    own expression on the loop's own values: the reference restores its
//    selection sum with += d ... -= d, which drifts by ulps, so the pass
//    replays (sel + d) - d for each sibling it selects. Nothing in the run
//    changes the incumbent, so one consume lands on every escalation
//    threshold the per-sibling steps would have crossed.
//
//  * All-fits tail collapse: once every remaining candidate fits together
//    (CPU, memory and raw slack all hold for the full tail, with a safety
//    margin), the reference engine's behaviour in that subtree is closed
//    form. Its first descent selects the whole tail, improving the
//    incumbent at every step; every other node is a strict subset of the
//    tail, worse by at least the smallest demand, so it is one counted
//    step with no effect. The fast engine simulates the descent explicitly
//    (m attempts, exact floating-point order) and adds the remaining
//    2^m - 1 - m attempts in bulk through the same escalation ladder. This
//    is what makes budget-exhausted relief searches cheap: the exponential
//    churn near the leaves — where tails fit — never runs node by node.
//    Guards: no equal-demand/memory sibling pair in the tail (a symmetry
//    skip would change the attempt count) and a minimum tail demand (so
//    subset slacks cannot tie the incumbent within its 1e-12 margin).
//
//  * Sorted once: the search reads a CandidateSet — the sorted order, its
//    demand/memory mirrors and suffix arrays — and works in the set's
//    selection stack. PAC builds one set per call and erases each
//    selection from it by position, so the many calls of one PAC walk sort
//    nothing, never re-read the snapshot and allocate nothing.

/// The set's arrays as the search reads them.
struct Mirrors {
  std::size_t n;
  const VmId* order;
  const double* demand_ghz;
  const double* memory_mb;
  const double* suffix;
  const double* msuffix;
  const double* msuffix_min;
  const char* dupfree;
};

/// Builtin-only search: explicit-stack DFS over the set's mirrors.
/// Mirrors the generic recursion exactly — same visit order, same step
/// accounting, same escalation points — with all hot state in locals.
void search_builtin(const Mirrors& c, std::size_t* const stk, MinSlackResult& best,
                    const MinSlackOptions& options, bool bnb, double cap_minus_base,
                    double base_demand_ghz, double base_memory_mb, bool check_cpu,
                    double cpu_limit, bool check_memory, double memory_limit_mb) {
  const std::size_t n = c.n;
  const double* const demand_of = c.demand_ghz;
  const double* const memory_of = c.memory_mb;
  const double* const suffix = c.suffix;
  const double* const msuffix = c.msuffix;
  const double* const msuffix_min = c.msuffix_min;
  const char* const dupfree = c.dupfree;
  const VmId* const order = c.order;

  double epsilon = options.epsilon_ghz;
  std::size_t budget = options.step_budget;
  std::size_t steps = 0;
  std::size_t escalations = 0;
  double best_slack = best.slack_ghz;

  // Consume `count` placement attempts against the step budget, escalating
  // epsilon at every threshold exactly where the reference engine would
  // (lines 15-17 of Algorithm 1). Returns true when the search must stop.
  const auto consume = [&](std::size_t count) -> bool {
    while (count > 0) {
      if (steps < budget) {
        const std::size_t room = budget - steps;
        if (count < room) {
          steps += count;
          return false;
        }
        steps = budget;  // land on the threshold, exactly like ++steps would
        count -= room;
      } else {
        ++steps;  // degenerate zero budget: every attempt escalates
        --count;
      }
      if (escalations >= options.max_escalations) return true;
      ++escalations;
      epsilon *= options.epsilon_escalation;
      budget += options.step_budget;
      if (best_slack < epsilon) return true;
    }
    return false;
  };

  // After selecting candidate k with these selection sums: does the level
  // below reject every candidate? It does when even the smallest remaining
  // candidate fails the raw slack or the CPU limit, or the smallest
  // remaining memory fails the memory limit (all three tests are monotone).
  const auto level_below_dead = [&](std::size_t k, double with_ghz, double with_mb) {
    return k + 1 >= n || demand_of[n - 1] > cap_minus_base - with_ghz + 1e-9 ||
           (check_cpu && base_demand_ghz + with_ghz + demand_of[n - 1] > cpu_limit + 1e-9) ||
           (check_memory && base_memory_mb + with_mb + msuffix_min[k + 1] > memory_limit_mb + 1e-9);
  };

  // Tail-collapse precondition: strict-subset selections of an all-fits
  // tail are worse than the full tail by at least the smallest demand, so
  // they can never improve the incumbent past its 1e-12 margin.
  const bool tail_gap = n > 0 && demand_of[n - 1] >= 1e-6;
  constexpr double kCpuMargin = 1e-6;  // dominates suffix-sum rounding (GHz)
  constexpr double kMemMargin = 1e-3;  // dominates suffix-sum rounding (MB)

  double sel_demand = 0.0;
  double sel_memory = 0.0;
  std::size_t depth = 0;
  std::size_t start = 0;
  std::size_t i = 0;

  while (true) {
    // Leave this level when the candidates are exhausted, or when the
    // (armed) branch-and-bound holds: any completion from here adds at
    // most suffix[i] of demand, so its slack is at least slack -
    // suffix[i]; if that cannot undercut the incumbent there is no
    // improving node in this subtree, and since suffix[] is
    // non-increasing, none in any later sibling either.
    if (i >= n || (bnb && cap_minus_base - sel_demand - suffix[i] >= best_slack)) {
      if (depth == 0) break;
      --depth;
      i = stk[depth];
      sel_demand -= demand_of[i];
      sel_memory -= memory_of[i];
      start = depth == 0 ? 0 : stk[depth - 1] + 1;
      ++i;
      continue;
    }
    // A "step" is one candidate-placement attempt (the unit of work).
    if (++steps >= budget) {  // lines 15-17 of Algorithm 1: escalate epsilon
      if (escalations >= options.max_escalations) break;
      ++escalations;
      epsilon *= options.epsilon_escalation;
      budget += options.step_budget;
      if (best_slack < epsilon) break;
    }
    const double demand = demand_of[i];
    const double memory = memory_of[i];
    // Symmetry pruning (standard MBS): identical siblings explore
    // identical subtrees — try only the first of an equal run per level.
    // vdc-lint: float-eq-ok identical VMs are grouped by bitwise equality of their stored demand/memory; the values are copies, never recomputed
    if (i > start && demand_of[i - 1] == demand && memory_of[i - 1] == memory) {
      ++i;
      continue;
    }
    // CPU-slack bound: a VM larger than the remaining raw-capacity slack
    // would push total demand past the server's capacity, which can only
    // worsen the slack objective. The candidates are sorted by descending
    // demand, so the whole unfittable run is a contiguous prefix — jump
    // over it with a binary search instead of paying one loop iteration
    // per candidate. The reference engine touches each skipped candidate
    // as one counted step with no other effect (nothing can select or
    // improve the incumbent), so the skipped count is added in bulk,
    // stopping exactly on any budget threshold in between: epsilon
    // escalation fires at the same logical step as in the reference, and
    // with the incumbent unchanged across the run its exit decisions are
    // identical too.
    const double fit_limit = cap_minus_base - sel_demand + 1e-9;
    if (demand > fit_limit) {
      const std::size_t next = static_cast<std::size_t>(
          std::partition_point(demand_of + i, demand_of + n,
                               [&](double d) { return d > fit_limit; }) -
          demand_of);
      if (consume(next - i - 1)) break;  // candidate i was already counted
      i = next;
      continue;
    }
    // Target-band jump: candidate i fits the raw slack but not the CPU
    // limit, and so does every later candidate up to the first whose demand
    // brings (base + selected) + demand back under the limit — the sum is
    // monotone in demand, so the binary search uses the per-candidate test
    // verbatim. Each band candidate is one counted step with no other
    // effect (tail collapse cannot fire on it: suffix[i] >= demand), so the
    // run is consumed in bulk exactly like the unfittable prefix. Checking
    // the limit ahead of the tail collapse is therefore equivalent to
    // checking it after.
    if (check_cpu && base_demand_ghz + sel_demand + demand > cpu_limit + 1e-9) {
      if (bnb) {  // armed B&B prunes inside the band at the loop top
        ++i;
        continue;
      }
      const std::size_t next = static_cast<std::size_t>(
          std::partition_point(demand_of + i + 1, demand_of + n,
                               [&](double d) {
                                 return base_demand_ghz + sel_demand + d > cpu_limit + 1e-9;
                               }) -
          demand_of);
      if (consume(next - i - 1)) break;  // candidate i was already counted
      i = next;
      continue;
    }
    // All-fits tail collapse: the whole remaining tail packs together, so
    // the reference engine's exploration from here — at this level and
    // below — is its first descent (select the entire tail, improving at
    // every step) followed by 2^m - 1 - m further counted attempts, none
    // of which select or improve. Simulate the descent in the reference's
    // exact floating-point order, bulk-consume the rest, and exhaust the
    // level. Candidate i's step and symmetry check already ran above.
    if (suffix[i] <= cap_minus_base - sel_demand - kCpuMargin && !bnb && tail_gap &&
        i + 2 <= n && dupfree[i] &&
        (!check_cpu || base_demand_ghz + sel_demand + suffix[i] <= cpu_limit - kCpuMargin) &&
        (!check_memory ||
         base_memory_mb + sel_memory + msuffix[i] <= memory_limit_mb - kMemMargin)) {
      const std::size_t m = n - i;
      const std::size_t root_depth = depth;
      std::size_t pending = 0;  // deferred incumbent copy: best == stk[0..pending)
      bool terminated = false;
      for (std::size_t k = i; k < n; ++k) {
        if (k != i && consume(1)) {  // candidate i's attempt was counted above
          terminated = true;
          break;
        }
        stk[depth++] = k;
        sel_demand += demand_of[k];
        sel_memory += memory_of[k];
        const double slack_now = cap_minus_base - sel_demand;
        if (slack_now < best_slack - 1e-12) {
          best_slack = slack_now;
          pending = depth;
        }
        if (best_slack < epsilon) {
          terminated = true;
          break;
        }
      }
      if (!terminated) {
        const std::size_t subsets = m >= 64 ? std::numeric_limits<std::size_t>::max()
                                            : (std::size_t{1} << m) - 1;
        terminated = consume(subsets - m);
      }
      if (pending > 0) {
        best.selected.resize(pending);
        for (std::size_t k = 0; k < pending; ++k) best.selected[k] = order[stk[k]];
      }
      if (terminated) break;
      while (depth > root_depth) {  // unwind the simulated descent
        --depth;
        sel_demand -= demand_of[stk[depth]];
        sel_memory -= memory_of[stk[depth]];
      }
      i = n;  // level exhausted: the pop branch returns to the parent
      continue;
    }
    if (check_memory && base_memory_mb + sel_memory + memory > memory_limit_mb + 1e-9) {
      // Memory-reject run: successive candidates that fit the CPU slack but
      // not the server's memory are each one counted step with no other
      // effect in the reference engine — they cannot select or improve, and
      // a symmetry skip inside the run costs the same one step (its equal
      // predecessor rejects on memory, so it would too). Memory is not
      // sorted, so the run is scanned, but with a tight three-op loop
      // instead of the full per-candidate dispatch; its steps are consumed
      // in bulk, landing exactly on any escalation threshold inside. Later
      // candidates have smaller demand, so the CPU checks that admitted
      // candidate i still hold across the whole run.
      if (bnb) {  // armed B&B prunes inside reject runs at the loop top
        ++i;
        continue;
      }
      const std::size_t run_start = i;
      ++i;
      // Most reject runs reach the end of the candidate list (deep nodes
      // have little memory room left). When even the smallest remaining
      // memory rejects, the whole tail does — the comparison uses the same
      // expression shape as the per-candidate check and min is exact, so
      // monotonicity makes the jump safe without any extra margin.
      if (i < n && base_memory_mb + sel_memory + msuffix_min[i] > memory_limit_mb + 1e-9) {
        i = n;
      } else {
        while (i < n && base_memory_mb + sel_memory + memory_of[i] > memory_limit_mb + 1e-9) ++i;
      }
      if (consume(i - run_start - 1)) break;
      continue;
    }
    stk[depth++] = i;  // line 2 of Algorithm 1: pack VM into S
    sel_demand += demand;
    sel_memory += memory;
    const double slack_now = cap_minus_base - sel_demand;  // lines 11-14
    if (slack_now < best_slack - 1e-12) {
      best_slack = slack_now;
      best.selected.resize(depth);
      for (std::size_t k = 0; k < depth; ++k) best.selected[k] = order[stk[k]];
    }
    if (best_slack < epsilon) break;  // lines 4-5: good-enough fit
    // Dead-level shortcut: when even the smallest remaining candidate fails
    // the raw slack or the CPU limit, or the smallest remaining memory
    // fails the memory limit, every candidate of the level below is
    // rejected by those same tests (all monotone; tail collapse cannot fire
    // on a rejected candidate). Descending would pay one counted step per
    // candidate and then pop back here, so consume the steps in bulk and
    // move on to candidate i + 1 directly. Armed branch-and-bound could exit
    // the level below early, so it keeps the explicit descent.
    if (!bnb && level_below_dead(i, sel_demand, sel_memory)) {
      --depth;  // line 9 of Algorithm 1: remove VM from S
      sel_demand -= demand;
      sel_memory -= memory;
      // Dead run: take the following siblings in one pass while each is a
      // symmetry skip or a memory reject (one counted step) or a selection
      // that leaves the level below dead (n - j steps), and stop at the
      // first sibling that is none of these — it is left to the loop,
      // uncounted. The tests are the loop's own, in its order and on its
      // values; the selection sum replays the loop's (sel + d) - d drift.
      // Siblings fit the raw slack and the CPU limit because candidate i
      // did, but a drifted sum could in principle flip that at the margin,
      // so both stay checked, as does the incumbent (no sibling beats i's
      // slack by more than the drift). Tail collapse cannot fire on a
      // memory reject (its tail test includes the candidate's own memory)
      // nor on a dead selection (its margins of 1e-6 GHz and 1e-3 MB
      // contradict the dead tests' 1e-9). So the loop would take exactly
      // these steps with no other effect, and one consume replays them.
      std::size_t count = n - i - 1;
      const double improve_below = best_slack - 1e-12;
      std::size_t j = i + 1;
      for (; j < n; ++j) {
        const double dj = demand_of[j];
        const double mj = memory_of[j];
        // vdc-lint: float-eq-ok identical VMs are grouped by bitwise equality of their stored demand/memory; the values are copies, never recomputed
        if (demand_of[j - 1] == dj && memory_of[j - 1] == mj) {
          ++count;  // symmetry skip
          continue;
        }
        if (dj > cap_minus_base - sel_demand + 1e-9) break;
        if (check_cpu && base_demand_ghz + sel_demand + dj > cpu_limit + 1e-9) break;
        if (check_memory && base_memory_mb + sel_memory + mj > memory_limit_mb + 1e-9) {
          ++count;  // memory reject
          continue;
        }
        const double with_demand = sel_demand + dj;
        const double with_memory = sel_memory + mj;
        if (cap_minus_base - with_demand < improve_below) break;
        if (!level_below_dead(j, with_demand, with_memory)) break;  // the loop descends
        count += n - j;
        sel_demand = with_demand - dj;
        sel_memory = with_memory - mj;
      }
      if (consume(count)) break;
      i = j;
      continue;
    }
    start = i + 1;  // line 7: recurse on the remaining VMs
    i = start;
  }

  best.slack_ghz = best_slack;
  best.steps = steps;
  best.escalations = escalations;
}

/// Generic recursion for constraint sets with custom constraints: identical
/// search shape, admission through the polymorphic chain.
struct GenericSearch {
  const DataCenterSnapshot* snapshot;
  const ServerSnapshot* server;
  const ConstraintSet* constraints;
  const Mirrors* c;
  std::vector<const VmSnapshot*>* resident;  // existing + selected
  std::vector<VmId>* selected;
  double base_demand_ghz = 0.0;
  double selected_demand_ghz = 0.0;

  MinSlackResult best;
  double epsilon;
  std::size_t budget;
  const MinSlackOptions* options;
  bool bnb = false;
  bool done = false;

  [[nodiscard]] double slack() const noexcept {
    return server->max_capacity_ghz - base_demand_ghz - selected_demand_ghz;
  }

  void consider_current() {
    const double sl = slack();
    if (sl < best.slack_ghz - 1e-12) {
      best.slack_ghz = sl;
      best.selected = *selected;
    }
    if (best.slack_ghz < epsilon) done = true;  // line 4-5 of Algorithm 1
  }

  void dfs(std::size_t start) {
    if (done) return;
    for (std::size_t i = start; i < c->n; ++i) {
      if (done) return;
      if (bnb && slack() - c->suffix[i] >= best.slack_ghz) return;  // branch-and-bound
      ++best.steps;
      if (best.steps >= budget) {  // lines 15-17: escalate epsilon
        if (best.escalations >= options->max_escalations) {
          done = true;
          return;
        }
        ++best.escalations;
        epsilon *= options->epsilon_escalation;
        budget += options->step_budget;
        if (best.slack_ghz < epsilon) {
          done = true;
          return;
        }
      }
      const double demand = c->demand_ghz[i];
      // vdc-lint: float-eq-ok identical VMs are grouped by bitwise equality of their stored demand/memory; the values are copies, never recomputed
      if (i > start && c->demand_ghz[i - 1] == demand && c->memory_mb[i - 1] == c->memory_mb[i]) {
        continue;  // symmetry pruning
      }
      if (demand > slack() + 1e-9) continue;  // CPU-slack bound
      resident->push_back(&snapshot->vm(c->order[i]));  // line 2: pack VM into S
      if (constraints->admits(*server, *resident)) {    // line 3
        selected->push_back(c->order[i]);
        selected_demand_ghz += demand;
        consider_current();
        if (!done) dfs(i + 1);
        selected_demand_ghz -= demand;
        selected->pop_back();
      }
      resident->pop_back();  // line 9: remove VM from S
    }
  }
};

}  // namespace

void validate(const MinSlackOptions& options, std::string_view owner) {
  const auto reject = [&](const char* what) {
    throw std::invalid_argument(std::string(owner) + ": min_slack." + what);
  };
  if (!std::isfinite(options.epsilon_ghz) || !(options.epsilon_ghz > 0.0)) {
    reject("epsilon_ghz must be finite and > 0");
  }
  if (options.step_budget < 1) reject("step_budget must be >= 1");
  if (!std::isfinite(options.epsilon_escalation) || !(options.epsilon_escalation > 1.0)) {
    reject("epsilon_escalation must be finite and > 1");
  }
}

void CandidateSet::assign(const WorkingPlacement& placement, std::span<const VmId> vms) {
  const DataCenterSnapshot& snapshot = placement.snapshot();
  for (const VmId vm : vms) {
    if (placement.host_of(vm) != datacenter::kNoServer) {
      throw std::invalid_argument("minimum_slack: candidate VM is already placed");
    }
  }
  snapshot_ = &snapshot;
  order_.assign(vms.begin(), vms.end());
  std::sort(order_.begin(), order_.end(), [&](VmId a, VmId b) {
    const double da = snapshot.vm(a).cpu_demand_ghz;
    const double db = snapshot.vm(b).cpu_demand_ghz;
    // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
    if (da != db) return da > db;
    return a < b;
  });
  demand_of_.resize(order_.size());
  memory_of_.resize(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const VmSnapshot& info = snapshot.vm(order_[i]);
    demand_of_[i] = info.cpu_demand_ghz;
    memory_of_[i] = info.memory_mb;
  }
  rebuild_suffixes();
}

void CandidateSet::erase(std::span<const VmId> selected) {
  if (selected.empty()) return;
  // A selection lists its VMs in set order, so one forward scan finds
  // their positions; the set is left alone unless all are found.
  erased_.clear();
  for (std::size_t i = 0; i < order_.size() && erased_.size() < selected.size(); ++i) {
    if (order_[i] == selected[erased_.size()]) erased_.push_back(i);
  }
  if (erased_.size() != selected.size()) {
    throw std::invalid_argument("CandidateSet::erase: selection is not a subsequence of the set");
  }
  std::size_t kept = erased_.front();
  std::size_t next = 0;
  for (std::size_t i = kept; i < order_.size(); ++i) {
    if (next < erased_.size() && erased_[next] == i) {
      ++next;
      continue;
    }
    order_[kept] = order_[i];
    demand_of_[kept] = demand_of_[i];
    memory_of_[kept] = memory_of_[i];
    ++kept;
  }
  order_.resize(kept);
  demand_of_.resize(kept);
  memory_of_.resize(kept);
  rebuild_suffixes();
}

double CandidateSet::smallest_demand_ghz() const noexcept {
  return demand_of_.empty() ? std::numeric_limits<double>::infinity() : demand_of_.back();
}

/// Recomputes the suffix sums, suffix minimum and duplicate flags from the
/// demand/memory mirrors, back to front: the one summation order, so a set
/// that had entries erased and one built afresh agree to the bit.
void CandidateSet::rebuild_suffixes() {
  const std::size_t count = order_.size();
  suffix_.resize(count + 1);
  msuffix_.resize(count + 1);
  msuffix_min_.resize(count + 1);
  dupfree_.resize(count + 1);
  suffix_[count] = 0.0;
  msuffix_[count] = 0.0;
  msuffix_min_[count] = std::numeric_limits<double>::infinity();
  dupfree_[count] = 1;
  for (std::size_t i = count; i-- > 0;) {
    suffix_[i] = suffix_[i + 1] + demand_of_[i];
    msuffix_[i] = msuffix_[i + 1] + memory_of_[i];
    msuffix_min_[i] = std::min(msuffix_min_[i + 1], memory_of_[i]);
    // Exact neighbour comparison: equal (demand, memory) sort keys are
    // bitwise-identical copies of snapshot values.
    dupfree_[i] = dupfree_[i + 1] &&
                  (i + 1 >= count || demand_of_[i] != demand_of_[i + 1] ||
                   memory_of_[i] != memory_of_[i + 1]);
  }
}

MinSlackResult minimum_slack(const WorkingPlacement& placement, ServerId server,
                             std::span<const VmId> candidates,
                             const ConstraintSet& constraints, const MinSlackOptions& options) {
  if (server >= placement.snapshot().servers.size()) {
    throw std::out_of_range("minimum_slack: server id");
  }
  thread_local CandidateSet set;
  set.assign(placement, candidates);
  return minimum_slack(placement, server, set, constraints, options);
}

MinSlackResult minimum_slack(const WorkingPlacement& placement, ServerId server,
                             CandidateSet& candidates,
                             const ConstraintSet& constraints, const MinSlackOptions& options) {
  const DataCenterSnapshot& snapshot = placement.snapshot();
  if (server >= snapshot.servers.size()) throw std::out_of_range("minimum_slack: server id");
  if (candidates.snapshot_ != &snapshot) {
    throw std::invalid_argument("minimum_slack: candidate set belongs to another snapshot");
  }
  const ServerSnapshot& target = snapshot.server(server);
  const std::size_t n = candidates.size();
  const Mirrors mirrors{n,
                        candidates.order_.data(),
                        candidates.demand_of_.data(),
                        candidates.memory_of_.data(),
                        candidates.suffix_.data(),
                        candidates.msuffix_.data(),
                        candidates.msuffix_min_.data(),
                        candidates.dupfree_.data()};

  const ConstraintSet::BuiltinProfile& profile = constraints.builtin_profile();
  const double base_demand_ghz = placement.cpu_demand_ghz(server);

  MinSlackResult best;
  best.slack_ghz = target.max_capacity_ghz - base_demand_ghz;  // empty selection baseline
  // A failed server admits nothing (ConstraintSet rejects it outright, and
  // the builtin path must match): the search cannot select, so skip it.
  // Likewise skip the search when the empty baseline is already within
  // epsilon (line 4-5 of Algorithm 1 on the root node).
  if (best.slack_ghz >= options.epsilon_ghz && !target.failed) {
    // Arm branch-and-bound only when the search provably cannot exhaust the
    // step budget (at most 2^n - 1 placement attempts over n candidates):
    // then epsilon never escalates and pruning cannot shift any decision.
    const bool bnb = n < 64 && (std::uint64_t{1} << n) - 1 <= options.step_budget;
    if (profile.all_builtin) {
      if (candidates.stack_.size() < n) candidates.stack_.resize(n);
      search_builtin(mirrors, candidates.stack_.data(), best, options, bnb,
                     target.max_capacity_ghz - base_demand_ghz, base_demand_ghz,
                     placement.memory_used_mb(server), profile.has_cpu,
                     constraints.cpu_limit_ghz(target), profile.has_memory, target.memory_mb);
    } else {
      GenericSearch state;
      state.snapshot = &snapshot;
      state.server = &target;
      state.constraints = &constraints;
      state.c = &mirrors;
      state.resident = &candidates.resident_;
      state.selected = &candidates.selected_;
      state.options = &options;
      state.bnb = bnb;
      state.epsilon = options.epsilon_ghz;
      state.budget = options.step_budget;
      state.base_demand_ghz = base_demand_ghz;
      state.best.slack_ghz = best.slack_ghz;
      const auto resident = placement.hosted_snapshots(server);
      candidates.resident_.assign(resident.begin(), resident.end());
      candidates.selected_.clear();
      state.dfs(0);
      best = std::move(state.best);
    }
  }
  audit::min_slack_selection(placement, server, candidates.vms(), constraints, best.selected);
  return best;
}

}  // namespace vdc::consolidate
