#include "consolidate/minimum_slack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "check/consolidate_audit.hpp"

namespace vdc::consolidate {

namespace {

// The fast engine for Algorithm 1. Seven changes against the test-only
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
//  * Scratch reuse: the candidate ordering, mirrors, suffix sums and the
//    selection stack live in thread-local buffers whose capacity persists
//    across calls — PAC calls Minimum Slack once per server visit, and the
//    allocation churn of fresh vectors per call used to rival the search
//    itself. The sorted ordering is reused across calls too: PAC drops the
//    selected VMs from its list order-preservingly, so the next call's
//    candidates are a subsequence of the previous call's and their sorted
//    order is the cached one with the dropped entries filtered out.
struct Scratch {
  std::vector<VmId> order;        // candidates, largest demand first
  std::vector<double> demand_of;  // demand_of[i] = demand of order[i]
  std::vector<double> memory_of;  // memory_of[i] = memory of order[i]
  std::vector<double> suffix;     // suffix[i] = total demand of order[i..]
  std::vector<double> msuffix;    // msuffix[i] = total memory of order[i..]
  std::vector<double> msuffix_min;  // msuffix_min[i] = smallest memory in order[i..]
  std::vector<char> dupfree;      // dupfree[i]: no equal-adjacent pair in order[i..]
  std::vector<std::size_t> stack; // selected candidate index per depth
  std::vector<const VmSnapshot*> resident;  // generic path: existing + selected
  std::vector<VmId> selected;               // generic path: current selection
  const DataCenterSnapshot* cached_snapshot = nullptr;  // sorted-order cache key
  std::vector<VmId> cached;                             // candidate span it was built from
  std::vector<VmId> dropped;                            // cached entries absent from a call
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Recomputes the suffix sums, suffix minimum and duplicate flags from the
/// demand/memory mirrors, back to front — the one summation order every
/// path uses, so a filtered cache and a fresh sort agree to the bit.
void rebuild_suffixes(Scratch& s) {
  const std::size_t count = s.order.size();
  s.suffix.resize(count + 1);
  s.msuffix.resize(count + 1);
  s.msuffix_min.resize(count + 1);
  s.dupfree.resize(count + 1);
  s.suffix[count] = 0.0;
  s.msuffix[count] = 0.0;
  s.msuffix_min[count] = std::numeric_limits<double>::infinity();
  s.dupfree[count] = 1;
  for (std::size_t i = count; i-- > 0;) {
    s.suffix[i] = s.suffix[i + 1] + s.demand_of[i];
    s.msuffix[i] = s.msuffix[i + 1] + s.memory_of[i];
    s.msuffix_min[i] = std::min(s.msuffix_min[i + 1], s.memory_of[i]);
    s.dupfree[i] = s.dupfree[i + 1] &&
                   // vdc-lint: float-eq-ok exact neighbor comparison detects duplicate (demand, memory) sort keys; equal keys are bitwise-identical copies
                   (i + 1 >= count || s.demand_of[i] != s.demand_of[i + 1] ||
                    // vdc-lint: float-eq-ok exact neighbor comparison detects duplicate (demand, memory) sort keys; equal keys are bitwise-identical copies
                    s.memory_of[i] != s.memory_of[i + 1]);
  }
}

/// Loads the sorted ordering of `candidates` from the previous call's cache
/// when that is exact, and reports whether it could. When the candidates
/// are a subsequence of the cached span, their sorted order is the cached
/// order without the dropped entries: the sort key (demand descending, then
/// id) is a total order. The filter drops by id, so it must keep exactly
/// one entry per candidate — it keeps fewer only when a dropped id also
/// remains a candidate (a duplicated id), and then the caller sorts afresh.
/// Every kept entry's mirrored demand and memory is checked against the
/// snapshot — a different snapshot at a recycled address, or mutated
/// demands, fail the check and force a full sort — at a fraction of the
/// sort's cost.
bool reuse_cached_order(Scratch& s, const DataCenterSnapshot& snapshot,
                        std::span<const VmId> candidates) {
  if (s.cached_snapshot != &snapshot || candidates.size() > s.cached.size()) return false;
  s.dropped.clear();
  std::size_t matched = 0;
  for (const VmId vm : s.cached) {
    if (matched < candidates.size() && vm == candidates[matched]) {
      ++matched;
    } else {
      s.dropped.push_back(vm);
    }
  }
  if (matched != candidates.size()) return false;  // not a subsequence
  std::sort(s.dropped.begin(), s.dropped.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    if (std::binary_search(s.dropped.begin(), s.dropped.end(), s.order[i])) continue;
    const VmSnapshot& info = snapshot.vm(s.order[i]);
    // vdc-lint: float-eq-ok cached demand/memory are verbatim copies of snapshot values, so bitwise inequality means the cache entry is stale
    if (s.demand_of[i] != info.cpu_demand_ghz || s.memory_of[i] != info.memory_mb) return false;
    s.order[kept] = s.order[i];
    s.demand_of[kept] = s.demand_of[i];
    s.memory_of[kept] = s.memory_of[i];
    ++kept;
  }
  if (kept != candidates.size()) return false;
  if (!s.dropped.empty()) {
    s.order.resize(kept);
    s.demand_of.resize(kept);
    s.memory_of.resize(kept);
    rebuild_suffixes(s);
    s.cached.assign(candidates.begin(), candidates.end());
  }
  return true;
}

/// Builtin-only search: explicit-stack DFS over the scratch mirrors.
/// Mirrors the generic recursion exactly — same visit order, same step
/// accounting, same escalation points — with all hot state in locals.
void search_builtin(Scratch& s, MinSlackResult& best, const MinSlackOptions& options,
                    bool bnb, double cap_minus_base, double base_demand_ghz, double base_memory_mb,
                    bool check_cpu, double cpu_limit, bool check_memory,
                    double memory_limit_mb) {
  const std::size_t n = s.order.size();
  const double* const demand_of = s.demand_of.data();
  const double* const memory_of = s.memory_of.data();
  const double* const suffix = s.suffix.data();
  const double* const msuffix = s.msuffix.data();
  const double* const msuffix_min = s.msuffix_min.data();
  const char* const dupfree = s.dupfree.data();
  std::size_t* const stk = s.stack.data();
  const VmId* const order = s.order.data();

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
    if (!bnb && (i + 1 >= n || demand_of[n - 1] > cap_minus_base - sel_demand + 1e-9 ||
                 (check_cpu && base_demand_ghz + sel_demand + demand_of[n - 1] >
                                   cpu_limit + 1e-9) ||
                 (check_memory &&
                  base_memory_mb + sel_memory + msuffix_min[i + 1] > memory_limit_mb + 1e-9))) {
      if (consume(n - i - 1)) break;
      --depth;  // line 9 of Algorithm 1: remove VM from S
      sel_demand -= demand;
      sel_memory -= memory;
      ++i;
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
  Scratch* s;
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
      best.selected = s->selected;
    }
    if (best.slack_ghz < epsilon) done = true;  // line 4-5 of Algorithm 1
  }

  void dfs(std::size_t start) {
    if (done) return;
    for (std::size_t i = start; i < s->order.size(); ++i) {
      if (done) return;
      if (bnb && slack() - s->suffix[i] >= best.slack_ghz) return;  // branch-and-bound
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
      const double demand = s->demand_of[i];
      // vdc-lint: float-eq-ok identical VMs are grouped by bitwise equality of their stored demand/memory; the values are copies, never recomputed
      if (i > start && s->demand_of[i - 1] == demand && s->memory_of[i - 1] == s->memory_of[i]) {
        continue;  // symmetry pruning
      }
      if (demand > slack() + 1e-9) continue;  // CPU-slack bound
      s->resident.push_back(&snapshot->vm(s->order[i]));  // line 2: pack VM into S
      if (constraints->admits(*server, s->resident)) {    // line 3
        s->selected.push_back(s->order[i]);
        selected_demand_ghz += demand;
        consider_current();
        if (!done) dfs(i + 1);
        selected_demand_ghz -= demand;
        s->selected.pop_back();
      }
      s->resident.pop_back();  // line 9: remove VM from S
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

MinSlackResult minimum_slack(const WorkingPlacement& placement, ServerId server,
                             std::span<const VmId> candidates,
                             const ConstraintSet& constraints, const MinSlackOptions& options) {
  const DataCenterSnapshot& snapshot = placement.snapshot();
  if (server >= snapshot.servers.size()) throw std::out_of_range("minimum_slack: server id");
  const ServerSnapshot& target = snapshot.server(server);

  Scratch& s = scratch();
  for (const VmId vm : candidates) {
    if (placement.host_of(vm) != datacenter::kNoServer) {
      throw std::invalid_argument("minimum_slack: candidate VM is already placed");
    }
  }
  // Sorted-order cache: PAC probes many servers against the *same*
  // candidate list, and relief probes hundreds of receivers with one list —
  // re-sorting per call used to dominate the entry cost. After a selection
  // PAC's next list is the previous one minus the selected VMs, which
  // filtering the cached order serves too.
  if (!reuse_cached_order(s, snapshot, candidates)) {
    s.cached_snapshot = nullptr;  // the scratch is inconsistent until rebuilt
    s.order.assign(candidates.begin(), candidates.end());
    std::sort(s.order.begin(), s.order.end(), [&](VmId a, VmId b) {
      const double da = snapshot.vm(a).cpu_demand_ghz;
      const double db = snapshot.vm(b).cpu_demand_ghz;
      // vdc-lint: float-eq-ok exact tie-break in a deterministic sort comparator; a tolerance would break strict weak ordering
      if (da != db) return da > db;
      return a < b;
    });
    const std::size_t count = s.order.size();
    s.demand_of.resize(count);
    s.memory_of.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const VmSnapshot& info = snapshot.vm(s.order[i]);
      s.demand_of[i] = info.cpu_demand_ghz;
      s.memory_of[i] = info.memory_mb;
    }
    rebuild_suffixes(s);
    s.cached_snapshot = &snapshot;
    s.cached.assign(candidates.begin(), candidates.end());
  }

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
    const std::size_t n = s.order.size();
    const bool bnb = n < 64 && (std::uint64_t{1} << n) - 1 <= options.step_budget;
    if (profile.all_builtin) {
      if (s.stack.size() < n) s.stack.resize(n);
      search_builtin(s, best, options, bnb, target.max_capacity_ghz - base_demand_ghz, base_demand_ghz,
                     placement.memory_used_mb(server), profile.has_cpu,
                     constraints.cpu_limit_ghz(target), profile.has_memory, target.memory_mb);
    } else {
      GenericSearch state;
      state.snapshot = &snapshot;
      state.server = &target;
      state.constraints = &constraints;
      state.s = &s;
      state.options = &options;
      state.bnb = bnb;
      state.epsilon = options.epsilon_ghz;
      state.budget = options.step_budget;
      state.base_demand_ghz = base_demand_ghz;
      state.best.slack_ghz = best.slack_ghz;
      const auto resident = placement.hosted_snapshots(server);
      s.resident.assign(resident.begin(), resident.end());
      s.selected.clear();
      state.dfs(0);
      best = std::move(state.best);
    }
  }
  audit::min_slack_selection(placement, server, candidates, constraints, best.selected);
  return best;
}

}  // namespace vdc::consolidate
