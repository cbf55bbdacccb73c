// vdc-lint rule catalog. Each rule is a token-level pass over one file
// (plus two whole-tree passes over the include graph); see DESIGN.md
// "Domain lint" for the catalog rationale and the suppression syntax.
//
//   units             floating-point parameters / members / double-returning
//                     functions whose names carry a physical-quantity stem
//                     (power, energy, freq, capacity, latency, ...) must end
//                     in a unit suffix (_w/_j/_s/_ghz/_hz/_mb/_mbps/...), a
//                     dimensionless marker (_frac/_factor/...), or a
//                     _<unit>_per_<unit> composite.
//   determinism       std::rand/srand, time(), std::chrono::system_clock and
//                     std::random_device are banned everywhere — every result
//                     in this repo must replay bit-identically.
//   unordered-iter    range-for over std::unordered_map/unordered_set, or an
//                     iterator loop starting at its begin()/cbegin(), in the
//                     plan-ordering subsystems (src/sim, src/consolidate,
//                     src/datacenter, src/core) needs an annotation stating
//                     why iteration order cannot leak into results.
//   float-eq          == / != with a floating operand outside src/linalg
//                     needs an annotation (or an exactness helper).
//   check-side-effect VDC_ASSERT/VDC_INVARIANT/VDC_UNREACHABLE arguments
//                     compile out under -DVDC_CHECKS=OFF, so mutation inside
//                     them (++/--/assignment/container mutators) is a bug.
//   shard-safety      mutable `static` variables (any scope) and mutable
//                     namespace-scope variables in the shard-path subsystems
//                     (src/sim, src/app, src/datacenter, src/core) — code
//                     that runs inside the sharded engine's parallel shard
//                     advance, where hidden shared state is a data race AND
//                     a determinism leak. const/constexpr/constinit and
//                     function declarations are exempt; anything else needs
//                     an annotation stating why it is safe.
//   pragma-once       every .hpp carries #pragma once.
//   include-cycle     the quoted-include graph is acyclic.
//   orphan-header     every header under src/ (bar src/vdc.hpp) is included
//                     by some file in src/, bench/, tools/, examples/ or
//                     perfbench/ other than its own .cpp and src/vdc.hpp:
//                     library surface that only its tests reach is dead.
//
// Suppression hygiene (rule id `suppression`, never suppressible itself):
// a suppression must name a known rule, carry a reason, and match a finding.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "source_file.hpp"

namespace vdc::lint {

struct RuleConfig {
  bool units = true;
  bool determinism = true;
  bool unordered_iter = true;
  bool float_eq = true;
  bool check_side_effect = true;
  bool pragma_once = true;
  bool shard_safety = true;
};

/// Per-file rule enablement from the repo-relative path (see DESIGN.md):
/// units applies to src/ and tools/ minus src/linalg (mathematical "power")
/// and src/util (dimensionless data structures); float-eq to src/ and tools/
/// minus src/linalg (numerics owns its exact comparisons); unordered-iter to
/// the four plan-ordering subsystems; shard-safety to the subsystems on the
/// sharded engine's parallel path; the rest everywhere.
RuleConfig config_for(std::string_view rel);

/// All rules enabled regardless of path — used by the fixture tests.
RuleConfig all_rules_config();

/// Collects names declared with std::unordered_map/unordered_set type in
/// `file` into `names`. Run over the whole tree before run_file_rules:
/// containers are declared in headers but iterated in .cpp files.
void collect_unordered_names(const SourceFile& file, std::set<std::string>& names);

/// Runs every enabled single-file rule; appends findings (marking suppressed
/// ones) to `out`. `unordered_names` is the tree-wide set from
/// collect_unordered_names (used by the unordered-iter rule).
void run_file_rules(SourceFile& file, const RuleConfig& cfg,
                    const std::set<std::string>& unordered_names, std::vector<Finding>& out);

/// Reports malformed / unknown-rule / reasonless / unused suppressions.
/// Call after run_file_rules. Suppressions for rules disabled in `cfg`
/// (e.g. float-eq annotations inside src/linalg) are documentation, not
/// stale, and are exempt from the unused check.
void run_suppression_hygiene(const SourceFile& file, const RuleConfig& cfg,
                             std::vector<Finding>& out);

/// Whole-tree pass: cycles in the quoted-include graph of `files`.
void run_include_cycles(std::vector<SourceFile>& files, std::vector<Finding>& out);

/// Whole-tree pass: headers under src/ that no program file includes (see
/// orphan-header above). Meaningful only when `files` is the whole tree,
/// perfbench/ included; each finding sits on the header's #pragma once line.
void run_orphan_headers(std::vector<SourceFile>& files, std::vector<Finding>& out);

bool known_rule(std::string_view name);

}  // namespace vdc::lint
