// vdc-lint CLI: scans the repository (or explicit paths) with the domain
// rules and reports findings.
//
//   vdc_lint --root <repo>             scan src/ tools/ tests/ bench/ examples/
//                                      (and perfbench/, for the include graph)
//   vdc_lint --root <repo> a.cpp b.hpp scan specific files (repo-relative rules)
//   --json                             JSON report on stdout instead of text
//   --out <file>                       additionally write the JSON report here
//   --all-scopes                       run every rule on every file (fixtures)
//   --list-rules                       print rule ids and exit
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "rules.hpp"

namespace fs = std::filesystem;
using namespace vdc::lint;

namespace {

const char* const kRuleIds[] = {
    "units", "determinism", "unordered-iter", "float-eq",
    "check-side-effect", "pragma-once", "include-cycle", "shard-safety",
    "orphan-header",
};

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

/// Skip build trees, VCS metadata, and the lint rule fixtures (which contain
/// deliberate violations).
bool excluded(const std::string& rel) {
  if (rel.find("tests/lint/fixtures") != std::string::npos) return true;
  for (const std::string_view part : {"build/", ".git/"}) {
    if (rel.rfind(part, 0) == 0 || rel.find(std::string("/") + std::string(part)) !=
                                       std::string::npos) {
      return true;
    }
  }
  return false;
}

/// perfbench/ belongs to the benchmark: its sources are read for the
/// include graph (orphan-header counts its includes) and checked by no rule.
bool graph_only(const std::string& rel) { return rel.rfind("perfbench/", 0) == 0; }

std::string rel_path(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  return (ec || rel.empty()) ? p.generic_string() : rel.generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool json_stdout = false;
  bool all_scopes = false;
  std::string json_out;
  std::vector<std::string> explicit_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json") {
      json_stdout = true;
    } else if (arg == "--out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--all-scopes") {
      all_scopes = true;
    } else if (arg == "--list-rules") {
      for (const char* r : kRuleIds) std::cout << r << '\n';
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: vdc_lint [--root DIR] [--json] [--out FILE] [--all-scopes] "
                   "[--list-rules] [paths...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "vdc_lint: unknown option '" << arg << "'\n";
      return 2;
    } else {
      explicit_paths.push_back(arg);
    }
  }

  std::vector<fs::path> inputs;
  if (explicit_paths.empty()) {
    for (const char* dir : {"src", "tools", "tests", "bench", "examples", "perfbench"}) {
      const fs::path base = root / dir;
      if (!fs::exists(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (entry.is_regular_file() && has_source_extension(entry.path())) {
          inputs.push_back(entry.path());
        }
      }
    }
  } else {
    for (const std::string& p : explicit_paths) {
      fs::path path = p;
      if (path.is_relative() && !fs::exists(path)) path = root / p;
      if (fs::is_directory(path)) {
        for (const auto& entry : fs::recursive_directory_iterator(path)) {
          if (entry.is_regular_file() && has_source_extension(entry.path())) {
            inputs.push_back(entry.path());
          }
        }
      } else {
        inputs.push_back(path);
      }
    }
  }

  std::vector<SourceFile> files;
  files.reserve(inputs.size());
  for (const fs::path& p : inputs) {
    const std::string rel = rel_path(root, p);
    if (explicit_paths.empty() && excluded(rel)) continue;
    SourceFile f;
    if (!load_source_file(p.string(), rel, f)) {
      std::cerr << "vdc_lint: cannot read " << p.string() << '\n';
      return 2;
    }
    files.push_back(std::move(f));
  }
  // Deterministic scan order regardless of directory iteration order.
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.rel < b.rel; });

  std::set<std::string> unordered_names;
  for (const SourceFile& f : files) {
    if (!graph_only(f.rel)) collect_unordered_names(f, unordered_names);
  }

  std::vector<Finding> findings;
  for (SourceFile& f : files) {
    if (graph_only(f.rel)) continue;
    const RuleConfig cfg = all_scopes ? all_rules_config() : config_for(f.rel);
    run_file_rules(f, cfg, unordered_names, findings);
  }
  run_include_cycles(files, findings);
  // Only the whole tree shows whether a header has a user.
  if (explicit_paths.empty()) run_orphan_headers(files, findings);
  // Hygiene last: the whole-tree rules' suppressions are consumed above.
  for (SourceFile& f : files) {
    if (graph_only(f.rel)) continue;
    const RuleConfig cfg = all_scopes ? all_rules_config() : config_for(f.rel);
    run_suppression_hygiene(f, cfg, findings);
  }
  sort_findings(findings);

  if (json_stdout) {
    write_json(std::cout, findings, files.size());
  } else {
    write_text(std::cout, findings, files.size());
  }
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::cerr << "vdc_lint: cannot write " << json_out << '\n';
      return 2;
    }
    write_json(out, findings, files.size());
  }
  return unsuppressed_count(findings) == 0 ? 0 : 1;
}
