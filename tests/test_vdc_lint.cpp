// vdc-lint fixture tests: each rule has a fixture source under
// tests/lint/fixtures/ with deliberate violations (and near-miss negative
// cases), and the full text report over the fixture set is pinned to the
// golden file tests/lint/fixtures.expected. Regenerate the golden by
// running the loop below and reviewing every changed line — the golden is
// the rule catalog's executable specification.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rules.hpp"

namespace {

namespace fs = std::filesystem;
using namespace vdc::lint;

const char* const kFixtureDir = VDC_LINT_FIXTURE_DIR;

std::vector<SourceFile> load_fixtures() {
  std::vector<SourceFile> files;
  for (const auto& entry : fs::directory_iterator(kFixtureDir)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    SourceFile f;
    // Bare filenames as repo-relative paths keep the golden stable and make
    // the fixtures mutual siblings for quoted-include resolution.
    EXPECT_TRUE(load_source_file(entry.path().string(), entry.path().filename().string(), f));
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.rel < b.rel; });
  return files;
}

/// The same pipeline main.cpp runs, with every rule enabled on every file.
std::vector<Finding> lint_all(std::vector<SourceFile>& files) {
  std::set<std::string> unordered_names;
  for (const SourceFile& f : files) collect_unordered_names(f, unordered_names);
  std::vector<Finding> findings;
  for (SourceFile& f : files) run_file_rules(f, all_rules_config(), unordered_names, findings);
  run_include_cycles(files, findings);
  run_orphan_headers(files, findings);
  for (SourceFile& f : files) run_suppression_hygiene(f, all_rules_config(), findings);
  sort_findings(findings);
  return findings;
}

TEST(VdcLint, FixtureReportMatchesGolden) {
  std::vector<SourceFile> files = load_fixtures();
  ASSERT_FALSE(files.empty()) << "no fixtures found under " << kFixtureDir;
  const std::vector<Finding> findings = lint_all(files);

  std::ostringstream report;
  write_text(report, findings, files.size());

  const fs::path golden_path = fs::path(kFixtureDir).parent_path() / "fixtures.expected";
  std::ifstream golden(golden_path);
  ASSERT_TRUE(golden.good()) << "missing golden file " << golden_path;
  std::stringstream expected;
  expected << golden.rdbuf();

  EXPECT_EQ(report.str(), expected.str())
      << "fixture findings drifted from the golden; if the rule change is "
         "intentional, regenerate tests/lint/fixtures.expected and re-review it";
}

TEST(VdcLint, EveryRuleFiresOnItsFixture) {
  std::vector<SourceFile> files = load_fixtures();
  const std::vector<Finding> findings = lint_all(files);
  for (const char* rule : {"units", "determinism", "unordered-iter", "float-eq",
                           "check-side-effect", "pragma-once", "include-cycle",
                           "shard-safety", "suppression"}) {
    const bool seen = std::any_of(findings.begin(), findings.end(),
                                  [&](const Finding& f) { return f.rule == rule; });
    EXPECT_TRUE(seen) << "no fixture exercises rule '" << rule << "'";
  }
}

TEST(VdcLint, OrphanHeaderFlagsLibraryHeadersOnlyTestsInclude) {
  // fixtures/orphan/ is a miniature repository, loaded with paths relative
  // to its root so the rule sees src/, tools/ and tests/ as it would.
  const fs::path root = fs::path(kFixtureDir) / "orphan";
  std::vector<SourceFile> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    SourceFile f;
    ASSERT_TRUE(load_source_file(entry.path().string(),
                                 fs::relative(entry.path(), root).generic_string(), f));
    files.push_back(std::move(f));
  }
  std::vector<Finding> findings;
  run_orphan_headers(files, findings);
  for (SourceFile& f : files) run_suppression_hygiene(f, all_rules_config(), findings);
  sort_findings(findings);

  // used.hpp has a tool, detail.hpp a library header; orphan.hpp only its
  // own .cpp, the umbrella header and a test; kept.hpp is suppressed.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/lib/kept.hpp");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_EQ(findings[1].file, "src/lib/orphan.hpp");
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[1].rule, "orphan-header");
  EXPECT_FALSE(findings[1].suppressed);
  EXPECT_EQ(unsuppressed_count(findings), 1u);
}

TEST(VdcLint, SuppressionRoundTripIsClean) {
  // A file whose every violation carries a reasoned annotation produces only
  // suppressed findings: the tool reports them but exits clean.
  std::vector<SourceFile> files = load_fixtures();
  files.erase(std::remove_if(files.begin(), files.end(),
                             [](const SourceFile& f) { return f.rel != "suppressed_clean.cpp"; }),
              files.end());
  ASSERT_EQ(files.size(), 1u);
  std::vector<Finding> findings = lint_all(files);
  EXPECT_FALSE(findings.empty()) << "fixture should still produce (suppressed) findings";
  EXPECT_EQ(unsuppressed_count(findings), 0u);
  for (const Finding& f : findings) EXPECT_TRUE(f.suppressed) << f.rule << " at line " << f.line;
}

TEST(VdcLint, SuppressionHygieneFlagsBadAnnotations) {
  std::vector<SourceFile> files = load_fixtures();
  files.erase(std::remove_if(files.begin(), files.end(),
                             [](const SourceFile& f) { return f.rel != "suppress_bad.cpp"; }),
              files.end());
  ASSERT_EQ(files.size(), 1u);
  const std::vector<Finding> findings = lint_all(files);

  auto count_matching = [&](std::string_view needle) {
    return std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
      return f.rule == "suppression" && f.message.find(needle) != std::string::npos;
    });
  };
  EXPECT_EQ(count_matching("has no reason"), 1);
  EXPECT_EQ(count_matching("unknown rule"), 1);
  EXPECT_EQ(count_matching("unused suppression"), 1);
  // Hygiene findings are never suppressible and always gate the exit code.
  EXPECT_GE(unsuppressed_count(findings), 3u);
}

}  // namespace
