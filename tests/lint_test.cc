// Unit tests for the determinism lint engine (tools/lint, DESIGN.md §11).
//
// Contract per rule: it fires on a violating fixture snippet, stays quiet
// on the clean equivalent, and `// lint:allow(rule)` suppresses exactly
// the annotated line. The `determinism_lint` ctest target separately
// proves src/ itself is clean; these tests prove the rules would notice
// if it were not.
#include "lint/lint_engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace shadoop::lint {
namespace {

std::vector<Finding> Lint(const std::string& contents,
                          const std::string& path = "src/core/fixture.cc") {
  return Linter().LintFile(path, contents);
}

std::vector<std::string> RuleIds(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& finding : findings) ids.push_back(finding.rule);
  return ids;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  const std::vector<std::string> ids = RuleIds(findings);
  return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

// ---------------------------------------------------------------------------
// Registry & formatting

TEST(LintRegistry, ExposesEveryRule) {
  Linter linter;
  std::vector<std::string> ids;
  for (const RuleInfo& rule : linter.rules()) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.summary.empty());
    ids.push_back(rule.id);
  }
  for (const char* expected :
       {"banned-clock", "banned-random", "unordered-iteration", "naked-mutex",
        "iostream-include", "banned-float-accum", "unstable-sort-before-emit",
        "size-dependent-seed"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << "missing rule " << expected;
  }
  // The path-scoped wall-clock rules are retired: the cross-TU
  // determinism-taint analysis (tools/analyze, DESIGN.md §16) subsumes
  // them, and tests/analyze_test.cc keeps their scenarios as regression
  // fixtures against the analyzer.
  for (const char* retired : {"server-wall-clock", "optimizer-wall-clock"}) {
    EXPECT_EQ(std::find(ids.begin(), ids.end(), retired), ids.end())
        << "rule " << retired << " should be retired";
  }
}

TEST(LintFormat, FileLineRuleMessage) {
  Finding finding{"src/core/knn.cc", 42, "banned-clock", "no clocks"};
  EXPECT_EQ(FormatFinding(finding),
            "src/core/knn.cc:42: banned-clock: no clocks");
}

TEST(LintFormat, FindingsCarryOneBasedLines) {
  std::vector<Finding> findings = Lint("#include <iostream>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[0].file, "src/core/fixture.cc");
}

// ---------------------------------------------------------------------------
// banned-clock

TEST(BannedClock, FiresOnSystemClock) {
  EXPECT_TRUE(HasRule(
      Lint("auto t = std::chrono::system_clock::now();\n"), "banned-clock"));
}

TEST(BannedClock, FiresOnSteadyClockAndCTime) {
  EXPECT_TRUE(HasRule(
      Lint("using Clock = std::chrono::steady_clock;\n"), "banned-clock"));
  EXPECT_TRUE(HasRule(Lint("time_t now = time(nullptr);\n"), "banned-clock"));
  EXPECT_TRUE(HasRule(Lint("long t = ::time(nullptr);\n"), "banned-clock"));
}

TEST(BannedClock, QuietOnDurationsAndLookalikes) {
  // Durations and sleeps are deterministic-friendly; only clock *reads*
  // are banned. Identifiers merely containing "time" must not trip it.
  EXPECT_TRUE(Lint("std::this_thread::sleep_for(std::chrono::microseconds(2));\n"
                   "double startup_time(3.0);\n"
                   "double runtime(2.0);\n"
                   "sw.time();\n")
                  .empty());
}

TEST(BannedClock, QuietInComments) {
  EXPECT_TRUE(Lint("// wall time via std::chrono::system_clock is banned\n"
                   "/* time(nullptr) too */\n")
                  .empty());
}

TEST(BannedClock, ExemptInStopwatchHeader) {
  const std::string snippet = "using Clock = std::chrono::steady_clock;\n";
  EXPECT_TRUE(Lint(snippet, "src/common/stopwatch.h").empty());
  EXPECT_FALSE(Lint(snippet, "src/core/knn.cc").empty());
}

// ---------------------------------------------------------------------------
// banned-random

TEST(BannedRandom, FiresOnRandAndDeviceAndEngines) {
  EXPECT_TRUE(HasRule(Lint("int x = rand();\n"), "banned-random"));
  EXPECT_TRUE(HasRule(Lint("std::random_device rd;\n"), "banned-random"));
  EXPECT_TRUE(HasRule(Lint("std::mt19937_64 gen(rd());\n"), "banned-random"));
}

TEST(BannedRandom, QuietOnSeededShadoopRandom) {
  EXPECT_TRUE(Lint("shadoop::Random rng(seed);\n"
                   "double d = rng.NextDouble();\n"
                   "int operand = 1; (void)operand;\n")
                  .empty());
}

TEST(BannedRandom, ExemptInCommonRandom) {
  const std::string snippet = "std::mt19937 gen;\n";
  EXPECT_TRUE(Lint(snippet, "src/common/random.cc").empty());
  EXPECT_TRUE(Lint(snippet, "src/common/random.h").empty());
  EXPECT_FALSE(Lint(snippet, "src/index/rtree.cc").empty());
}

// ---------------------------------------------------------------------------
// unordered-iteration

TEST(UnorderedIteration, FiresOnRangeForOverUnorderedMap) {
  std::vector<Finding> findings =
      Lint("std::unordered_map<std::string, int> counts;\n"
           "for (const auto& [key, n] : counts) Emit(key, n);\n");
  ASSERT_TRUE(HasRule(findings, "unordered-iteration"));
  EXPECT_EQ(findings[0].line, 2);
}

TEST(UnorderedIteration, FiresOnBeginOverUnorderedSet) {
  EXPECT_TRUE(HasRule(Lint("std::unordered_set<int> seen;\n"
                           "auto it = seen.begin();\n"),
                      "unordered-iteration"));
}

TEST(UnorderedIteration, TracksDeclarationsAcrossLines) {
  EXPECT_TRUE(HasRule(Lint("std::unordered_map<std::string,\n"
                           "                   std::vector<int>> index;\n"
                           "for (auto& entry : index) Use(entry);\n"),
                      "unordered-iteration"));
}

TEST(UnorderedIteration, QuietOnLookupAndOrderedContainers) {
  // Point lookups on hash containers are order-independent and legal;
  // only iteration leaks hash order. std::map iteration is fine.
  EXPECT_TRUE(Lint("std::unordered_map<std::string, int> counts;\n"
                   "counts[key] += 1;\n"
                   "auto it = counts.find(key);\n")
                  .empty());
  EXPECT_TRUE(Lint("std::map<std::string, int> sorted;\n"
                   "for (const auto& [k, v] : sorted) Emit(k, v);\n")
                  .empty());
}

TEST(UnorderedIteration, SortedSnapshotUsesAllowEscape) {
  // The blessed pattern: copy into an ordered container, annotate the
  // copy line. Exactly that line is suppressed.
  std::vector<Finding> findings =
      Lint("std::unordered_map<std::string, int> counts;\n"
           "std::map<std::string, int> sorted(\n"
           "    counts.begin(), counts.end());  // lint:allow(unordered-iteration)\n"
           "for (const auto& [k, v] : sorted) Emit(k, v);\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// naked-mutex

TEST(NakedMutex, FiresOnMemberAndInclude) {
  EXPECT_TRUE(HasRule(Lint("#include <mutex>\n"), "naked-mutex"));
  EXPECT_TRUE(HasRule(Lint("mutable std::mutex mu_;\n"), "naked-mutex"));
  EXPECT_TRUE(HasRule(Lint("std::shared_mutex rw_;\n"), "naked-mutex"));
}

TEST(NakedMutex, QuietOnAnnotatedWrapper) {
  EXPECT_TRUE(Lint("#include \"common/thread_annotations.h\"\n"
                   "mutable Mutex mu_;\n"
                   "MutexLock lock(&mu_);\n"
                   "std::condition_variable cv_;\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// iostream-include

TEST(IostreamInclude, FiresOnInclude) {
  std::vector<Finding> findings = Lint("#include <iostream>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "iostream-include");
}

TEST(IostreamInclude, QuietOnOtherStreams) {
  EXPECT_TRUE(Lint("#include <sstream>\n#include <fstream>\n").empty());
}

// ---------------------------------------------------------------------------
// banned-float-accum

TEST(BannedFloatAccum, FiresOnDeclarationsCastsAndTemplateArgs) {
  EXPECT_TRUE(HasRule(Lint("float sum = 0;\n"), "banned-float-accum"));
  EXPECT_TRUE(HasRule(Lint("auto x = static_cast<float>(area);\n"),
                      "banned-float-accum"));
  EXPECT_TRUE(
      HasRule(Lint("std::vector<float> coords;\n"), "banned-float-accum"));
}

TEST(BannedFloatAccum, QuietOnDoublesAndLookalikes) {
  EXPECT_TRUE(Lint("double sum = 0;\n"
                   "int floaters = 2;\n"
                   "auto y = my_float32(v);\n")
                  .empty());
}

TEST(BannedFloatAccum, QuietInCommentsAndStrings) {
  EXPECT_TRUE(Lint("// float would lose MBR precision here\n"
                   "const char* kMsg = \"float not allowed\";\n")
                  .empty());
}

TEST(BannedFloatAccum, AllowEscapeSuppresses) {
  EXPECT_TRUE(
      Lint("float raw_gl_coord;  // lint:allow(banned-float-accum)\n")
          .empty());
}

// ---------------------------------------------------------------------------
// unstable-sort-before-emit

TEST(UnstableSortBeforeEmit, FiresWhenSortFeedsEmit) {
  std::vector<Finding> findings =
      Lint("std::sort(rows.begin(), rows.end(), ByDistance);\n"
           "for (const Row& row : rows) {\n"
           "  ctx.Emit(row.key, row.value);\n"
           "}\n");
  ASSERT_TRUE(HasRule(findings, "unstable-sort-before-emit"));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(UnstableSortBeforeEmit, FiresWhenSortFeedsWriteOutput) {
  EXPECT_TRUE(HasRule(Lint("std::sort(out.begin(), out.end());\n"
                           "for (auto& line : out) ctx.WriteOutput(line);\n"),
                      "unstable-sort-before-emit"));
}

TEST(UnstableSortBeforeEmit, QuietOnStableSortAndFarAwayEmit) {
  EXPECT_TRUE(Lint("std::stable_sort(rows.begin(), rows.end(), ByDistance);\n"
                   "for (const Row& row : rows) ctx.Emit(row.key, row.v);\n")
                  .empty());
  // A sort with no emit in the window is some other computation.
  std::string far = "std::sort(ids.begin(), ids.end());\n";
  for (int i = 0; i < 14; ++i) far += "Use(ids);\n";
  far += "ctx.Emit(key, value);\n";
  EXPECT_TRUE(Lint(far).empty());
}

TEST(UnstableSortBeforeEmit, AllowEscapeSuppresses) {
  EXPECT_TRUE(
      Lint("std::sort(rows.begin(), rows.end(), "
           "TotalOrder);  // lint:allow(unstable-sort-before-emit)\n"
           "for (const Row& row : rows) ctx.Emit(row.key, row.value);\n")
          .empty());
}

// ---------------------------------------------------------------------------
// size-dependent-seed

TEST(SizeDependentSeed, FiresOnRandomSeededWithSize) {
  std::vector<Finding> findings =
      Lint("shadoop::Random rng(entries.size());\n");
  ASSERT_TRUE(HasRule(findings, "size-dependent-seed"));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(SizeDependentSeed, FiresOnSeedVariablesAndArrowCalls) {
  EXPECT_TRUE(HasRule(Lint("const uint64_t seed = boxes.size();\n"),
                      "size-dependent-seed"));
  EXPECT_TRUE(HasRule(Lint("hash_seed ^= records->size();\n"),
                      "size-dependent-seed"));
  EXPECT_TRUE(HasRule(Lint("uint64_t kSeedBase = 17 + parts.size() * 31;\n"),
                      "size-dependent-seed"));
}

TEST(SizeDependentSeed, FiresAcrossAWrappedSeedExpression) {
  std::vector<Finding> findings = Lint("const uint64_t seed =\n"
                                       "    partitions.size();\n");
  ASSERT_TRUE(HasRule(findings, "size-dependent-seed"));
  EXPECT_EQ(findings[0].line, 2);
}

TEST(SizeDependentSeed, QuietOnConstantSeedsAndPlainSizeUse) {
  // A constant-seeded Random next to ordinary .size() arithmetic is the
  // blessed pattern; neither line alone is a seed derivation.
  EXPECT_TRUE(Lint("shadoop::Random rng(0x5110794u);\n"
                   "for (size_t i = 0; i < entries.size(); ++i) Use(i);\n")
                  .empty());
  EXPECT_TRUE(Lint("const size_t n = boxes.size();\n"
                   "out.reserve(items.size());\n")
                  .empty());
  // `sizeof` and free size() lookalikes are not member .size() calls.
  EXPECT_TRUE(Lint("uint64_t seed = sizeof(Header);\n"
                   "uint64_t seed2 = size(7);\n")
                  .empty());
}

TEST(SizeDependentSeed, AllowEscapeSuppresses) {
  EXPECT_TRUE(
      Lint("shadoop::Random rng(\n"
           "    entries.size());  // lint:allow(size-dependent-seed)\n")
          .empty());
}

// ---------------------------------------------------------------------------
// Directory exemptions (the lint roots cover tools/ and bench/ too)

TEST(PathExemptions, BenchKeepsItsWallClock) {
  // The bench harness's whole point is wall-clock measurement; its tree
  // is exempt from banned-clock and iostream-include, but everything
  // else still applies there.
  EXPECT_TRUE(Lint("auto t = std::chrono::steady_clock::now();\n"
                   "#include <iostream>\n",
                   "bench/bench_hotpath.cc")
                  .empty());
  EXPECT_TRUE(HasRule(Lint("int x = rand();\n", "bench/bench_hotpath.cc"),
                      "banned-random"));
}

TEST(PathExemptions, CliMainsMayPrint) {
  EXPECT_TRUE(Lint("#include <iostream>\n", "tools/lint/lint_main.cc").empty());
  EXPECT_TRUE(HasRule(Lint("#include <iostream>\n", "tools/lint/lint_engine.cc"),
                      "iostream-include"));
}

// ---------------------------------------------------------------------------
// lint:allow semantics

TEST(LintAllow, SuppressesExactlyOneLine) {
  std::vector<Finding> findings =
      Lint("int a = rand();  // lint:allow(banned-random)\n"
           "int b = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-random");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintAllow, OnlySuppressesTheNamedRule) {
  // The allow names banned-clock, but the line violates banned-random:
  // the finding survives.
  std::vector<Finding> findings =
      Lint("int a = rand();  // lint:allow(banned-clock)\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-random");
}

TEST(LintAllow, SupportsRuleLists) {
  EXPECT_TRUE(
      Lint("std::mutex mu; srand(1);  "
           "// lint:allow(naked-mutex, banned-random)\n")
          .empty());
}

// ---------------------------------------------------------------------------
// Engine mechanics

TEST(LintEngine, OneFindingPerLineAndRule) {
  // Two banned tokens on one line are one problem to fix.
  std::vector<Finding> findings =
      Lint("auto t = time(nullptr) + clock();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-clock");
}

TEST(LintEngine, FindingsSortedByLine) {
  std::vector<Finding> findings = Lint("int b = rand();\n"
                                       "#include <iostream>\n"
                                       "std::mutex mu;\n");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_LT(findings[0].line, findings[1].line);
  EXPECT_LT(findings[1].line, findings[2].line);
}

TEST(LintEngine, StringLiteralsDoNotFire) {
  EXPECT_TRUE(
      Lint("const char* doc = \"never call rand() or time(nullptr)\";\n")
          .empty());
}

TEST(LintEngine, MultiLineRawStringsDoNotFire) {
  // A raw string's body is a literal on every line it spans, whatever its
  // prefix; only `)delim"` closes it, and code after that is code again.
  EXPECT_TRUE(Lint("const char* kDoc = R\"(\n"
                   "  call time(nullptr) here; std::mutex m;\n"
                   ")\";\n")
                  .empty());
  for (const char* prefix : {"u8R", "uR", "UR", "LR"}) {
    EXPECT_TRUE(Lint(std::string("auto s = ") + prefix +
                     "\"x(\n"
                     "  rand();\n"
                     ")\" rand(); )x\";\n")
                    .empty())
        << prefix;
  }
  std::vector<Finding> findings = Lint("auto s = R\"sql(\n"
                                       "  rand();\n"
                                       ")sql\"; int t = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-random");
  EXPECT_EQ(findings[0].line, 3);
}

}  // namespace
}  // namespace shadoop::lint
