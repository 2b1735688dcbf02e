// Unit tests for the cross-TU analyzer (tools/analyze, DESIGN.md §16).
//
// Fixture trees are synthetic in-memory files fed through AddFile; the
// `analysis_test` ctest target separately proves the real tree is clean
// against its baseline — these tests prove the analyses would notice if
// it were not. The Server/Optimizer wall-clock scenarios at the bottom
// are the retired path-scoped lint rules' cases (PR 8/9), kept as
// regression fixtures against the taint analysis that subsumed them.
#include "analyze/analyzer.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lint_engine.h"

namespace shadoop::analyze {
namespace {

using lint::Finding;

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& finding : findings) ids.push_back(finding.rule);
  return ids;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  const std::vector<std::string> ids = Rules(findings);
  return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

const Finding* FindRule(const std::vector<Finding>& findings,
                        const std::string& rule) {
  for (const Finding& finding : findings) {
    if (finding.rule == rule) return &finding;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry & docs

TEST(AnalyzeRegistry, ExposesEveryRule) {
  Analyzer analyzer;
  std::vector<std::string> ids;
  for (const lint::RuleInfo& rule : analyzer.rules()) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.summary.empty());
    ids.push_back(rule.id);
  }
  for (const char* expected :
       {"determinism-taint", "layer-violation", "layer-undeclared",
        "include-cycle", "stale-baseline"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << "missing rule " << expected;
  }
}

// Doc drift is a test failure: every registered lint rule needs its
// DESIGN.md §11.2 table row, every analyzer rule its §16 row. Rows name
// the id in backticks as the first cell: "| `rule-id` ...".
TEST(AnalyzeRegistry, EveryRuleHasADesignDocRow) {
  std::ifstream in(SHADOOP_SOURCE_DIR "/DESIGN.md", std::ios::binary);
  ASSERT_TRUE(in) << "cannot read DESIGN.md";
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string design = contents.str();

  std::vector<std::string> ids;
  const lint::Linter linter;
  for (const lint::RuleInfo& rule : linter.rules()) ids.push_back(rule.id);
  const Analyzer analyzer;
  for (const lint::RuleInfo& rule : analyzer.rules()) ids.push_back(rule.id);
  for (const std::string& id : ids) {
    EXPECT_NE(design.find("| `" + id + "`"), std::string::npos)
        << "rule " << id << " has no DESIGN.md documentation table row";
  }
}

// ---------------------------------------------------------------------------
// Indexer

TEST(SourceIndexer, ExtractsFunctionsCallsAndIncludes) {
  Analyzer analyzer;
  analyzer.AddFile("src/core/probe.cc",
                   "#include \"core/probe.h\"\n"
                   "namespace shadoop {\n"
                   "int Helper(int x) { return x + 1; }\n"
                   "int Probe::Run(int x) {\n"
                   "  return Helper(x);\n"
                   "}\n"
                   "}  // namespace shadoop\n");
  const SourceIndex& index = analyzer.index();
  ASSERT_EQ(index.files().size(), 1u);
  EXPECT_EQ(index.files()[0].repo_path, "src/core/probe.cc");
  EXPECT_EQ(index.files()[0].module, "core");
  ASSERT_EQ(index.files()[0].includes.size(), 1u);
  EXPECT_EQ(index.files()[0].includes[0].spec, "core/probe.h");

  ASSERT_EQ(index.functions().size(), 2u);
  EXPECT_EQ(index.functions()[0].name, "Helper");
  EXPECT_EQ(index.functions()[1].qualified, "Probe::Run");
  ASSERT_EQ(index.functions()[1].calls.size(), 1u);
  EXPECT_EQ(index.functions()[1].calls[0].name, "Helper");
}

TEST(SourceIndexer, RepoRelativeNormalizesAbsolutePaths) {
  EXPECT_EQ(RepoRelative("/home/u/repo/src/core/knn.cc"), "src/core/knn.cc");
  EXPECT_EQ(RepoRelative("src/core/knn.cc"), "src/core/knn.cc");
  EXPECT_EQ(RepoRelative("/home/u/repo/bench/bench_hotpath.cc"),
            "bench/bench_hotpath.cc");
}

// ---------------------------------------------------------------------------
// Determinism taint

// The flagship scenario the per-line lint could never see: the sink is
// three calls away from the serving tier, in a different module.
TEST(DeterminismTaint, FollowsAThreeDeepCallChain) {
  Analyzer analyzer;
  analyzer.AddFile("src/server/handler.cc",
                   "int Handle(int q) { return Helper(q); }\n");
  analyzer.AddFile("src/index/helper.cc",
                   "int Helper(int q) { return ReadNow(q); }\n");
  analyzer.AddFile("src/common/timeutil.cc",
                   "int ReadNow(int q) {\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "  return q + t.time_since_epoch().count();\n"
                   "}\n");
  const std::vector<Finding> findings = analyzer.Run();
  const Finding* finding = FindRule(findings, "determinism-taint");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->file, "src/common/timeutil.cc");
  EXPECT_EQ(finding->line, 2);
  // The explanation prints the full call chain and a stable key.
  EXPECT_NE(finding->message.find("Handle -> Helper -> ReadNow"),
            std::string::npos)
      << finding->message;
  EXPECT_NE(finding->message.find("wall-clock:ReadNow"), std::string::npos)
      << finding->message;
}

TEST(DeterminismTaint, UnreachableSinkStaysQuiet) {
  // Same sink, but nothing on the query path calls it: src/index is not
  // an entry module, so a dead helper there is not a query-path leak.
  Analyzer analyzer;
  analyzer.AddFile("src/index/helper.cc",
                   "int ReadNow(int q) {\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "  return q + t.time_since_epoch().count();\n"
                   "}\n");
  EXPECT_TRUE(analyzer.Run().empty());
}

TEST(DeterminismTaint, AllowlistCutsTheChain) {
  // The Stopwatch wrapper itself and the bench harness are the two
  // sanctioned wall-clock homes; sinks there never taint callers.
  Analyzer analyzer;
  analyzer.AddFile("src/server/handler.cc",
                   "int Handle(int q) { return Sanctioned(q); }\n");
  analyzer.AddFile("src/common/stopwatch.h",
                   "int Sanctioned(int q) {\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "  return q + t.time_since_epoch().count();\n"
                   "}\n");
  analyzer.AddFile("bench/bench_probe.cc",
                   "int BenchLoop() {\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "  return t.time_since_epoch().count();\n"
                   "}\n");
  EXPECT_TRUE(analyzer.Run().empty());
}

TEST(DeterminismTaint, FiresOnNondetSeedAndUnorderedIteration) {
  Analyzer analyzer;
  analyzer.AddFile("src/core/op.cc",
                   "int Draw() { return rand(); }\n"
                   "int Walk() {\n"
                   "  std::unordered_map<int, int> m;\n"
                   "  int sum = 0;\n"
                   "  for (const auto& kv : m) sum += kv.second;\n"
                   "  return sum;\n"
                   "}\n"
                   "bool Lookup() {\n"
                   "  std::unordered_map<int, int> m;\n"
                   "  return m.find(1) != m.end();\n"
                   "}\n");
  const std::vector<Finding> findings = analyzer.Run();
  ASSERT_EQ(findings.size(), 2u);  // Draw + Walk; Lookup is order-free.
  EXPECT_NE(findings[0].message.find("nondet-seed:Draw"), std::string::npos);
  EXPECT_NE(findings[1].message.find("unordered-iteration:Walk"),
            std::string::npos);
}

TEST(DeterminismTaint, EscapesSuppressTheSinkLine) {
  // Both spellings cut the taint at the sink: the legacy lint id the
  // line may already carry, and the analyzer's own kind/rule ids.
  Analyzer analyzer;
  analyzer.AddFile(
      "src/core/op.cc",
      "int Draw() { return rand(); }  // lint:allow(banned-random)\n"
      "int Draw2() { return rand(); }  // analyze:allow(determinism-taint)\n"
      "int Draw3() { return rand(); }\n");
  const std::vector<Finding> findings = analyzer.Run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(DeterminismTaint, MultiLineRawStringsAreNotSinks) {
  // The raw string's body is a literal on every line it spans, so the
  // clock name inside it is prose, not a wall-clock read.
  Analyzer analyzer;
  analyzer.AddFile("src/core/doc.cc",
                   "const char* Doc() {\n"
                   "  return R\"(\n"
                   "steady_clock )\";\n"
                   "}\n"
                   "const char* Usage() {\n"
                   "  return u8R\"usage(\n"
                   "  rand() )\" time(nullptr)\n"
                   ")usage\";\n"
                   "}\n");
  EXPECT_TRUE(analyzer.Run().empty());
}

TEST(DeterminismTaint, FlagsFileScopeSinksInEntryModulesOnly) {
  Analyzer analyzer;
  analyzer.AddFile("src/core/stats.h",
                   "struct Stats {\n"
                   "  double wall_ms = 0;\n"
                   "};\n");
  analyzer.AddFile("src/mapreduce/stats.h",
                   "struct JobStats {\n"
                   "  double wall_ms = 0;\n"
                   "};\n");
  const std::vector<Finding> findings = analyzer.Run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/stats.h");
  EXPECT_NE(findings[0].message.find("wall-clock:file:src/core/stats.h"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Layering

TEST(Layering, CoreIncludingServerViolatesTheDag) {
  Analyzer analyzer;
  analyzer.AddFile("src/server/query_server.h", "struct QueryServer {};\n");
  analyzer.AddFile("src/core/knn.h",
                   "#include \"server/query_server.h\"\n"
                   "struct Knn {};\n");
  const std::vector<Finding> findings = analyzer.Run();
  const Finding* finding = FindRule(findings, "layer-violation");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->file, "src/core/knn.h");
  EXPECT_EQ(finding->line, 1);
  EXPECT_NE(finding->message.find("core"), std::string::npos);
  EXPECT_NE(finding->message.find("server"), std::string::npos);
  EXPECT_NE(finding->message.find("core->server"), std::string::npos)
      << finding->message;
}

TEST(Layering, DownwardIncludesAreClean) {
  Analyzer analyzer;
  analyzer.AddFile("src/core/knn.h", "struct Knn {};\n");
  analyzer.AddFile("src/server/query_server.h",
                   "#include \"core/knn.h\"\n"
                   "struct QueryServer {};\n");
  analyzer.AddFile("tools/lint/lint_main.cc",
                   "#include \"server/query_server.h\"\n"
                   "int main() { return 0; }\n");
  EXPECT_TRUE(analyzer.Run().empty());
}

TEST(Layering, UnknownSrcModuleMustDeclareItsRank) {
  Analyzer analyzer;
  analyzer.AddFile("src/common/logging.h", "struct Log {};\n");
  analyzer.AddFile("src/newmod/thing.cc",
                   "#include \"common/logging.h\"\n"
                   "int F() { return 0; }\n");
  const std::vector<Finding> findings = analyzer.Run();
  const Finding* finding = FindRule(findings, "layer-undeclared");
  ASSERT_NE(finding, nullptr);
  EXPECT_NE(finding->message.find("newmod"), std::string::npos);
}

TEST(Layering, IncludeCyclesAreReportedOnce) {
  Analyzer analyzer;
  analyzer.AddFile("src/core/a.h",
                   "#include \"core/b.h\"\n"
                   "struct A {};\n");
  analyzer.AddFile("src/core/b.h",
                   "#include \"core/a.h\"\n"
                   "struct B {};\n");
  const std::vector<Finding> findings = analyzer.Run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_EQ(findings[0].file, "src/core/a.h");
  // The message prints the whole include path, canonically rotated.
  EXPECT_NE(findings[0].message.find(
                "src/core/a.h -> src/core/b.h -> src/core/a.h"),
            std::string::npos)
      << findings[0].message;
}

// ---------------------------------------------------------------------------
// Baseline

Analyzer TaintedFixture() {
  Analyzer analyzer;
  analyzer.AddFile("src/server/handler.cc",
                   "int Handle(int q) { return ReadNow(q); }\n");
  analyzer.AddFile("src/common/timeutil.cc",
                   "int ReadNow(int q) {\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "  return q + t.time_since_epoch().count();\n"
                   "}\n");
  return analyzer;
}

TEST(Baseline, EntrySuppressesItsFinding) {
  Analyzer analyzer = TaintedFixture();
  analyzer.LoadBaseline("tools/analyze/analysis_baseline.txt",
                        "# sanctioned exception\n"
                        "determinism-taint wall-clock:ReadNow\n");
  EXPECT_TRUE(analyzer.Run().empty());
}

TEST(Baseline, DeletingTheEntryRearmsTheFinding) {
  Analyzer analyzer = TaintedFixture();
  analyzer.LoadBaseline("tools/analyze/analysis_baseline.txt",
                        "# entry deleted\n");
  const std::vector<Finding> findings = analyzer.Run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism-taint");
  EXPECT_NE(findings[0].message.find("Handle -> ReadNow"), std::string::npos);
}

TEST(Baseline, StaleEntriesAreFindingsThemselves) {
  Analyzer analyzer = TaintedFixture();
  analyzer.LoadBaseline("tools/analyze/analysis_baseline.txt",
                        "determinism-taint wall-clock:ReadNow\n"
                        "determinism-taint wall-clock:GoneFunction\n");
  const std::vector<Finding> findings = analyzer.Run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "stale-baseline");
  EXPECT_EQ(findings[0].file, "tools/analyze/analysis_baseline.txt");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("wall-clock:GoneFunction"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism of the analyzer itself

TEST(Determinism, FindingOrderIsStableAndSorted) {
  auto run_once = [] {
    Analyzer analyzer;
    analyzer.AddFile("src/core/b.cc",
                     "int DrawB() { return rand(); }\n"
                     "int ClockB() { return clock(); }\n");
    analyzer.AddFile("src/core/a.cc", "int DrawA() { return rand(); }\n");
    analyzer.AddFile("src/server/s.h", "struct S {};\n");
    analyzer.AddFile("src/catalog/c.h",
                     "#include \"server/s.h\"\n"
                     "struct C {};\n");
    std::vector<std::string> lines;
    for (const Finding& finding : analyzer.Run()) {
      lines.push_back(lint::FormatFinding(finding));
    }
    return lines;
  };
  const std::vector<std::string> first = run_once();
  const std::vector<std::string> second = run_once();
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 4u);
  // Sorted by (file, line, rule): catalog layering first, then the two
  // core files in path order, each by line.
  EXPECT_EQ(first[0].rfind("src/catalog/c.h:1: layer-violation", 0), 0u)
      << first[0];
  EXPECT_EQ(first[1].rfind("src/core/a.cc:1: determinism-taint", 0), 0u);
  EXPECT_EQ(first[2].rfind("src/core/b.cc:1: determinism-taint", 0), 0u);
  EXPECT_EQ(first[3].rfind("src/core/b.cc:2: determinism-taint", 0), 0u);
}

// ---------------------------------------------------------------------------
// Retired path-scoped lint rules, re-proved against the analyzer. The
// per-line `server-wall-clock` / `optimizer-wall-clock` rules (and the
// restrict_path_substrings scoping that carried them) are gone; these
// are their lint_test scenarios, re-expressed as taint fixtures, so the
// coverage that retired with them stays pinned here.

TEST(ServerWallClockRegression, StopwatchInServerCodeStillFires) {
  Analyzer analyzer;
  analyzer.AddFile("src/common/stopwatch.h",
                   "class Stopwatch { public: double ElapsedMs(); };\n");
  analyzer.AddFile("src/server/query_server.cc",
                   "double Latency() {\n"
                   "  Stopwatch sw;\n"
                   "  return sw.ElapsedMs();\n"
                   "}\n");
  const std::vector<Finding> findings = analyzer.Run();
  const Finding* finding = FindRule(findings, "determinism-taint");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->file, "src/server/query_server.cc");
  EXPECT_NE(finding->message.find("wall-clock:Latency"), std::string::npos);
}

TEST(ServerWallClockRegression, WallMsReadInServerCodeStillFires) {
  Analyzer analyzer;
  analyzer.AddFile("src/server/query_server.cc",
                   "double Report(const Stats& stats) {\n"
                   "  return stats.wall_ms;\n"
                   "}\n");
  EXPECT_TRUE(HasRule(analyzer.Run(), "determinism-taint"));
}

TEST(ServerWallClockRegression, SimulatedLatencyMathStaysQuiet) {
  Analyzer analyzer;
  analyzer.AddFile("src/server/query_server.cc",
                   "double Report(const JobCost& cost) {\n"
                   "  // wall_ms is deliberately absent here\n"
                   "  return cost.total_ms + cost.admission_wait_ms;\n"
                   "}\n"
                   "const char* doc = \"no Stopwatch in the server\";\n");
  EXPECT_TRUE(analyzer.Run().empty());
}

TEST(OptimizerWallClockRegression, WallClockInPlannerStillFires) {
  Analyzer analyzer;
  analyzer.AddFile("src/optimizer/cost_model.cc",
                   "double Price(const Result& result) {\n"
                   "  return result.wall_ms;\n"
                   "}\n");
  const std::vector<Finding> findings = analyzer.Run();
  const Finding* finding = FindRule(findings, "determinism-taint");
  ASSERT_NE(finding, nullptr);
  EXPECT_NE(finding->message.find("wall-clock:Price"), std::string::npos);
}

TEST(OptimizerWallClockRegression, SimulatedCostMathStaysQuiet) {
  Analyzer analyzer;
  analyzer.AddFile("src/optimizer/cost_model.cc",
                   "double Price(const Cluster& cluster) {\n"
                   "  return cluster.job_startup_ms +\n"
                   "         mapreduce::Makespan(tasks, cluster.num_slots);\n"
                   "}\n");
  EXPECT_TRUE(analyzer.Run().empty());
}

}  // namespace
}  // namespace shadoop::analyze
