#include <gtest/gtest.h>

#include <set>

#include "catalog/dataset_catalog.h"
#include "geometry/skyline.h"
#include "geometry/wkt.h"
#include "pigeon/executor.h"
#include "pigeon/lexer.h"
#include "pigeon/parser.h"
#include "test_util.h"

namespace shadoop::pigeon {
namespace {

TEST(LexerTest, TokenizesAllKinds) {
  auto tokens = Tokenize("pts = LOAD '/p' AS point; -- comment\nK 5 (1,-2.5e1)")
                    .ValueOrDie();
  std::vector<TokenType> kinds;
  for (const Token& t : tokens) kinds.push_back(t.type);
  EXPECT_EQ(kinds, (std::vector<TokenType>{
                       TokenType::kIdentifier, TokenType::kEquals,
                       TokenType::kIdentifier, TokenType::kString,
                       TokenType::kIdentifier, TokenType::kIdentifier,
                       TokenType::kSemicolon, TokenType::kIdentifier,
                       TokenType::kNumber, TokenType::kLeftParen,
                       TokenType::kNumber, TokenType::kComma,
                       TokenType::kNumber, TokenType::kRightParen,
                       TokenType::kEnd}));
  EXPECT_EQ(tokens[3].text, "/p");
  EXPECT_DOUBLE_EQ(tokens[12].number, -25.0);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a = @;").ok());
}

TEST(ParserTest, ParsesFullScript) {
  const char* script = R"(
    pts = LOAD '/pts' AS POINT;
    idx = INDEX pts WITH STR INTO '/pts.idx';
    r = RANGE idx RECTANGLE(0, 0, 10, 10);
    nn = KNN idx POINT(5, 5) K 3;
    j = SJOIN r, nn;
    s = SKYLINE idx;
    STORE s INTO '/out';
    DUMP r;
  )";
  const Script parsed = Parse(script).ValueOrDie();
  ASSERT_EQ(parsed.size(), 8u);
  EXPECT_EQ(parsed[0].expr.kind, Expr::Kind::kLoad);
  EXPECT_EQ(parsed[1].expr.kind, Expr::Kind::kIndex);
  EXPECT_EQ(parsed[1].expr.scheme, index::PartitionScheme::kStr);
  EXPECT_EQ(parsed[2].expr.range, Envelope(0, 0, 10, 10));
  EXPECT_EQ(parsed[3].expr.k, 3u);
  EXPECT_EQ(parsed[4].expr.source, "r");
  EXPECT_EQ(parsed[4].expr.source_b, "nn");
  EXPECT_EQ(parsed[6].kind, Statement::Kind::kStore);
  EXPECT_EQ(parsed[7].kind, Statement::Kind::kDump);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto missing_semi = Parse("a = LOAD '/x' AS POINT");
  ASSERT_FALSE(missing_semi.ok());
  EXPECT_NE(missing_semi.status().message().find("line 1"), std::string::npos);

  auto bad_op = Parse("\n\na = FROBNICATE b;");
  ASSERT_FALSE(bad_op.ok());
  EXPECT_NE(bad_op.status().message().find("line 3"), std::string::npos);

  EXPECT_FALSE(Parse("a = RANGE b RECTANGLE(5, 5, 1, 1);").ok())
      << "inverted rectangle";
  EXPECT_FALSE(Parse("a = KNN b POINT(1,2) K 0;").ok());
  EXPECT_FALSE(Parse("a = LOAD '/x' AS BLOB;").ok());
}

TEST(ExecutorTest, EndToEndQueryPipeline) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      shadoop::testing::WritePoints(&cluster.fs, "/pts", 1200);
  Executor executor(&cluster.runner);
  const char* script = R"(
    pts = LOAD '/pts' AS POINT;
    idx = INDEX pts WITH STR INTO '/pts.idx';
    near = KNN idx POINT(500000, 500000) K 5;
    box = RANGE idx RECTANGLE(100000, 100000, 300000, 300000);
    STORE box INTO '/box_out';
    DUMP near;
  )";
  const ExecutionReport report = executor.Execute(script).ValueOrDie();
  EXPECT_EQ(report.dump_output.size(), 5u);
  EXPECT_GT(report.stats.jobs_run, 2);

  // STORE materialized the range result.
  const auto stored = cluster.fs.ReadLines("/box_out").ValueOrDie();
  size_t expected = 0;
  const Envelope query(100000, 100000, 300000, 300000);
  for (const Point& p : points) {
    if (query.Contains(p)) ++expected;
  }
  EXPECT_EQ(stored.size(), expected);
}

TEST(ExecutorTest, SkylineViaScriptMatchesLibrary) {
  testing::TestCluster cluster;
  const std::vector<Point> points = shadoop::testing::WritePoints(
      &cluster.fs, "/pts", 900, workload::Distribution::kAntiCorrelated);
  Executor executor(&cluster.runner);
  const ExecutionReport report =
      executor
          .Execute(
              "p = LOAD '/pts' AS POINT; s = SKYLINE p; DUMP s;")
          .ValueOrDie();
  std::multiset<std::string> got(report.dump_output.begin(),
                                 report.dump_output.end());
  std::multiset<std::string> expected;
  for (const Point& p : Skyline(points)) expected.insert(PointToCsv(p));
  EXPECT_EQ(got, expected);
}

TEST(ExecutorTest, EnvironmentPersistsAcrossCalls) {
  testing::TestCluster cluster;
  shadoop::testing::WritePoints(&cluster.fs, "/pts", 300);
  Executor executor(&cluster.runner);
  ASSERT_TRUE(executor.Execute("p = LOAD '/pts' AS POINT;").ok());
  const ExecutionReport report =
      executor.Execute("h = CONVEXHULL p; DUMP h;").ValueOrDie();
  EXPECT_GE(report.dump_output.size(), 3u);
}

TEST(ExecutorTest, ErrorsForBadReferences) {
  testing::TestCluster cluster;
  Executor executor(&cluster.runner);
  EXPECT_TRUE(executor.Execute("DUMP nothing;").status().IsInvalidArgument());
  EXPECT_TRUE(executor.Execute("p = LOAD '/missing' AS POINT;")
                  .status()
                  .IsInvalidArgument());
  shadoop::testing::WritePoints(&cluster.fs, "/pts", 100);
  ASSERT_TRUE(executor.Execute("p = LOAD '/pts' AS POINT;").ok());
  EXPECT_TRUE(executor.Execute("c = CLOSESTPAIR p;")
                  .status()
                  .IsInvalidArgument())
      << "closest pair needs an index";
  EXPECT_TRUE(executor.Execute("u = UNION p;").status().IsInvalidArgument())
      << "union needs polygons";
}

TEST(ExecutorTest, CountAndLoadIndexStatements) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      shadoop::testing::WritePoints(&cluster.fs, "/pts", 800);
  Executor builder(&cluster.runner);
  ASSERT_TRUE(builder
                  .Execute("p = LOAD '/pts' AS POINT;"
                           "i = INDEX p WITH KDTREE INTO '/pts.kd';")
                  .ok());

  // A fresh session reopens the index by path (no rebuild) and counts.
  Executor session(&cluster.runner);
  const ExecutionReport report =
      session
          .Execute(
              "i = LOADINDEX '/pts.kd';"
              "c = COUNT i RECTANGLE(0, 0, 500000, 1000000);"
              "DUMP c;")
          .ValueOrDie();
  ASSERT_EQ(report.dump_output.size(), 1u);
  int64_t expected = 0;
  const Envelope query(0, 0, 500000, 1000000);
  for (const Point& p : points) expected += query.Contains(p);
  EXPECT_EQ(report.dump_output.front(), std::to_string(expected));

  EXPECT_TRUE(session.Execute("x = LOADINDEX '/nothing';")
                  .status()
                  .IsInvalidArgument());
}

TEST(ExecutorTest, KnnJoinStatement) {
  testing::TestCluster cluster;
  shadoop::testing::WritePoints(&cluster.fs, "/a", 120,
                                workload::Distribution::kUniform, 5);
  shadoop::testing::WritePoints(&cluster.fs, "/b", 200,
                                workload::Distribution::kUniform, 6);
  Executor executor(&cluster.runner);
  const ExecutionReport report =
      executor
          .Execute(
              "a = LOAD '/a' AS POINT;"
              "b = LOAD '/b' AS POINT;"
              "ai = INDEX a WITH STR;"
              "bi = INDEX b WITH STR;"
              "nn = KNNJOIN ai, bi K 3;"
              "DUMP nn;")
          .ValueOrDie();
  EXPECT_EQ(report.dump_output.size(), 120u * 3);

  // Unindexed inputs are rejected with a clear error.
  EXPECT_TRUE(executor.Execute("x = KNNJOIN a, b K 3;")
                  .status()
                  .IsInvalidArgument());
}

TEST(ExecutorTest, ExplainDescribesBindings) {
  testing::TestCluster cluster;
  shadoop::testing::WritePoints(&cluster.fs, "/pts", 400);
  Executor executor(&cluster.runner);
  const ExecutionReport report =
      executor
          .Execute(
              "p = LOAD '/pts' AS POINT;"
              "i = INDEX p WITH GRID;"
              "r = RANGE i RECTANGLE(0, 0, 100, 100);"
              "EXPLAIN p; EXPLAIN i; EXPLAIN r;")
          .ValueOrDie();
  ASSERT_EQ(report.dump_output.size(), 3u);
  EXPECT_NE(report.dump_output[0].find("raw file '/pts'"), std::string::npos);
  EXPECT_NE(report.dump_output[0].find("full-scan"), std::string::npos);
  EXPECT_NE(report.dump_output[1].find("scheme=grid"), std::string::npos);
  EXPECT_NE(report.dump_output[1].find("pruned"), std::string::npos);
  EXPECT_NE(report.dump_output[2].find("materialized result"),
            std::string::npos);
}

TEST(ExecutorTest, JoinRoutesToDistributedJoinWhenIndexed) {
  testing::TestCluster cluster;
  workload::RectGenOptions options;
  options.centers.count = 300;
  options.centers.seed = 2;
  options.max_side_fraction = 0.05;
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/a", workload::RectanglesToRecords(
                                        workload::GenerateRectangles(options)))
                  .ok());
  options.centers.seed = 3;
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/b", workload::RectanglesToRecords(
                                        workload::GenerateRectangles(options)))
                  .ok());
  Executor executor(&cluster.runner);
  const char* script = R"(
    a = LOAD '/a' AS RECTANGLE;
    b = LOAD '/b' AS RECTANGLE;
    ai = INDEX a WITH GRID;
    bi = INDEX b WITH GRID;
    joined = SJOIN ai, bi;
    DUMP joined;
  )";
  const ExecutionReport indexed = executor.Execute(script).ValueOrDie();

  Executor executor2(&cluster.runner);
  const char* script2 = R"(
    a = LOAD '/a' AS RECTANGLE;
    b = LOAD '/b' AS RECTANGLE;
    joined = SJOIN a, b;
    DUMP joined;
  )";
  const ExecutionReport unindexed = executor2.Execute(script2).ValueOrDie();
  std::multiset<std::string> left(indexed.dump_output.begin(),
                                  indexed.dump_output.end());
  std::multiset<std::string> right(unindexed.dump_output.begin(),
                                   unindexed.dump_output.end());
  EXPECT_EQ(left, right) << "both join paths must agree";
}

TEST(ExecutorTest, PreparedStatementKeepsItsSnapshot) {
  // Prepare resolves a source once, `SET snapshot_version 0` re-pin
  // included: an append by another executor that lands between Prepare
  // and Run does not change what the prepared statement reads.
  testing::TestCluster cluster;
  shadoop::testing::WritePoints(&cluster.fs, "/pts", 500);
  shadoop::testing::WritePoints(&cluster.fs, "/batch", 200,
                                workload::Distribution::kUniform,
                                /*seed=*/11);
  catalog::DatasetCatalog catalog(&cluster.runner);
  Executor writer(&cluster.runner, &catalog);
  ASSERT_TRUE(
      writer.Execute("raw = LOAD '/pts' AS POINT; idx = INDEX raw WITH GRID;")
          .ok());
  Executor reader(&cluster.runner, &catalog);
  reader.Bind("idx", CatalogDataset("idx", 1,
                                    catalog.Snapshot("idx", 1).ValueOrDie()));
  ASSERT_TRUE(reader.Execute("SET snapshot_version 0;").ok());

  const Script count =
      Parse("c = COUNT idx RECTANGLE(0, 0, 1000000, 1000000);").ValueOrDie();
  const PreparedStatement prepared = reader.Prepare(count[0]).ValueOrDie();
  ASSERT_EQ(prepared.sources.size(), 1u);
  EXPECT_EQ(prepared.sources[0].version, 1u);
  ASSERT_TRUE(writer.Execute("g = LOAD '/batch' APPEND idx;").ok());
  ASSERT_EQ(catalog.LatestVersion("idx").ValueOrDie(), 2u);

  ExecutionReport report;
  ASSERT_TRUE(reader.Run(prepared, &report).ok());
  ASSERT_TRUE(reader.ExecuteInto("DUMP c;", &report).ok());
  ASSERT_TRUE(reader.Run(reader.Prepare(count[0]).ValueOrDie(), &report).ok());
  ASSERT_TRUE(reader.ExecuteInto("DUMP c;", &report).ok());
  EXPECT_EQ(report.dump_output, (std::vector<std::string>{"500", "700"}));
}

}  // namespace
}  // namespace shadoop::pigeon
