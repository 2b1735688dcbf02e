// Robustness tests: malformed inputs at every persistence boundary
// (records, master files, scripts) must produce clean Status errors or
// counted-and-skipped records — never crashes or silent corruption.

#include <gtest/gtest.h>

#include "core/range_query.h"
#include "core/spatial_join.h"
#include "fault/fault_injector.h"
#include "geometry/wkt.h"
#include "index/global_index.h"
#include "index/index_builder.h"
#include "pigeon/executor.h"
#include "pigeon/lexer.h"
#include "pigeon/parser.h"
#include "test_util.h"

namespace shadoop {
namespace {

using index::PartitionScheme;

// ---------------------------------------------------------------------
// Malformed records in data files.

TEST(MalformedRecordTest, IndexBuildSkipsAndCountsBadRecords) {
  testing::TestCluster cluster;
  std::vector<std::string> records = {"1,2",       "oops",       "3,4",
                                      "5,not-a-y", "7,8\tattrs", ",",
                                      "9,10"};
  ASSERT_TRUE(cluster.fs.WriteLines("/mixed", records).ok());
  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  options.scheme = PartitionScheme::kStr;
  const auto file = builder.Build("/mixed", "/mixed.idx", options)
                        .ValueOrDie();
  size_t stored = 0;
  for (const auto& p : file.global_index.partitions()) {
    stored += p.num_records;
  }
  EXPECT_EQ(stored, 4u) << "only the four parseable records are indexed";
}

TEST(MalformedRecordTest, QueriesCountBadRecordsInsteadOfFailing) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/mixed", {"1,1", "garbage", "2,2", "x,y"})
                  .ok());
  core::OpStats stats;
  auto result = core::RangeQueryHadoop(&cluster.runner, "/mixed",
                                       index::ShapeType::kPoint,
                                       Envelope(0, 0, 10, 10), &stats)
                    .ValueOrDie();
  EXPECT_EQ(result.size(), 2u);
  EXPECT_EQ(stats.counters.Get("range.bad_records"), 2);
}

TEST(MalformedRecordTest, EmptyFileCannotBeIndexed) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/empty", {"x", "y"}).ok());
  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  const auto result = builder.Build("/empty", "/empty.idx", options);
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << "a file with no valid records has no MBR to index";
}

// ---------------------------------------------------------------------
// Corrupt master files.

TEST(CorruptMasterTest, LoaderRejectsBadHeaders) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/data", {"1,1"}).ok());

  ASSERT_TRUE(cluster.fs.WriteLines("/data_master", {"no header"}).ok());
  EXPECT_TRUE(
      index::LoadSpatialFile(cluster.fs, "/data").status().IsParseError());
  ASSERT_TRUE(cluster.fs.Delete("/data_master").ok());

  ASSERT_TRUE(
      cluster.fs.WriteLines("/data_master", {"#scheme=warp shape=point"})
          .ok());
  EXPECT_TRUE(index::LoadSpatialFile(cluster.fs, "/data")
                  .status()
                  .IsInvalidArgument());
  ASSERT_TRUE(cluster.fs.Delete("/data_master").ok());

  ASSERT_TRUE(cluster.fs
                  .WriteLines("/data_master",
                              {"#scheme=grid shape=point", "1,2,3"})
                  .ok());
  EXPECT_TRUE(
      index::LoadSpatialFile(cluster.fs, "/data").status().IsParseError());
}

TEST(CorruptMasterTest, GlobalIndexLineRoundTripAndErrors) {
  index::Partition p;
  p.id = 3;
  p.block_index = 7;
  p.cell = Envelope(0, 0, 10, 10);
  p.mbr = Envelope(1, 1, 9, 9);
  p.num_records = 42;
  p.num_bytes = 1234;
  const index::GlobalIndex gi(PartitionScheme::kGrid, {p});
  const auto lines = gi.ToLines();
  ASSERT_EQ(lines.size(), 1u);
  const index::Partition parsed =
      index::GlobalIndex::ParseLine(lines[0]).ValueOrDie();
  EXPECT_EQ(parsed.mbr, p.mbr);
  EXPECT_EQ(parsed.num_records, 42u);

  EXPECT_FALSE(index::GlobalIndex::ParseLine("1,2,3").ok());
  EXPECT_FALSE(index::GlobalIndex::ParseLine("a,b,0,0,1,1,0,0,1,1,5,5").ok());
  EXPECT_FALSE(index::GlobalIndex::ParseLine("1,2,0,0,1,1,0,0,1,1,-5,5").ok());

  // The cell and the MBR must each be a finite box with min <= max on
  // both axes, or exactly the canonical empty box, which an empty
  // partition writes and reads back.
  const char* impossible[] = {
      "1,2,0,0,1,1,5,0,3,1,5,5",            // Inverted MBR.
      "1,2,0,0,1,1,0,3,1,2,5,5",            // MBR inverted in y.
      "1,2,1,0,0,1,0,0,1,1,5,5",            // Inverted cell.
      "1,2,0,0,1,1,nan,0,1,1,5,5",          // NaN MBR.
      "1,2,0,nan,1,1,0,0,1,1,5,5",          // NaN cell.
      "1,2,0,0,1,1,0,0,inf,1,5,5",          // Infinite MBR corner.
      "1,2,-inf,-inf,inf,inf,0,0,1,1,5,5",  // Infinite cell.
      "1,2,0,0,1,1,inf,0,-inf,1,5,5",       // Empty in x only.
  };
  for (const char* line : impossible) {
    const Status status = index::GlobalIndex::ParseLine(line).status();
    EXPECT_TRUE(status.IsParseError()) << line << ": " << status.ToString();
  }
  index::Partition empty = p;
  empty.mbr = Envelope();
  const std::string empty_line =
      index::GlobalIndex(PartitionScheme::kGrid, {empty}).ToLines()[0];
  EXPECT_EQ(empty_line, "3,7,0,0,10,10,inf,inf,-inf,-inf,42,1234");
  EXPECT_TRUE(
      index::GlobalIndex::ParseLine(empty_line).ValueOrDie().mbr.IsEmpty());
}

// ---------------------------------------------------------------------
// Pigeon parser robustness.

TEST(PigeonRobustnessTest, ParserRejectsMalformedStatements) {
  const char* bad_scripts[] = {
      "= LOAD '/x' AS POINT;",                // Missing name.
      "a LOAD '/x' AS POINT;",                // Missing '='.
      "a = LOAD;",                            // Missing path.
      "a = LOAD '/x';",                       // Missing AS.
      "a = INDEX b WITH;",                    // Missing scheme.
      "a = INDEX b WITH FOO;",                // Unknown scheme.
      "a = RANGE b RECTANGLE(1, 2, 3);",      // Too few numbers.
      "a = RANGE b RECTANGLE(1, 2, 3, x);",   // Non-number.
      "a = KNN b POINT(1) K 2;",              // Bad point.
      "a = KNNJOIN b, c;",                    // Missing K.
      "a = SJOIN b;",                         // Missing second input.
      "STORE a;",                             // Missing INTO.
      "DUMP;",                                // Missing name.
      "a = LOAD '/x' AS POINT",               // Missing ';'.
      "'stray string';",                      // Not a statement.
  };
  for (const char* script : bad_scripts) {
    EXPECT_FALSE(pigeon::Parse(script).ok()) << script;
  }
}

TEST(PigeonRobustnessTest, LexerHandlesTrickyNumbers) {
  auto tokens = pigeon::Tokenize("1e5 -2.5 +3 .5 1E-3").ValueOrDie();
  ASSERT_EQ(tokens.size(), 6u);  // 5 numbers + end.
  EXPECT_DOUBLE_EQ(tokens[0].number, 1e5);
  EXPECT_DOUBLE_EQ(tokens[1].number, -2.5);
  EXPECT_DOUBLE_EQ(tokens[2].number, 3);
  EXPECT_DOUBLE_EQ(tokens[3].number, 0.5);
  EXPECT_DOUBLE_EQ(tokens[4].number, 1e-3);
  EXPECT_FALSE(pigeon::Tokenize("1.2.3").ok());
}

TEST(PigeonRobustnessTest, ExecutorErrorsNameTheLine) {
  testing::TestCluster cluster;
  pigeon::Executor executor(&cluster.runner);
  const auto status =
      executor.Execute("\n\n\nx = RANGE ghost RECTANGLE(0,0,1,1);").status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("line 4"), std::string::npos)
      << status.ToString();
}

TEST(PigeonRobustnessTest, TaskAbortSurfacesAttemptHistoryWithLine) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/pts", {"1,1", "2,2"}).ok());
  // An injector that fails every attempt makes the first job of the
  // statement exhaust its retry budget; the executor's error must carry
  // the statement line, the failing task and the attempt history.
  fault::FaultPolicy policy;
  policy.seed = 3;
  policy.map_failure_prob = 1.0;
  policy.reduce_failure_prob = 1.0;
  fault::FaultInjector injector(policy);
  cluster.runner.set_fault_injector(&injector);
  pigeon::Executor executor(&cluster.runner);
  const auto status =
      executor.Execute("p = LOAD '/pts' AS POINT;\nx = RANGE p "
                       "RECTANGLE(0,0,10,10);")
          .status();
  cluster.runner.set_fault_injector(nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("task 0"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("attempt(s)"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("#3 FAILED"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------
// Fault-matrix sweep: seeds × failure rates × ops. The invariant under
// deterministic fault injection is checksum parity — every op's rows are
// identical to the fault-free run; only the fault counters move, and they
// move monotonically with the injected rates.

struct SweepOutcome {
  std::vector<std::string> index_lines;  // Global index of the build.
  std::vector<std::string> range_rows;
  std::vector<std::string> join_rows;
  int64_t task_retries = 0;
  int64_t speculative_launched = 0;
  int64_t replica_failovers = 0;
};

/// Runs index build + range query + spatial join on a fresh cluster with
/// the given fault policy (all-zero = clean run).
SweepOutcome RunFaultMatrixCell(uint64_t seed, double task_failure_rate,
                                double read_fault_rate) {
  testing::TestCluster cluster;
  fault::FaultPolicy policy;
  policy.seed = seed;
  policy.map_failure_prob = task_failure_rate;
  policy.reduce_failure_prob = task_failure_rate;
  policy.straggler_prob = task_failure_rate;
  policy.read_io_error_prob = read_fault_rate;
  policy.read_corruption_prob = read_fault_rate / 2;
  fault::FaultInjector injector(policy);
  if (policy.AnyTaskFaults()) cluster.runner.set_fault_injector(&injector);
  if (policy.AnyReadFaults()) cluster.fs.set_fault_injector(&injector);

  testing::WritePoints(&cluster.fs, "/a", 600, workload::Distribution::kUniform,
                       /*seed=*/5);
  workload::RectGenOptions rects;
  rects.centers.count = 250;
  rects.centers.seed = 6;
  rects.max_side_fraction = 0.04;
  EXPECT_TRUE(cluster.fs
                  .WriteLines("/ra", workload::RectanglesToRecords(
                                         workload::GenerateRectangles(rects)))
                  .ok());
  rects.centers.count = 200;
  rects.centers.seed = 7;
  EXPECT_TRUE(cluster.fs
                  .WriteLines("/rb", workload::RectanglesToRecords(
                                         workload::GenerateRectangles(rects)))
                  .ok());

  SweepOutcome outcome;
  core::OpStats stats;

  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/a", "/a.idx", PartitionScheme::kStr);
  outcome.index_lines = file.global_index.ToLines();

  outcome.range_rows =
      core::RangeQuerySpatial(&cluster.runner, file,
                              Envelope(2e5, 2e5, 7e5, 7e5), &stats)
          .ValueOrDie();
  outcome.join_rows = core::SjmrJoin(&cluster.runner, "/ra",
                                     index::ShapeType::kRectangle, "/rb",
                                     index::ShapeType::kRectangle, &stats)
                          .ValueOrDie();

  outcome.task_retries = stats.cost.task_retries;
  outcome.speculative_launched = stats.cost.speculative_launched;
  outcome.replica_failovers =
      file.build_cost.replica_failovers + stats.cost.replica_failovers;
  return outcome;
}

TEST(FaultMatrixTest, ChecksumParityAndCounterMonotonicityAcrossTheMatrix) {
  const SweepOutcome clean = RunFaultMatrixCell(0, 0.0, 0.0);
  ASSERT_FALSE(clean.range_rows.empty());
  ASSERT_FALSE(clean.join_rows.empty());
  EXPECT_EQ(clean.task_retries, 0);
  EXPECT_EQ(clean.replica_failovers, 0);

  for (uint64_t seed : {101u, 202u, 303u}) {
    // Task-fault sweep (two rates, same seed): identical rows; retries
    // monotone in the rate — the per-attempt failure draws are threshold
    // comparisons, so raising the rate only adds failures.
    const SweepOutcome low = RunFaultMatrixCell(seed, 0.05, 0.0);
    const SweepOutcome high = RunFaultMatrixCell(seed, 0.12, 0.0);
    for (const SweepOutcome* faulty : {&low, &high}) {
      EXPECT_EQ(faulty->index_lines, clean.index_lines) << "seed " << seed;
      EXPECT_EQ(faulty->range_rows, clean.range_rows) << "seed " << seed;
      EXPECT_EQ(faulty->join_rows, clean.join_rows) << "seed " << seed;
    }
    EXPECT_LE(low.task_retries, high.task_retries) << "seed " << seed;
    EXPECT_LE(low.speculative_launched, high.speculative_launched)
        << "seed " << seed;

    // Read-fault sweep: replica failovers recover silently (identical
    // rows) and grow with the rate.
    const SweepOutcome read_low = RunFaultMatrixCell(seed, 0.0, 0.2);
    const SweepOutcome read_high = RunFaultMatrixCell(seed, 0.0, 0.5);
    EXPECT_EQ(read_low.range_rows, clean.range_rows) << "seed " << seed;
    EXPECT_EQ(read_high.join_rows, clean.join_rows) << "seed " << seed;
    EXPECT_EQ(read_high.index_lines, clean.index_lines) << "seed " << seed;
    EXPECT_GT(read_high.replica_failovers, 0) << "seed " << seed;
    EXPECT_LE(read_low.replica_failovers, read_high.replica_failovers)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Misc persistence boundaries.

TEST(PersistenceTest, StoreOfFileDatasetCopiesIt) {
  testing::TestCluster cluster;
  shadoop::testing::WritePoints(&cluster.fs, "/pts", 50);
  pigeon::Executor executor(&cluster.runner);
  ASSERT_TRUE(executor
                  .Execute("p = LOAD '/pts' AS POINT;"
                           "STORE p INTO '/copy';")
                  .ok());
  EXPECT_EQ(cluster.fs.ReadLines("/copy").ValueOrDie(),
            cluster.fs.ReadLines("/pts").ValueOrDie());
}

TEST(PersistenceTest, ReindexingViaPigeonOverSameDestFails) {
  testing::TestCluster cluster;
  shadoop::testing::WritePoints(&cluster.fs, "/pts", 50);
  pigeon::Executor executor(&cluster.runner);
  ASSERT_TRUE(executor
                  .Execute("p = LOAD '/pts' AS POINT;"
                           "i = INDEX p WITH GRID INTO '/pts.g';")
                  .ok());
  EXPECT_TRUE(executor
                  .Execute("p2 = LOAD '/pts' AS POINT;"
                           "i2 = INDEX p2 WITH GRID INTO '/pts.g';")
                  .status()
                  .IsAlreadyExists());
}

}  // namespace
}  // namespace shadoop
