#include "catalog/dataset_catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/aggregate_op.h"
#include "core/range_query.h"
#include "pigeon/executor.h"
#include "test_util.h"

namespace shadoop::catalog {
namespace {

using index::PartitionScheme;
using index::SpatialFileInfo;

std::multiset<std::string> Sorted(const std::vector<std::string>& lines) {
  return {lines.begin(), lines.end()};
}

std::vector<Point> MakePoints(size_t count, uint64_t seed,
                              workload::Distribution dist =
                                  workload::Distribution::kUniform,
                              Envelope space = Envelope(0, 0, 1e6, 1e6)) {
  workload::PointGenOptions options;
  options.distribution = dist;
  options.count = count;
  options.seed = seed;
  options.space = space;
  return workload::GeneratePoints(options);
}

void WriteRecords(hdfs::FileSystem* fs, const std::string& path,
                  const std::vector<Point>& points) {
  SHADOOP_CHECK_OK(fs->WriteLines(path, workload::PointsToRecords(points)));
}

index::IndexBuildOptions BuildOptions(PartitionScheme scheme) {
  index::IndexBuildOptions options;
  options.scheme = scheme;
  options.shape = index::ShapeType::kPoint;
  return options;
}

/// The query rectangles every parity check runs: a corner, a center box,
/// a thin slab and the full space.
std::vector<Envelope> ParityQueries() {
  return {Envelope(0, 0, 2e5, 2e5), Envelope(3e5, 3e5, 7e5, 7e5),
          Envelope(0, 4.5e5, 1e6, 5.5e5), Envelope(0, 0, 1e6, 1e6)};
}

// ---------------------------------------------------------------------------
// Core invariant: a dataset grown through N append batches answers every
// query exactly like the same records bulk-loaded once — same rows, same
// matching counters — for a disjoint grid, an overlapping STR layout and
// a quadtree.

class IncrementalParityTest
    : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(IncrementalParityTest, AppendedEqualsBulkLoaded) {
  const PartitionScheme scheme = GetParam();
  const std::vector<std::vector<Point>> batches = {
      MakePoints(1200, 11), MakePoints(900, 22, workload::Distribution::kClustered),
      MakePoints(700, 33, workload::Distribution::kGaussian)};
  std::vector<Point> all;
  for (const auto& batch : batches) {
    all.insert(all.end(), batch.begin(), batch.end());
  }

  testing::TestCluster bulk_cluster;
  WriteRecords(&bulk_cluster.fs, "/all", all);
  index::IndexBuilder bulk_builder(&bulk_cluster.runner);
  const SpatialFileInfo bulk =
      bulk_builder.Build("/all", "/all.idx", BuildOptions(scheme)).ValueOrDie();

  testing::TestCluster inc_cluster;
  for (size_t i = 0; i < batches.size(); ++i) {
    WriteRecords(&inc_cluster.fs, "/b" + std::to_string(i), batches[i]);
  }
  DatasetCatalog catalog(&inc_cluster.runner);
  SHADOOP_CHECK_OK(catalog
                       .Create("pts", "/b0", "/pts.idx", BuildOptions(scheme))
                       .status());
  for (size_t i = 1; i < batches.size(); ++i) {
    const auto version = catalog.Append("pts", "/b" + std::to_string(i));
    SHADOOP_CHECK_OK(version.status());
    EXPECT_EQ(version.value(), i + 1);
  }
  const SpatialFileInfo inc = catalog.Snapshot("pts").ValueOrDie();

  for (const Envelope& query : ParityQueries()) {
    core::OpStats bulk_stats;
    core::OpStats inc_stats;
    const auto bulk_rows =
        core::RangeQuerySpatial(&bulk_cluster.runner, bulk, query, &bulk_stats)
            .ValueOrDie();
    const auto inc_rows =
        core::RangeQuerySpatial(&inc_cluster.runner, inc, query, &inc_stats)
            .ValueOrDie();
    EXPECT_EQ(Sorted(bulk_rows), Sorted(inc_rows));
    EXPECT_EQ(bulk_stats.counters.Get("range.matches"),
              inc_stats.counters.Get("range.matches"));
    EXPECT_EQ(bulk_stats.counters.Get("range.bad_records"),
              inc_stats.counters.Get("range.bad_records"));

    const int64_t bulk_count =
        core::RangeCountSpatial(&bulk_cluster.runner, bulk, query)
            .ValueOrDie();
    const int64_t inc_count =
        core::RangeCountSpatial(&inc_cluster.runner, inc, query).ValueOrDie();
    EXPECT_EQ(bulk_count, inc_count);
    EXPECT_EQ(bulk_count, static_cast<int64_t>(bulk_rows.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(GridStrQuadtree, IncrementalParityTest,
                         ::testing::Values(PartitionScheme::kGrid,
                                           PartitionScheme::kStr,
                                           PartitionScheme::kQuadTree),
                         [](const auto& info) {
                           std::string name =
                               index::PartitionSchemeName(info.param);
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = 'x';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Snapshot isolation: a query pinned to version V keeps returning
// byte-identical results while concurrent appends create V+1, V+2, ...
// (Runs under the TSan suite; the catalog and filesystem are shared, the
// query thread uses its own runner.)

TEST(DatasetCatalogTest, PinnedSnapshotIsStableUnderConcurrentAppend) {
  testing::TestCluster cluster;
  mapreduce::JobRunner query_runner(&cluster.fs,
                                    testing::TestCluster::MakeCluster(4));
  WriteRecords(&cluster.fs, "/b0", MakePoints(1500, 7));
  for (int i = 1; i <= 3; ++i) {
    WriteRecords(&cluster.fs, "/b" + std::to_string(i),
                 MakePoints(600, 100 + i));
  }

  DatasetCatalog catalog(&cluster.runner);
  SHADOOP_CHECK_OK(
      catalog.Create("pts", "/b0", "/pts.idx", BuildOptions(PartitionScheme::kGrid))
          .status());
  const SpatialFileInfo pinned = catalog.Snapshot("pts", 1).ValueOrDie();
  const Envelope query(2e5, 2e5, 8e5, 8e5);
  const std::vector<std::string> baseline =
      core::RangeQuerySpatial(&query_runner, pinned, query).ValueOrDie();

  std::thread ingester([&] {
    for (int i = 1; i <= 3; ++i) {
      SHADOOP_CHECK_OK(
          catalog.Append("pts", "/b" + std::to_string(i)).status());
    }
  });
  for (int iter = 0; iter < 8; ++iter) {
    const std::vector<std::string> rows =
        core::RangeQuerySpatial(&query_runner, pinned, query).ValueOrDie();
    ASSERT_EQ(rows, baseline) << "iteration " << iter;
  }
  ingester.join();

  EXPECT_EQ(catalog.LatestVersion("pts").ValueOrDie(), 4u);
  // The pinned handle still answers identically after all appends landed.
  EXPECT_EQ(core::RangeQuerySpatial(&query_runner, pinned, query).ValueOrDie(),
            baseline);
  // And so does re-resolving version 1 through the catalog.
  const SpatialFileInfo v1 = catalog.Snapshot("pts", 1).ValueOrDie();
  EXPECT_EQ(core::RangeQuerySpatial(&query_runner, v1, query).ValueOrDie(),
            baseline);
}

// ---------------------------------------------------------------------------
// Skew trigger: a heavily clustered batch degrades one partition far past
// threshold * mean, so the append splits it (and only it) instead of
// rebuilding — and the grown dataset still answers exactly.

TEST(DatasetCatalogTest, SkewedAppendSplitsDegradedPartitions) {
  testing::TestCluster cluster;
  WriteRecords(&cluster.fs, "/b0", MakePoints(2000, 5));
  WriteRecords(&cluster.fs, "/hot",
               MakePoints(2000, 6, workload::Distribution::kUniform,
                          Envelope(4e5, 4e5, 4.2e5, 4.2e5)));

  // A 2%-wide hot box needs several rounds of midpoint halving before the
  // covering cell is small enough to cut through the cluster.
  IngestOptions options;
  options.max_split_rounds = 12;
  DatasetCatalog catalog(&cluster.runner, options);
  SHADOOP_CHECK_OK(
      catalog.Create("pts", "/b0", "/pts.idx", BuildOptions(PartitionScheme::kGrid))
          .status());
  const VersionStats before = catalog.Stats("pts").ValueOrDie();

  core::OpStats stats;
  SHADOOP_CHECK_OK(catalog.Append("pts", "/hot", &stats).status());
  const VersionStats after = catalog.Stats("pts").ValueOrDie();

  EXPECT_GT(stats.counters.Get("ingest.split_partitions"), 0);
  EXPECT_GT(after.num_partitions, before.num_partitions);
  EXPECT_EQ(after.num_records, before.num_records + 2000);
  // The splits drove the skew metric back under the trigger threshold —
  // the untreated layout would have piled all 2000 hot records into one
  // partition.
  EXPECT_LE(after.skew, options.skew_threshold + 1e-9);
  EXPECT_LT(after.max_partition_records, 2000u);

  const SpatialFileInfo v2 = catalog.Snapshot("pts").ValueOrDie();
  const auto rows = core::RangeQuerySpatial(&cluster.runner, v2,
                                            Envelope(0, 0, 1e6, 1e6))
                        .ValueOrDie();
  EXPECT_EQ(rows.size(), 4000u);
}

// ---------------------------------------------------------------------------
// Durability: per-version masters plus the @current pointer let a fresh
// catalog reattach the whole lineage.

TEST(DatasetCatalogTest, ReopensPersistedVersionLineage) {
  testing::TestCluster cluster;
  WriteRecords(&cluster.fs, "/b0", MakePoints(1000, 1));
  WriteRecords(&cluster.fs, "/b1", MakePoints(500, 2));
  WriteRecords(&cluster.fs, "/b2", MakePoints(500, 3));

  {
    DatasetCatalog catalog(&cluster.runner);
    SHADOOP_CHECK_OK(catalog
                         .Create("pts", "/b0", "/pts.idx",
                                 BuildOptions(PartitionScheme::kStr))
                         .status());
    SHADOOP_CHECK_OK(catalog.Append("pts", "/b1").status());
    SHADOOP_CHECK_OK(catalog.Append("pts", "/b2").status());
  }
  EXPECT_TRUE(cluster.fs.Exists(DatasetCatalog::CurrentPathFor("/pts.idx")));
  EXPECT_TRUE(
      cluster.fs.Exists(DatasetCatalog::VersionMasterPathFor("/pts.idx", 2)));
  EXPECT_TRUE(
      cluster.fs.Exists(DatasetCatalog::VersionMasterPathFor("/pts.idx", 3)));

  DatasetCatalog reopened(&cluster.runner);
  SHADOOP_CHECK_OK(reopened.Open("pts", "/pts.idx"));
  EXPECT_EQ(reopened.LatestVersion("pts").ValueOrDie(), 3u);
  EXPECT_EQ(reopened.Stats("pts", 1).ValueOrDie().num_records, 1000u);
  EXPECT_EQ(reopened.Stats("pts", 2).ValueOrDie().num_records, 1500u);
  EXPECT_EQ(reopened.Stats("pts", 3).ValueOrDie().num_records, 2000u);
  EXPECT_TRUE(reopened.Snapshot("pts", 5).status().IsNotFound());

  // Version 2 re-read from disk answers like the in-memory lineage did.
  const SpatialFileInfo v2 = reopened.Snapshot("pts", 2).ValueOrDie();
  const auto rows = core::RangeQuerySpatial(&cluster.runner, v2,
                                            Envelope(0, 0, 1e6, 1e6))
                        .ValueOrDie();
  EXPECT_EQ(rows.size(), 1500u);
}

// A corrupt @current pointer fails the open and names the file; it must
// never reopen the dataset at an older version than the masters on disk.
TEST(DatasetCatalogTest, CorruptCurrentPointerFailsTheOpen) {
  testing::TestCluster cluster;
  WriteRecords(&cluster.fs, "/b0", MakePoints(1000, 1));
  WriteRecords(&cluster.fs, "/b1", MakePoints(500, 2));
  WriteRecords(&cluster.fs, "/b2", MakePoints(500, 3));
  {
    DatasetCatalog catalog(&cluster.runner);
    SHADOOP_CHECK_OK(catalog
                         .Create("pts", "/b0", "/pts.idx",
                                 BuildOptions(PartitionScheme::kStr))
                         .status());
    SHADOOP_CHECK_OK(catalog.Append("pts", "/b1").status());
    SHADOOP_CHECK_OK(catalog.Append("pts", "/b2").status());
  }
  const std::string current = DatasetCatalog::CurrentPathFor("/pts.idx");
  auto open_with_current = [&](const std::string& value) {
    SHADOOP_CHECK_OK(cluster.fs.Delete(current));
    SHADOOP_CHECK_OK(cluster.fs.WriteLines(current, {value}));
    DatasetCatalog reopened(&cluster.runner);
    const Status status = reopened.Open("pts", "/pts.idx");
    EXPECT_FALSE(reopened.Contains("pts")) << value;
    return status;
  };

  for (const std::string value : {"0", "-4", "abc"}) {
    const Status status = open_with_current(value);
    EXPECT_TRUE(status.IsParseError()) << value << ": " << status.ToString();
    EXPECT_NE(status.ToString().find(current), std::string::npos)
        << status.ToString();
  }
  // A pointer past the last master names the missing master.
  const Status past_end = open_with_current("4");
  EXPECT_TRUE(past_end.IsNotFound()) << past_end.ToString();
  EXPECT_NE(past_end.ToString().find(
                DatasetCatalog::VersionMasterPathFor("/pts.idx", 4)),
            std::string::npos)
      << past_end.ToString();
}

// A version master naming a block past the end of the delta file fails the
// open with the master and the line, like a bulk master would.
TEST(DatasetCatalogTest, VersionMasterPastItsDeltaFailsTheOpen) {
  testing::TestCluster cluster;
  WriteRecords(&cluster.fs, "/b0", MakePoints(1000, 1));
  WriteRecords(&cluster.fs, "/b1", MakePoints(500, 2));
  {
    DatasetCatalog catalog(&cluster.runner);
    SHADOOP_CHECK_OK(catalog
                         .Create("pts", "/b0", "/pts.idx",
                                 BuildOptions(PartitionScheme::kStr))
                         .status());
    SHADOOP_CHECK_OK(catalog.Append("pts", "/b1").status());
  }
  const std::string delta = DatasetCatalog::DeltaPathFor("/pts.idx");
  const std::string master =
      DatasetCatalog::VersionMasterPathFor("/pts.idx", 2);
  const size_t delta_blocks =
      cluster.fs.GetFileMeta(delta).ValueOrDie().blocks.size();
  std::vector<std::string> lines = cluster.fs.ReadLines(master).ValueOrDie();
  size_t corrupted = 0;  // 1-based line of the rewritten partition.
  for (size_t i = 1; i < lines.size() && corrupted == 0; ++i) {
    std::vector<std::string_view> fields = SplitString(lines[i], ',');
    if (fields.size() != 13 || fields[12] != delta) continue;
    std::string line = std::string(fields[0]) + "," +
                       std::to_string(delta_blocks);
    for (size_t f = 2; f < fields.size(); ++f) {
      line += "," + std::string(fields[f]);
    }
    lines[i] = line;
    corrupted = i + 1;
  }
  ASSERT_GT(corrupted, 0u) << "no partition lives in " << delta;
  SHADOOP_CHECK_OK(cluster.fs.Delete(master));
  SHADOOP_CHECK_OK(cluster.fs.WriteLines(master, lines));

  DatasetCatalog reopened(&cluster.runner);
  const Status status = reopened.Open("pts", "/pts.idx");
  EXPECT_TRUE(status.IsParseError()) << status.ToString();
  EXPECT_NE(status.message().find(master + " line " +
                                  std::to_string(corrupted) + ":"),
            std::string::npos)
      << status.ToString();
  EXPECT_FALSE(reopened.Contains("pts"));
}

// ---------------------------------------------------------------------------
// Pigeon surface: LOAD ... APPEND creates versions, bindings pin their
// snapshot, SET snapshot_version re-pins, EXPLAIN surfaces version+skew.

TEST(PigeonCatalogTest, AppendAndSnapshotVersionKnob) {
  testing::TestCluster cluster;
  WriteRecords(&cluster.fs, "/pts", MakePoints(1000, 9));
  WriteRecords(&cluster.fs, "/batch", MakePoints(400, 10));

  pigeon::Executor executor(&cluster.runner);
  const auto report = executor
                          .Execute(R"(
    raw = LOAD '/pts' AS POINT;
    idx = INDEX raw WITH GRID;
    grown = LOAD '/batch' APPEND idx;
    c_pinned = COUNT idx RECTANGLE(0, 0, 1000000, 1000000);
    c_grown = COUNT grown RECTANGLE(0, 0, 1000000, 1000000);
    DUMP c_pinned;
    DUMP c_grown;
    SET snapshot_version 2;
    c_repinned = COUNT idx RECTANGLE(0, 0, 1000000, 1000000);
    DUMP c_repinned;
    SET snapshot_version 0;
    EXPLAIN grown;
  )")
                          .ValueOrDie();

  ASSERT_EQ(report.dump_output.size(), 4u);
  EXPECT_EQ(report.dump_output[0], "1000");  // `idx` stays pinned at v1.
  EXPECT_EQ(report.dump_output[1], "1400");  // `grown` sees the append.
  EXPECT_EQ(report.dump_output[2], "1400");  // v1 binding re-pinned to v2.
  const std::string& explain = report.dump_output[3];
  EXPECT_NE(explain.find("version=2/2"), std::string::npos) << explain;
  EXPECT_NE(explain.find("skew="), std::string::npos) << explain;
  EXPECT_NE(explain.find("; ingest: "), std::string::npos) << explain;

  // An append into a non-catalog dataset is a user error.
  const auto bad = executor.Execute("oops = LOAD '/batch' APPEND raw;");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("catalog"), std::string::npos);

  // A version that does not exist fails at lookup time.
  const auto missing = executor.Execute(
      "SET snapshot_version 9; c = COUNT idx RECTANGLE(0, 0, 1, 1);");
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace shadoop::catalog
