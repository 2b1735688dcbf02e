#include <gtest/gtest.h>

#include "core/file_mbr.h"
#include "core/knn.h"
#include "core/range_query.h"
#include "core/spatial_file_splitter.h"
#include "core/spatial_record_reader.h"
#include "fault/fault_injector.h"
#include "geometry/wkt.h"
#include "index/packed_rtree.h"
#include "test_util.h"

namespace shadoop::core {
namespace {

using index::PartitionScheme;

TEST(SplitExtentTest, CodecRoundTrips) {
  SplitExtent extent;
  extent.cell = Envelope(1, 2, 3, 4);
  extent.mbr = Envelope(1.5, 2.5, 2.5, 3.5);
  extent.file_mbr = Envelope(0, 0, 10, 10);
  const SplitExtent parsed =
      ParseSplitExtent(EncodeSplitExtent(extent)).ValueOrDie();
  EXPECT_EQ(parsed.cell, extent.cell);
  EXPECT_EQ(parsed.mbr, extent.mbr);
  EXPECT_EQ(parsed.file_mbr, extent.file_mbr);
  EXPECT_FALSE(ParseSplitExtent("1,2,3,4;5,6,7,8").ok());
  EXPECT_FALSE(ParseSplitExtent("garbage").ok());
}

TEST(SpatialSplitterTest, SplitsCarryPartitionGeometry) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 2000);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kStr);
  const auto splits = SpatialSplits(file, KeepAllFilter).ValueOrDie();
  ASSERT_EQ(splits.size(), file.global_index.NumPartitions());
  for (size_t i = 0; i < splits.size(); ++i) {
    const index::Partition& p = file.global_index.partitions()[i];
    ASSERT_EQ(splits[i].blocks.size(), 1u);
    EXPECT_EQ(splits[i].blocks[0].block_index, p.block_index);
    EXPECT_EQ(splits[i].estimated_records, p.num_records);
    const SplitExtent extent =
        ParseSplitExtent(splits[i].meta).ValueOrDie();
    EXPECT_EQ(extent.mbr, p.mbr);
    EXPECT_EQ(extent.cell, p.cell);
  }
}

TEST(SpatialSplitterTest, RejectsBadFilterOutput) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 500);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kGrid);
  FilterFunction bad = [](const index::GlobalIndex&) {
    return std::vector<int>{99999};
  };
  EXPECT_TRUE(SpatialSplits(file, bad).status().IsInvalidArgument());
}

TEST(PairSplitsTest, CoversBothBlocksWithCombinedMeta) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 2000);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kGrid);
  ASSERT_GE(file.global_index.NumPartitions(), 2u);
  const auto splits = PairSplits(file, file, {{0, 1}}).ValueOrDie();
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].blocks.size(), 2u);
  const size_t bar = splits[0].meta.find('|');
  ASSERT_NE(bar, std::string::npos);
  EXPECT_TRUE(ParseSplitExtent(splits[0].meta.substr(0, bar)).ok());
  EXPECT_TRUE(ParseSplitExtent(splits[0].meta.substr(bar + 1)).ok());
  EXPECT_TRUE(PairSplits(file, file, {{0, 12345}})
                  .status()
                  .IsInvalidArgument());
}

TEST(SpatialRecordReaderTest, TypedViewsAndBadRecordCounting) {
  SpatialRecordReader reader(index::ShapeType::kPoint);
  reader.AddBorrowed("1,2");
  reader.AddBorrowed("not-a-point");
  reader.AddBorrowed("3,4");
  const std::vector<Point> points = reader.Points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], Point(1, 2));
  EXPECT_EQ(reader.bad_records(), 1u);

  // Envelope payloads index the raw records even with gaps.
  const auto entries = reader.Envelopes();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].payload, 2u);
  EXPECT_EQ(reader.records()[entries[1].payload], "3,4");

  const index::PackedRTree local(entries);
  std::vector<uint32_t> hits;
  local.Search(Envelope(0, 0, 2, 3), &hits);
  EXPECT_EQ(hits, std::vector<uint32_t>{0});
}

TEST(FileMbrTest, MatchesGeneratedBounds) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      testing::WritePoints(&cluster.fs, "/pts", 700);
  Envelope expected;
  for (const Point& p : points) expected.ExpandToInclude(p);
  OpStats stats;
  const Envelope mbr = ComputeFileMbr(&cluster.runner, "/pts",
                                      index::ShapeType::kPoint, &stats)
                           .ValueOrDie();
  EXPECT_EQ(mbr, expected);
  EXPECT_EQ(stats.jobs_run, 1);
  EXPECT_TRUE(ComputeFileMbr(&cluster.runner, "/nope",
                             index::ShapeType::kPoint)
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------
// Failure injection through whole operations.

TEST(FaultToleranceTest, OperationsSurviveDatanodeLossWithinReplication) {
  testing::TestCluster cluster;  // 8 datanodes, replication 3.
  const std::vector<Point> points =
      testing::WritePoints(&cluster.fs, "/pts", 3000);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kStr);

  cluster.fs.SetNodeAlive(0, false);
  cluster.fs.SetNodeAlive(3, false);

  const Envelope query(1e5, 1e5, 6e5, 6e5);
  auto result = RangeQuerySpatial(&cluster.runner, file, query).ValueOrDie();
  size_t expected = 0;
  for (const Point& p : points) expected += query.Contains(p);
  EXPECT_EQ(result.size(), expected);

  auto knn = KnnSpatial(&cluster.runner, file, Point(5e5, 5e5), 5)
                 .ValueOrDie();
  EXPECT_EQ(knn.size(), 5u);
}

TEST(FaultToleranceTest, OperationFailsCleanlyWhenAllReplicasDie) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 2000);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kStr);
  for (int node = 0; node < 8; ++node) cluster.fs.SetNodeAlive(node, false);
  const auto result =
      RangeQuerySpatial(&cluster.runner, file, Envelope(0, 0, 1e6, 1e6));
  EXPECT_TRUE(result.status().IsIoError());
}

TEST(FaultToleranceTest, TransientTaskFaultsDoNotChangeResults) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      testing::WritePoints(&cluster.fs, "/pts", 1000);
  // Build a job manually and run it under seeded task faults; the
  // retries must produce exactly the same output.
  mapreduce::JobConfig job;
  job.splits = mapreduce::MakeBlockSplits(cluster.fs, "/pts").ValueOrDie();
  class EchoMapper : public mapreduce::Mapper {
   public:
    void Map(std::string_view record, mapreduce::MapContext& ctx) override {
      ctx.WriteOutput(std::string(record));
    }
  };
  job.mapper = []() { return std::make_unique<EchoMapper>(); };
  fault::FaultPolicy policy;
  policy.seed = 11;  // Fails some first attempts, never all three.
  policy.map_failure_prob = 0.3;
  fault::FaultInjector injector(policy);
  cluster.runner.set_fault_injector(&injector);
  const mapreduce::JobResult with_faults = cluster.runner.Run(job);
  ASSERT_TRUE(with_faults.status.ok()) << with_faults.status.ToString();
  EXPECT_GT(with_faults.cost.task_retries, 0);
  cluster.runner.set_fault_injector(nullptr);
  const mapreduce::JobResult clean = cluster.runner.Run(job);
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(with_faults.output, clean.output);
}

// ---------------------------------------------------------------------
// Cost model properties over whole operations.

TEST(CostModelTest, MoreSlotsNeverIncreaseSimulatedTime) {
  double previous = std::numeric_limits<double>::infinity();
  for (int slots : {1, 4, 16}) {
    hdfs::FileSystem fs(testing::TestCluster::MakeConfig(4 * 1024));
    mapreduce::ClusterConfig cluster_config;
    cluster_config.num_slots = slots;
    mapreduce::JobRunner runner(&fs, cluster_config);
    workload::PointGenOptions gen;
    gen.count = 4000;
    SHADOOP_CHECK_OK(workload::WritePointFile(&fs, "/pts", gen));
    OpStats stats;
    auto result = RangeQueryHadoop(&runner, "/pts", index::ShapeType::kPoint,
                                   Envelope(0, 0, 1e6, 1e6), &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(stats.cost.total_ms, previous + 1e-6) << slots << " slots";
    previous = stats.cost.total_ms;
  }
}

TEST(CostModelTest, SimulatedCostIsDeterministicAcrossRuns) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 2000);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kQuadTree);
  const Envelope query(2e5, 2e5, 5e5, 5e5);
  OpStats first;
  OpStats second;
  ASSERT_TRUE(RangeQuerySpatial(&cluster.runner, file, query, &first).ok());
  ASSERT_TRUE(RangeQuerySpatial(&cluster.runner, file, query, &second).ok());
  EXPECT_DOUBLE_EQ(first.cost.total_ms, second.cost.total_ms);
  EXPECT_EQ(first.cost.bytes_read, second.cost.bytes_read);
}

}  // namespace
}  // namespace shadoop::core
