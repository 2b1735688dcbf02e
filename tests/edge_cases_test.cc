// Edge-case and property sweeps across modules: half-open tiling
// exactness, degenerate inputs, shuffle determinism with custom
// partitioners, and reducer lifecycle hooks.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/string_util.h"
#include "core/knn.h"
#include "core/range_query.h"
#include "geometry/wkt.h"
#include "index/grid_partitioner.h"
#include "index/kdtree_partitioner.h"
#include "test_util.h"

namespace shadoop {
namespace {

using index::PartitionScheme;

// ---------------------------------------------------------------------
// Half-open tiling: every point is accepted by exactly one cell when the
// edge flags are derived from the space bounds — the invariant the
// reference-point deduplication rests on.

class HalfOpenTilingTest : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(HalfOpenTilingTest, EveryPointOwnedByExactlyOneCell) {
  if (!index::IsDisjointScheme(GetParam())) GTEST_SKIP();
  auto partitioner = index::MakePartitioner(GetParam()).ValueOrDie();
  const Envelope space(0, 0, 100, 100);
  workload::PointGenOptions gen;
  gen.count = 500;
  gen.space = space;
  gen.seed = 12;
  const std::vector<Point> sample = workload::GeneratePoints(gen);
  ASSERT_TRUE(partitioner->Construct(space, sample, 12).ok());

  // Probe points include exact cell corners and edges.
  std::vector<Point> probes = sample;
  for (int id = 0; id < partitioner->NumCells(); ++id) {
    const Envelope cell = partitioner->CellExtent(id);
    probes.push_back(cell.BottomLeft());
    probes.push_back(cell.TopRight());
    probes.push_back(Point(cell.min_x(), cell.Center().y));
    probes.push_back(cell.Center());
  }
  for (const Point& p : probes) {
    if (!space.Contains(p)) continue;
    int owners = 0;
    for (int id = 0; id < partitioner->NumCells(); ++id) {
      const Envelope cell = partitioner->CellExtent(id);
      const bool right = cell.max_x() >= space.max_x();
      const bool top = cell.max_y() >= space.max_y();
      owners += cell.ContainsHalfOpen(p, right, top);
    }
    EXPECT_EQ(owners, 1) << "point " << p.x << "," << p.y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DisjointSchemes, HalfOpenTilingTest,
    ::testing::ValuesIn(testing::DisjointSchemes()),
    [](const ::testing::TestParamInfo<PartitionScheme>& info) {
      std::string name = index::PartitionSchemeName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = 'x';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Degenerate datasets.

TEST(DegenerateDataTest, AllPointsIdentical) {
  testing::TestCluster cluster;
  std::vector<std::string> records(500, "123.5,456.5");
  ASSERT_TRUE(cluster.fs.WriteLines("/same", records).ok());
  const auto file = testing::BuildIndex(&cluster.runner, "/same", "/same.idx",
                                        PartitionScheme::kStr);
  // The index degenerates but must stay correct.
  auto hits = core::RangeQuerySpatial(&cluster.runner, file,
                                      Envelope(123, 456, 124, 457))
                  .ValueOrDie();
  EXPECT_EQ(hits.size(), 500u);
  auto knn =
      core::KnnSpatial(&cluster.runner, file, Point(0, 0), 3).ValueOrDie();
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_DOUBLE_EQ(knn[0].distance, Distance(Point(0, 0),
                                             Point(123.5, 456.5)));
}

TEST(DegenerateDataTest, CollinearPoints) {
  testing::TestCluster cluster;
  std::vector<std::string> records;
  for (int i = 0; i < 800; ++i) {
    records.push_back(PointToCsv(Point(i * 10.0, 500.0)));
  }
  ASSERT_TRUE(cluster.fs.WriteLines("/line", records).ok());
  for (PartitionScheme scheme :
       {PartitionScheme::kGrid, PartitionScheme::kKdTree,
        PartitionScheme::kHilbert}) {
    std::string dest =
        std::string("/line.") + index::PartitionSchemeName(scheme);
    const auto file =
        testing::BuildIndex(&cluster.runner, "/line", dest, scheme);
    auto hits = core::RangeQuerySpatial(&cluster.runner, file,
                                        Envelope(95, 0, 205, 1000))
                    .ValueOrDie();
    EXPECT_EQ(hits.size(), 11u) << index::PartitionSchemeName(scheme);
  }
}

TEST(DegenerateDataTest, SingleRecordFile) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/one", {"5,5"}).ok());
  const auto file = testing::BuildIndex(&cluster.runner, "/one", "/one.idx",
                                        PartitionScheme::kQuadTree);
  EXPECT_EQ(file.global_index.NumPartitions(), 1u);
  auto knn =
      core::KnnSpatial(&cluster.runner, file, Point(0, 0), 5).ValueOrDie();
  EXPECT_EQ(knn.size(), 1u);
}

TEST(DegenerateDataTest, KnnWithKZeroIsEmpty) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 100);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  EXPECT_TRUE(core::KnnSpatial(&cluster.runner, file, Point(0, 0), 0)
                  .ValueOrDie()
                  .empty());
}

// ---------------------------------------------------------------------
// MapReduce lifecycle details.

TEST(MapReduceLifecycleTest, BeginBlockOrdinalsFollowSplitOrder) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/a", {"a1", "a2"}).ok());
  ASSERT_TRUE(cluster.fs.WriteLines("/b", {"b1"}).ok());
  class TaggingMapper : public mapreduce::Mapper {
   public:
    void BeginBlock(size_t ordinal, mapreduce::MapContext&) override {
      ordinal_ = ordinal;
    }
    void Map(std::string_view record, mapreduce::MapContext& ctx) override {
      ctx.WriteOutput(std::to_string(ordinal_) + ":" + std::string(record));
    }

   private:
    size_t ordinal_ = 0;
  };
  mapreduce::JobConfig job;
  mapreduce::InputSplit split;
  split.blocks.push_back({"/a", 0});
  split.blocks.push_back({"/b", 0});
  job.splits.push_back(split);
  job.mapper = []() { return std::make_unique<TaggingMapper>(); };
  const auto result = cluster.runner.Run(job);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.output,
            (std::vector<std::string>{"0:a1", "0:a2", "1:b1"}));
}

TEST(MapReduceLifecycleTest, FinishHookRunsOncePerReduceTask) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"k1 v", "k2 v", "k3 v"}).ok());
  class SplitKeyMapper : public mapreduce::Mapper {
   public:
    void Map(std::string_view record, mapreduce::MapContext& ctx) override {
      const auto fields = SplitWhitespace(record);
      ctx.Emit(std::string(fields[0]), std::string(fields[1]));
    }
  };
  class CountingReducer : public mapreduce::Reducer {
   public:
    void Reduce(std::string_view, std::span<const std::string_view>,
                mapreduce::ReduceContext&) override {
      ++groups_;
    }
    void Finish(mapreduce::ReduceContext& ctx) override {
      ctx.Write("groups=" + std::to_string(groups_));
    }

   private:
    int groups_ = 0;
  };
  mapreduce::JobConfig job;
  job.splits = mapreduce::MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<SplitKeyMapper>(); };
  job.reducer = []() { return std::make_unique<CountingReducer>(); };
  job.num_reducers = 1;
  const auto result = cluster.runner.Run(job);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.output, std::vector<std::string>{"groups=3"});
}

TEST(MapReduceLifecycleTest, CustomPartitionerRoutesDeterministically) {
  testing::TestCluster cluster;
  std::vector<std::string> lines;
  for (int i = 0; i < 60; ++i) lines.push_back("k" + std::to_string(i));
  ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());
  class EchoMapper : public mapreduce::Mapper {
   public:
    void Map(std::string_view record, mapreduce::MapContext& ctx) override {
      ctx.Emit(record, "1");
    }
  };
  class KeyReducer : public mapreduce::Reducer {
   public:
    void Reduce(std::string_view key, std::span<const std::string_view>,
                mapreduce::ReduceContext& ctx) override {
      ctx.Write(std::string(key));
    }
  };
  mapreduce::JobConfig job;
  job.splits = mapreduce::MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<EchoMapper>(); };
  job.reducer = []() { return std::make_unique<KeyReducer>(); };
  job.num_reducers = 4;
  job.partitioner = [](std::string_view key, int reducers) {
    // Route by the numeric suffix.
    return static_cast<int>(ParseInt64(key.substr(1)).ValueOrDie() % reducers);
  };
  const auto r1 = cluster.runner.Run(job);
  const auto r2 = cluster.runner.Run(job);
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(std::set<std::string>(r1.output.begin(), r1.output.end()).size(),
            60u);
}

}  // namespace
}  // namespace shadoop
