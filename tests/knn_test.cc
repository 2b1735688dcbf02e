#include <gtest/gtest.h>

#include <algorithm>

#include "core/knn.h"
#include "geometry/wkt.h"
#include "test_util.h"

namespace shadoop::core {
namespace {

using index::PartitionScheme;

std::vector<double> BruteForceKnnDistances(const std::vector<Point>& points,
                                           const Point& q, size_t k) {
  std::vector<double> dists;
  dists.reserve(points.size());
  for (const Point& p : points) dists.push_back(Distance(p, q));
  std::sort(dists.begin(), dists.end());
  dists.resize(std::min(k, dists.size()));
  return dists;
}

void ExpectSameDistances(const std::vector<KnnAnswer>& got,
                         const std::vector<double>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, expected[i], 1e-9) << "rank " << i;
  }
}

class KnnSchemeTest : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(KnnSchemeTest, MatchesBruteForceForVariousKAndQueries) {
  testing::TestCluster cluster;
  const std::vector<Point> points = testing::WritePoints(
      &cluster.fs, "/pts", 2000, workload::Distribution::kClustered, 31);
  const index::SpatialFileInfo file =
      testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx", GetParam());

  Random rng(11);
  for (size_t k : {1u, 5u, 50u}) {
    const Point q(rng.NextDouble(0, 1e6), rng.NextDouble(0, 1e6));
    auto spatial = KnnSpatial(&cluster.runner, file, q, k).ValueOrDie();
    ExpectSameDistances(spatial, BruteForceKnnDistances(points, q, k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, KnnSchemeTest, ::testing::ValuesIn(testing::AllSchemes()),
    [](const ::testing::TestParamInfo<PartitionScheme>& info) {
      std::string name = index::PartitionSchemeName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = 'x';
      }
      return name;
    });

TEST(KnnTest, HadoopMatchesBruteForce) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      testing::WritePoints(&cluster.fs, "/pts", 1500);
  const Point q(5e5, 5e5);
  auto result =
      KnnHadoop(&cluster.runner, "/pts", index::ShapeType::kPoint, q, 10)
          .ValueOrDie();
  ExpectSameDistances(result, BruteForceKnnDistances(points, q, 10));
}

TEST(KnnTest, QueryOutsideSpaceStillCorrect) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      testing::WritePoints(&cluster.fs, "/pts", 1000);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kStr);
  const Point q(-5e5, 2e6);  // Far outside the data MBR.
  auto result = KnnSpatial(&cluster.runner, file, q, 7).ValueOrDie();
  ExpectSameDistances(result, BruteForceKnnDistances(points, q, 7));
}

TEST(KnnTest, KLargerThanDatasetReturnsEverything) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      testing::WritePoints(&cluster.fs, "/pts", 40);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kGrid);
  auto result =
      KnnSpatial(&cluster.runner, file, Point(0, 0), 100).ValueOrDie();
  EXPECT_EQ(result.size(), points.size());
}

TEST(KnnTest, SpatialReadsFewerBytesThanHadoop) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 8000);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kStr);
  const Point q(5e5, 5e5);
  OpStats hadoop_stats;
  OpStats spatial_stats;
  auto h = KnnHadoop(&cluster.runner, "/pts", index::ShapeType::kPoint, q, 5,
                     &hadoop_stats)
               .ValueOrDie();
  auto s = KnnSpatial(&cluster.runner, file, q, 5, &spatial_stats)
               .ValueOrDie();
  ASSERT_EQ(h.size(), s.size());
  for (size_t i = 0; i < h.size(); ++i) {
    EXPECT_NEAR(h[i].distance, s[i].distance, 1e-9);
  }
  EXPECT_LT(spatial_stats.cost.bytes_read, hadoop_stats.cost.bytes_read / 3);
}

TEST(KnnTest, TiesAtTheKthDistanceAreValidAndDeterministic) {
  testing::TestCluster cluster;
  workload::PointGenOptions gen;
  gen.count = 1500;
  gen.seed = 5;
  std::vector<std::string> lines =
      workload::PointsToRecords(workload::GeneratePoints(gen));
  // Twelve points at exactly distance 1000 from q, so k = 5 cuts through
  // the tie: which five survive depends only on the order records are
  // offered in, never on thread timing.
  const Point q(5e5, 5e5);
  for (const auto& [dx, dy] : std::vector<std::pair<double, double>>{
           {1000, 0}, {-1000, 0}, {0, 1000}, {0, -1000}, {600, 800},
           {-600, 800}, {600, -800}, {-600, -800}, {800, 600}, {-800, 600},
           {800, -600}, {-800, -600}}) {
    lines.push_back(PointToCsv(Point(q.x + dx, q.y + dy)));
  }
  ASSERT_TRUE(cluster.fs.WriteLines("/pts", lines).ok());
  std::vector<Point> points;
  for (const std::string& line : lines) {
    points.push_back(ParsePointCsv(line).ValueOrDie());
  }
  const size_t k = 5;
  const std::vector<double> expected = BruteForceKnnDistances(points, q, k);
  ASSERT_EQ(expected.back(), 1000.0);

  auto expect_valid = [&](const std::vector<KnnAnswer>& got) {
    ExpectSameDistances(got, expected);
    for (size_t i = 0; i < got.size(); ++i) {
      // Each answer is an input record at its reported distance, listed
      // once, in (distance, record) order.
      EXPECT_EQ(Distance(ParsePointCsv(got[i].record).ValueOrDie(), q),
                got[i].distance);
      EXPECT_NE(std::find(lines.begin(), lines.end(), got[i].record),
                lines.end());
      if (i > 0) {
        EXPECT_LT(std::make_pair(got[i - 1].distance, got[i - 1].record),
                  std::make_pair(got[i].distance, got[i].record));
      }
    }
  };
  auto expect_same = [](const std::vector<KnnAnswer>& a,
                        const std::vector<KnnAnswer>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].distance, b[i].distance) << "rank " << i;
      EXPECT_EQ(a[i].record, b[i].record) << "rank " << i;
    }
  };

  // One slot and four, cold and warm: the same answer every time.
  testing::TestCluster one_slot(4 * 1024, /*num_slots=*/1);
  ASSERT_TRUE(one_slot.fs.WriteLines("/pts", lines).ok());
  const auto hadoop =
      KnnHadoop(&cluster.runner, "/pts", index::ShapeType::kPoint, q, k)
          .ValueOrDie();
  expect_valid(hadoop);
  expect_same(hadoop,
              KnnHadoop(&cluster.runner, "/pts", index::ShapeType::kPoint, q,
                        k)
                  .ValueOrDie());
  expect_same(hadoop, KnnHadoop(&one_slot.runner, "/pts",
                                index::ShapeType::kPoint, q, k)
                          .ValueOrDie());
  for (PartitionScheme scheme :
       {PartitionScheme::kGrid, PartitionScheme::kStr}) {
    const std::string path =
        std::string("/pts.") + index::PartitionSchemeName(scheme);
    const index::SpatialFileInfo file =
        testing::BuildIndex(&cluster.runner, "/pts", path, scheme);
    const index::SpatialFileInfo serial =
        testing::BuildIndex(&one_slot.runner, "/pts", path, scheme);
    const auto spatial = KnnSpatial(&cluster.runner, file, q, k).ValueOrDie();
    expect_valid(spatial);
    expect_same(spatial, KnnSpatial(&cluster.runner, file, q, k).ValueOrDie());
    expect_same(spatial,
                KnnSpatial(&one_slot.runner, serial, q, k).ValueOrDie());
  }
}

TEST(KnnTest, CorrectnessLoopTriggersNearPartitionBoundary) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 4000);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", PartitionScheme::kGrid);
  ASSERT_GT(file.global_index.NumPartitions(), 4u);
  // Query on a partition boundary: neighbours must be consulted.
  const index::Partition& part = file.global_index.partitions()[0];
  const Point q(part.cell.max_x(), part.cell.max_y());
  OpStats stats;
  auto result = KnnSpatial(&cluster.runner, file, q, 20, &stats).ValueOrDie();
  ASSERT_EQ(result.size(), 20u);
  EXPECT_GE(stats.jobs_run, 2) << "boundary query should need a second round";
}

}  // namespace
}  // namespace shadoop::core
