#include <gtest/gtest.h>

#include "geometry/wkt.h"
#include "test_util.h"
#include "viz/plot.h"

namespace shadoop::viz {
namespace {

TEST(CanvasTest, PointAccumulation) {
  Canvas canvas(10, 10, Envelope(0, 0, 100, 100));
  canvas.AddPoint(Point(5, 95));    // Top-left pixel (0, 0).
  canvas.AddPoint(Point(5, 95));
  canvas.AddPoint(Point(95, 5));    // Bottom-right pixel (9, 9).
  canvas.AddPoint(Point(500, 500)); // Outside: dropped.
  EXPECT_DOUBLE_EQ(canvas.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(canvas.At(9, 9), 1.0);
  EXPECT_EQ(canvas.CountNonZero(), 2u);
  EXPECT_DOUBLE_EQ(canvas.MaxIntensity(), 2.0);
}

TEST(CanvasTest, BoundaryPixelsStayInRange) {
  Canvas canvas(4, 4, Envelope(0, 0, 1, 1));
  canvas.AddPoint(Point(1, 1));  // Max corner maps to pixel (3, 0).
  canvas.AddPoint(Point(0, 0));  // Min corner maps to pixel (0, 3).
  EXPECT_DOUBLE_EQ(canvas.At(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(canvas.At(0, 3), 1.0);
}

TEST(CanvasTest, MergeAndSparseCodecRoundTrip) {
  Canvas a(8, 8, Envelope(0, 0, 1, 1));
  a.AddPoint(Point(0.1, 0.1));
  a.AddPoint(Point(0.9, 0.9), 3.0);
  Canvas b(8, 8, Envelope(0, 0, 1, 1));
  for (const std::string& record : a.ToSparseRecords()) {
    ASSERT_TRUE(b.AccumulateSparseRecord(record).ok());
  }
  EXPECT_DOUBLE_EQ(b.MaxIntensity(), a.MaxIntensity());
  EXPECT_EQ(b.CountNonZero(), a.CountNonZero());

  EXPECT_FALSE(b.AccumulateSparseRecord("1,2").ok());
  EXPECT_FALSE(b.AccumulateSparseRecord("100,2,1").ok());
}

TEST(CanvasTest, ImageEncodings) {
  Canvas canvas(3, 2, Envelope(0, 0, 1, 1));
  canvas.Set(0, 0, 5.0);
  const std::string pgm = canvas.ToPgm();
  EXPECT_EQ(pgm.rfind("P5\n3 2\n255\n", 0), 0u);
  EXPECT_EQ(pgm.size(), std::string("P5\n3 2\n255\n").size() + 6);
  const std::string ppm = canvas.ToPpm();
  EXPECT_EQ(ppm.rfind("P6\n3 2\n255\n", 0), 0u);
  EXPECT_EQ(ppm.size(), std::string("P6\n3 2\n255\n").size() + 18);
}

TEST(PlotTest, HadoopAndSpatialProduceIdenticalImages) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 3000,
                       workload::Distribution::kClustered, 5);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", index::PartitionScheme::kStr);
  PlotOptions options;
  options.width = 64;
  options.height = 64;

  core::OpStats hadoop_stats;
  core::OpStats spatial_stats;
  const Canvas hadoop = PlotHadoop(&cluster.runner, "/pts",
                                   index::ShapeType::kPoint, options,
                                   &hadoop_stats)
                            .ValueOrDie();
  // Constrain the spatial plot to the same world (the Hadoop path derives
  // it from the scan; the spatial path from the index — identical MBRs).
  const Canvas spatial =
      PlotSpatial(&cluster.runner, file, options, &spatial_stats)
          .ValueOrDie();
  ASSERT_EQ(hadoop.width(), spatial.width());
  ASSERT_EQ(hadoop.world(), spatial.world());
  for (int y = 0; y < hadoop.height(); ++y) {
    for (int x = 0; x < hadoop.width(); ++x) {
      ASSERT_DOUBLE_EQ(hadoop.At(x, y), spatial.At(x, y))
          << "pixel " << x << "," << y;
    }
  }
  // Every point landed somewhere.
  double total = 0;
  for (int y = 0; y < spatial.height(); ++y) {
    for (int x = 0; x < spatial.width(); ++x) total += spatial.At(x, y);
  }
  EXPECT_DOUBLE_EQ(total, 3000.0);
  // The Hadoop path needed an extra MBR job.
  EXPECT_EQ(hadoop_stats.jobs_run, spatial_stats.jobs_run + 1);
}

TEST(PlotTest, RectanglePlotCountsEveryRecord) {
  testing::TestCluster cluster;
  workload::RectGenOptions rects;
  rects.centers.count = 200;
  rects.centers.seed = 3;
  rects.max_side_fraction = 0.2;
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/rects", workload::RectanglesToRecords(
                                            workload::GenerateRectangles(rects)))
                  .ok());
  PlotOptions options;
  options.width = 64;
  options.height = 64;
  const Canvas canvas = PlotHadoop(&cluster.runner, "/rects",
                                   index::ShapeType::kRectangle, options)
                            .ValueOrDie();
  // Every rectangle's center landed somewhere.
  double total = 0;
  for (int y = 0; y < canvas.height(); ++y) {
    for (int x = 0; x < canvas.width(); ++x) total += canvas.At(x, y);
  }
  EXPECT_DOUBLE_EQ(total, 200.0);
}

TEST(PlotTest, PyramidTilesSumToDataset) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 2000,
                       workload::Distribution::kClustered, 9);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", index::PartitionScheme::kStr);
  PyramidOptions options;
  options.tile_size = 64;
  options.num_levels = 3;
  const auto tiles =
      PlotPyramid(&cluster.runner, file, options, "/tiles").ValueOrDie();

  // Per level, total intensity equals the number of points.
  std::map<int, double> level_total;
  std::map<int, int> level_tiles;
  for (const auto& [id, canvas] : tiles) {
    for (int y = 0; y < canvas.height(); ++y) {
      for (int x = 0; x < canvas.width(); ++x) {
        level_total[id.level] += canvas.At(x, y);
      }
    }
    level_tiles[id.level]++;
    EXPECT_LT(id.x, 1 << id.level);
    EXPECT_LT(id.y, 1 << id.level);
  }
  for (int level = 0; level < options.num_levels; ++level) {
    EXPECT_DOUBLE_EQ(level_total[level], 2000.0) << "level " << level;
  }
  EXPECT_EQ(level_tiles[0], 1);
  EXPECT_GT(level_tiles[2], 1);

  // Tiles were persisted and load back identically.
  const auto paths = cluster.fs.ListFiles("/tiles/");
  EXPECT_EQ(paths.size(), tiles.size());
  const Canvas reloaded =
      LoadCanvas(cluster.fs, "/tiles/tile-0-0-0").ValueOrDie();
  const Canvas& original = tiles.at(TileId{0, 0, 0});
  EXPECT_EQ(reloaded.width(), original.width());
  EXPECT_DOUBLE_EQ(reloaded.MaxIntensity(), original.MaxIntensity());
  EXPECT_EQ(reloaded.CountNonZero(), original.CountNonZero());
}

TEST(PlotTest, TileWorldSubdividesCorrectly) {
  const Envelope world(0, 0, 100, 100);
  EXPECT_EQ(TileWorld(world, {0, 0, 0}), world);
  // Level 1, tile (0,0) is the TOP-left quadrant (screen convention).
  EXPECT_EQ(TileWorld(world, {1, 0, 0}), Envelope(0, 50, 50, 100));
  EXPECT_EQ(TileWorld(world, {1, 1, 1}), Envelope(50, 0, 100, 50));
}

TEST(PlotTest, PyramidRejectsBadOptions) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 100);
  const index::SpatialFileInfo file = testing::BuildIndex(
      &cluster.runner, "/pts", "/pts.idx", index::PartitionScheme::kGrid);
  PyramidOptions options;
  options.num_levels = 20;
  EXPECT_TRUE(PlotPyramid(&cluster.runner, file, options)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace shadoop::viz
