#include <gtest/gtest.h>

#include "geometry/wkt.h"
#include "index/record_shape.h"
#include "workload/generators.h"
#include "workload/import.h"

namespace shadoop::workload {
namespace {

TEST(ImportTest, PointCsvWithMappedColumnsAndHeader) {
  CsvImportOptions options;
  options.x_column = 2;
  options.y_column = 1;
  options.has_header = true;
  size_t skipped = 0;
  const auto records =
      ImportPointCsv({"name,lat,lon", "home,10,20", "work,30,40",
                      "broken,x,y", "short"},
                     options, &skipped)
          .ValueOrDie();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(index::RecordPoint(records[0]).ValueOrDie(), Point(20, 10));
  EXPECT_EQ(records[0].substr(records[0].find('\t') + 1), "home");
}

TEST(ImportTest, PointCsvStrictModeFailsOnBadRow) {
  CsvImportOptions options;
  options.skip_bad_rows = false;
  EXPECT_TRUE(ImportPointCsv({"1,2", "bad"}, options).status().IsParseError());
  CsvImportOptions same_column;
  same_column.x_column = same_column.y_column = 0;
  EXPECT_TRUE(
      ImportPointCsv({"1,2"}, same_column).status().IsInvalidArgument());
}

TEST(GeneratorTest, DeterministicForSameOptions) {
  PointGenOptions options;
  options.count = 200;
  options.seed = 5;
  EXPECT_EQ(GeneratePoints(options), GeneratePoints(options));
  options.seed = 6;
  EXPECT_NE(GeneratePoints(options), GeneratePoints(PointGenOptions{}));
}

TEST(GeneratorTest, PointsStayInSpace) {
  for (Distribution dist :
       {Distribution::kUniform, Distribution::kGaussian,
        Distribution::kCorrelated, Distribution::kAntiCorrelated,
        Distribution::kCircular, Distribution::kClustered}) {
    PointGenOptions options;
    options.distribution = dist;
    options.count = 1000;
    options.space = Envelope(-50, 100, 50, 400);
    for (const Point& p : GeneratePoints(options)) {
      EXPECT_TRUE(options.space.Contains(p)) << DistributionName(dist);
    }
  }
}

TEST(GeneratorTest, DistributionShapes) {
  PointGenOptions options;
  options.count = 5000;
  options.space = Envelope(0, 0, 1, 1);

  // Gaussian concentrates in the middle.
  options.distribution = Distribution::kGaussian;
  int center_hits = 0;
  for (const Point& p : GeneratePoints(options)) {
    if (Envelope(0.25, 0.25, 0.75, 0.75).Contains(p)) ++center_hits;
  }
  EXPECT_GT(center_hits, 4000);

  // Correlated hugs the diagonal.
  options.distribution = Distribution::kCorrelated;
  for (const Point& p : GeneratePoints(options)) {
    EXPECT_LT(std::abs(p.x - p.y), 0.5);
  }

  // Circular stays away from the center.
  options.distribution = Distribution::kCircular;
  for (const Point& p : GeneratePoints(options)) {
    EXPECT_GT(Distance(p, Point(0.5, 0.5)), 0.2);
  }
}

TEST(GeneratorTest, RectanglesAreValidAndBounded) {
  RectGenOptions options;
  options.centers.count = 500;
  options.max_side_fraction = 0.05;
  for (const Envelope& r : GenerateRectangles(options)) {
    EXPECT_FALSE(r.IsEmpty());
    EXPECT_LE(r.Width(), options.centers.space.Width() * 0.05 + 1e-9);
    EXPECT_TRUE(options.centers.space.Contains(r));
  }
}

TEST(GeneratorTest, PolygonsAreSimpleAndCcw) {
  PolygonGenOptions options;
  options.centers.count = 300;
  for (const Polygon& poly : GeneratePolygons(options)) {
    EXPECT_GE(poly.NumVertices(), 4u);
    EXPECT_LE(poly.NumVertices(), 12u);
    EXPECT_GT(poly.SignedArea(), 0.0) << "normalized to CCW";
  }
}

TEST(GeneratorTest, RecordsParseBackViaRecordShape) {
  PointGenOptions point_options;
  point_options.count = 50;
  const auto points = GeneratePoints(point_options);
  const auto point_records = PointsToRecords(points);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(index::RecordPoint(point_records[i]).ValueOrDie(), points[i]);
  }

  PolygonGenOptions poly_options;
  poly_options.centers.count = 20;
  const auto polygons = GeneratePolygons(poly_options);
  for (const std::string& record : PolygonsToRecords(polygons)) {
    EXPECT_TRUE(index::RecordPolygon(record).ok()) << record;
  }
}

TEST(GeneratorTest, DistributionNamesRoundTrip) {
  for (Distribution dist :
       {Distribution::kUniform, Distribution::kGaussian,
        Distribution::kCorrelated, Distribution::kAntiCorrelated,
        Distribution::kCircular, Distribution::kClustered}) {
    EXPECT_EQ(ParseDistribution(DistributionName(dist)).ValueOrDie(), dist);
  }
  EXPECT_FALSE(ParseDistribution("bogus").ok());
}

}  // namespace
}  // namespace shadoop::workload
