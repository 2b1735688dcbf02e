#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "geometry/closest_pair.h"
#include "geometry/convex_hull.h"
#include "geometry/farthest_pair.h"
#include "geometry/polygon_union.h"
#include "geometry/skyline.h"
#include "workload/generators.h"

namespace shadoop {
namespace {

using workload::Distribution;

std::vector<Point> RandomPoints(Distribution dist, size_t n, uint64_t seed) {
  workload::PointGenOptions options;
  options.distribution = dist;
  options.count = n;
  options.seed = seed;
  options.space = Envelope(0, 0, 1000, 1000);
  return workload::GeneratePoints(options);
}

// ---------------------------------------------------------------------
// Convex hull

TEST(ConvexHullTest, SmallCases) {
  EXPECT_TRUE(ConvexHull({}).empty());
  EXPECT_EQ(ConvexHull({{1, 2}}), (std::vector<Point>{{1, 2}}));
  EXPECT_EQ(ConvexHull({{1, 2}, {1, 2}}).size(), 1u);
  EXPECT_EQ(ConvexHull({{0, 0}, {1, 1}}).size(), 2u);
  // Collinear points collapse to the two extremes.
  EXPECT_EQ(ConvexHull({{0, 0}, {1, 1}, {2, 2}, {3, 3}}).size(), 2u);
}

TEST(ConvexHullTest, SquareWithInteriorPoints) {
  const std::vector<Point> hull =
      ConvexHull({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 3}});
  EXPECT_EQ(hull.size(), 4u);
  for (const Point& corner :
       {Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)}) {
    EXPECT_NE(std::find(hull.begin(), hull.end(), corner), hull.end());
  }
}

TEST(ConvexHullTest, HullIsCcwAndContainsAllPoints) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<Point> points =
        RandomPoints(Distribution::kUniform, 500, seed);
    const std::vector<Point> hull = ConvexHull(points);
    // CCW: every consecutive triple turns left (or straight).
    for (size_t i = 0; i < hull.size(); ++i) {
      EXPECT_GT(Cross(hull[i], hull[(i + 1) % hull.size()],
                      hull[(i + 2) % hull.size()]),
                0);
    }
    for (const Point& p : points) {
      EXPECT_TRUE(HullContains(hull, p));
    }
  }
}

TEST(ConvexHullTest, Idempotent) {
  const std::vector<Point> points =
      RandomPoints(Distribution::kCircular, 400, 9);
  const std::vector<Point> hull = ConvexHull(points);
  EXPECT_EQ(ConvexHull(hull), hull);
}

// ---------------------------------------------------------------------
// Closest pair

TEST(ClosestPairTest, MatchesBruteForceAcrossDistributions) {
  for (Distribution dist : {Distribution::kUniform, Distribution::kGaussian,
                            Distribution::kClustered}) {
    for (uint64_t seed : {10u, 20u}) {
      const std::vector<Point> points = RandomPoints(dist, 400, seed);
      const PointPair fast = ClosestPair(points);
      const PointPair slow = ClosestPairBruteForce(points);
      EXPECT_DOUBLE_EQ(fast.distance, slow.distance)
          << workload::DistributionName(dist) << " seed " << seed;
    }
  }
}

TEST(ClosestPairTest, DuplicatePointsGiveZero) {
  const PointPair pair = ClosestPair({{1, 1}, {5, 5}, {1, 1}});
  EXPECT_DOUBLE_EQ(pair.distance, 0.0);
}

TEST(ClosestPairTest, DegenerateInputs) {
  EXPECT_TRUE(std::isinf(ClosestPair({}).distance));
  EXPECT_TRUE(std::isinf(ClosestPair({{1, 1}}).distance));
  const PointPair two = ClosestPair({{0, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(two.distance, 5.0);
}

TEST(ClosestPairTest, AllCollinear) {
  std::vector<Point> points;
  for (int i = 0; i < 100; ++i) points.emplace_back(i * 2.0, i * 2.0);
  points.emplace_back(50.5, 50.5);  // Closest to (50, 50).
  const PointPair pair = ClosestPair(points);
  EXPECT_DOUBLE_EQ(pair.distance, ClosestPairBruteForce(points).distance);
}

// ---------------------------------------------------------------------
// Farthest pair

TEST(FarthestPairTest, MatchesBruteForce) {
  for (Distribution dist : {Distribution::kUniform, Distribution::kCircular}) {
    const std::vector<Point> points = RandomPoints(dist, 300, 77);
    EXPECT_DOUBLE_EQ(FarthestPair(points).distance,
                     FarthestPairBruteForce(points).distance)
        << workload::DistributionName(dist);
  }
}

TEST(FarthestPairTest, KnownDiameter) {
  // A rectangle: the diagonal is the diameter.
  const PointPair pair =
      FarthestPair({{0, 0}, {6, 0}, {6, 8}, {0, 8}, {3, 4}});
  EXPECT_DOUBLE_EQ(pair.distance, 10.0);
}

TEST(FarthestPairTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(FarthestPair({}).distance, 0.0);
  EXPECT_DOUBLE_EQ(FarthestPair({{1, 1}}).distance, 0.0);
  EXPECT_DOUBLE_EQ(FarthestPair({{0, 0}, {3, 4}}).distance, 5.0);
}

// ---------------------------------------------------------------------
// Skyline

TEST(SkylineTest, MatchesBruteForceInAllDirections) {
  for (SkylineDominance dir :
       {SkylineDominance::kMaxMax, SkylineDominance::kMaxMin,
        SkylineDominance::kMinMax, SkylineDominance::kMinMin}) {
    for (Distribution dist :
         {Distribution::kUniform, Distribution::kCorrelated,
          Distribution::kAntiCorrelated}) {
      std::vector<Point> points = RandomPoints(dist, 300, 5);
      std::vector<Point> fast = Skyline(points, dir);
      std::vector<Point> slow = SkylineBruteForce(points, dir);
      EXPECT_EQ(fast, slow) << workload::DistributionName(dist);
    }
  }
}

TEST(SkylineTest, NoPointOnSkylineIsDominated) {
  const std::vector<Point> points =
      RandomPoints(Distribution::kAntiCorrelated, 1000, 3);
  const std::vector<Point> sky = Skyline(points);
  for (const Point& p : sky) {
    for (const Point& q : points) {
      EXPECT_FALSE(Dominates(q, p, SkylineDominance::kMaxMax));
    }
  }
}

TEST(SkylineTest, CorrelationControlsSkylineSize) {
  const size_t correlated =
      Skyline(RandomPoints(Distribution::kCorrelated, 2000, 8)).size();
  const size_t anti =
      Skyline(RandomPoints(Distribution::kAntiCorrelated, 2000, 8)).size();
  EXPECT_LT(correlated * 5, anti) << "anti-correlated data has a much "
                                     "larger skyline";
}

TEST(SkylineTest, DuplicatesAndTies) {
  const std::vector<Point> sky =
      Skyline({{1, 1}, {1, 1}, {2, 1}, {1, 2}, {0, 3}});
  EXPECT_EQ(sky, (std::vector<Point>{{0, 3}, {1, 2}, {2, 1}}));
}

// ---------------------------------------------------------------------
// Polygon union

TEST(PolygonUnionTest, DisjointPolygonsKeepAllEdges) {
  const Polygon a({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  const Polygon b({{5, 5}, {6, 5}, {6, 6}, {5, 6}});
  EXPECT_DOUBLE_EQ(UnionBoundaryLength({a, b}),
                   a.Perimeter() + b.Perimeter());
}

TEST(PolygonUnionTest, AdjacentSquaresDropSharedBorder) {
  const Polygon a({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const Polygon b({{2, 0}, {4, 0}, {4, 2}, {2, 2}});
  // Union is a 4x2 rectangle: perimeter 12 (shared border removed).
  EXPECT_DOUBLE_EQ(UnionBoundaryLength({a, b}), 12.0);
}

TEST(PolygonUnionTest, OverlappingSquares) {
  const Polygon a({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const Polygon b({{1, 1}, {3, 1}, {3, 3}, {1, 3}});
  // The union is an L-ish octagon with perimeter 12.
  EXPECT_NEAR(UnionBoundaryLength({a, b}), 12.0, 1e-9);
}

TEST(PolygonUnionTest, ContainedPolygonDisappears) {
  const Polygon outer({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const Polygon inner({{2, 2}, {4, 2}, {4, 4}, {2, 4}});
  EXPECT_DOUBLE_EQ(UnionBoundaryLength({outer, inner}), 40.0);
}

TEST(PolygonUnionTest, UnionIsIdempotentOnItsInput) {
  // Union of a single polygon returns its own edges.
  const Polygon tri({{0, 0}, {5, 0}, {2, 4}});
  EXPECT_DOUBLE_EQ(UnionBoundaryLength({tri}), tri.Perimeter());
}

}  // namespace
}  // namespace shadoop
