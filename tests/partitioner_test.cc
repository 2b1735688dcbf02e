#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <tuple>

#include "index/grid_partitioner.h"
#include "index/partitioner.h"
#include "test_util.h"
#include "workload/generators.h"

namespace shadoop::index {
namespace {

using workload::Distribution;

struct PartitionerCase {
  PartitionScheme scheme;
  Distribution distribution;
};

std::string CaseName(
    const ::testing::TestParamInfo<PartitionerCase>& info) {
  std::string name = PartitionSchemeName(info.param.scheme);
  name += "_";
  name += workload::DistributionName(info.param.distribution);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = 'x';
  }
  return name;
}

class PartitionerPropertyTest
    : public ::testing::TestWithParam<PartitionerCase> {
 protected:
  void SetUp() override {
    workload::PointGenOptions options;
    options.distribution = GetParam().distribution;
    options.count = 4000;
    options.seed = 99;
    points_ = workload::GeneratePoints(options);
    for (const Point& p : points_) space_.ExpandToInclude(p);

    partitioner_ = MakePartitioner(GetParam().scheme).ValueOrDie();
    // Sample: every 10th point.
    std::vector<Point> sample;
    for (size_t i = 0; i < points_.size(); i += 10) sample.push_back(points_[i]);
    ASSERT_TRUE(partitioner_->Construct(space_, sample, 16).ok());
  }

  std::vector<Point> points_;
  Envelope space_;
  std::unique_ptr<Partitioner> partitioner_;
};

TEST_P(PartitionerPropertyTest, EveryPointGetsExactlyOneCell) {
  for (const Point& p : points_) {
    const int cell = partitioner_->AssignPoint(p);
    ASSERT_GE(cell, 0);
    ASSERT_LT(cell, partitioner_->NumCells());
  }
}

TEST_P(PartitionerPropertyTest, DisjointCellsContainTheirPoints) {
  if (!partitioner_->IsDisjoint()) GTEST_SKIP();
  for (const Point& p : points_) {
    const int cell = partitioner_->AssignPoint(p);
    const Envelope extent = partitioner_->CellExtent(cell);
    EXPECT_TRUE(extent.Contains(p))
        << "point " << p.x << "," << p.y << " not in cell "
        << extent.ToString();
  }
}

TEST_P(PartitionerPropertyTest, DisjointCellsTileTheSpace) {
  if (!partitioner_->IsDisjoint()) GTEST_SKIP();
  // Total cell area equals the space area (no gaps, no overlaps).
  double total = 0;
  for (int id = 0; id < partitioner_->NumCells(); ++id) {
    total += partitioner_->CellExtent(id).Area();
  }
  EXPECT_NEAR(total, space_.Area(), space_.Area() * 1e-9);
}

TEST_P(PartitionerPropertyTest, EnvelopeAssignmentCoversContainingCells) {
  Random rng(5);
  for (int i = 0; i < 100; ++i) {
    const Point c(rng.NextDouble(space_.min_x(), space_.max_x()),
                  rng.NextDouble(space_.min_y(), space_.max_y()));
    const Envelope box(c.x, c.y,
                       std::min(space_.max_x(), c.x + space_.Width() * 0.03),
                       std::min(space_.max_y(), c.y + space_.Height() * 0.03));
    std::vector<int> cells = {-1};  // Stale contents are replaced.
    partitioner_->AssignEnvelope(box, &cells);
    ASSERT_FALSE(cells.empty());
    if (partitioner_->IsDisjoint()) {
      // Every cell intersecting the box must be present.
      for (int id = 0; id < partitioner_->NumCells(); ++id) {
        const bool overlaps = partitioner_->CellExtent(id).Intersects(box);
        const bool listed =
            std::find(cells.begin(), cells.end(), id) != cells.end();
        EXPECT_EQ(overlaps, listed) << "cell " << id;
      }
    } else {
      // Single-placement schemes store the shape exactly once.
      EXPECT_EQ(cells.size(), 1u);
    }
  }
}

TEST_P(PartitionerPropertyTest, AdaptiveSchemesBalanceSkewedData) {
  // The uniform grid is expected to fail this on skewed data; the
  // sample-based techniques must keep the largest cell within a small
  // multiple of the average.
  if (GetParam().scheme == PartitionScheme::kGrid) GTEST_SKIP();
  if (GetParam().distribution == Distribution::kUniform) GTEST_SKIP();
  std::map<int, size_t> counts;
  for (const Point& p : points_) counts[partitioner_->AssignPoint(p)]++;
  size_t max_count = 0;
  for (const auto& [cell, count] : counts) max_count = std::max(max_count, count);
  const double average =
      static_cast<double>(points_.size()) / partitioner_->NumCells();
  EXPECT_LT(static_cast<double>(max_count), 6.0 * average);
}

std::vector<PartitionerCase> AllCases() {
  std::vector<PartitionerCase> cases;
  for (PartitionScheme scheme : testing::AllSchemes()) {
    for (Distribution dist :
         {Distribution::kUniform, Distribution::kGaussian,
          Distribution::kClustered, Distribution::kAntiCorrelated}) {
      cases.push_back({scheme, dist});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionerPropertyTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(PartitionSchemeTest, NamesRoundTrip) {
  for (PartitionScheme scheme : testing::AllSchemes()) {
    EXPECT_EQ(ParsePartitionScheme(PartitionSchemeName(scheme)).ValueOrDie(),
              scheme);
  }
  EXPECT_FALSE(ParsePartitionScheme("nope").ok());
}

TEST(PartitionSchemeTest, DisjointClassification) {
  EXPECT_TRUE(IsDisjointScheme(PartitionScheme::kGrid));
  EXPECT_TRUE(IsDisjointScheme(PartitionScheme::kStrPlus));
  EXPECT_TRUE(IsDisjointScheme(PartitionScheme::kQuadTree));
  EXPECT_TRUE(IsDisjointScheme(PartitionScheme::kKdTree));
  EXPECT_FALSE(IsDisjointScheme(PartitionScheme::kStr));
  EXPECT_FALSE(IsDisjointScheme(PartitionScheme::kZCurve));
  EXPECT_FALSE(IsDisjointScheme(PartitionScheme::kHilbert));
  EXPECT_FALSE(IsDisjointScheme(PartitionScheme::kNone));
}

TEST(GridPartitionerTest, UniformCellsOnUnitSquare) {
  GridPartitioner grid;
  ASSERT_TRUE(grid.Construct(Envelope(0, 0, 1, 1), {}, 16).ok());
  EXPECT_EQ(grid.NumCells(), 16);
  EXPECT_EQ(grid.cols(), 4);
  EXPECT_EQ(grid.rows(), 4);
  EXPECT_EQ(grid.AssignPoint(Point(0.1, 0.1)), 0);
  EXPECT_EQ(grid.AssignPoint(Point(0.9, 0.9)), 15);
  // Boundary points are assigned to exactly one cell.
  EXPECT_EQ(grid.AssignPoint(Point(0.25, 0.0)), 1);
  // Points on the global max edge stay in range.
  EXPECT_EQ(grid.AssignPoint(Point(1.0, 1.0)), 15);
}

/// StrPartitioner's cell extents as its original construction computed
/// them, scanning the whole sample once per slab for the slab's ys: the
/// oracle for its one-pass bucketing.
std::vector<Envelope> StrExtentsByRescan(const Envelope& space,
                                         const std::vector<Point>& sample,
                                         int target) {
  const int num_slabs =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(target))));
  const int rows_per_slab = (target + num_slabs - 1) / num_slabs;
  std::vector<double> xs;
  for (const Point& p : sample) xs.push_back(p.x);
  std::sort(xs.begin(), xs.end());
  std::vector<double> x_bounds = {space.min_x()};
  for (int s = 1; s < num_slabs; ++s) {
    double b = xs[std::min(s * xs.size() / num_slabs, xs.size() - 1)];
    if (b <= x_bounds.back()) b = x_bounds.back();
    x_bounds.push_back(b);
  }
  x_bounds.push_back(space.max_x());
  auto slab_of = [&x_bounds](double x) {
    return static_cast<int>(
        std::upper_bound(x_bounds.begin() + 1, x_bounds.end() - 1, x) -
        (x_bounds.begin() + 1));
  };
  std::vector<Envelope> extents;
  for (int s = 0; s < num_slabs; ++s) {
    std::vector<double> ys;
    for (const Point& p : sample) {
      if (slab_of(p.x) == s) ys.push_back(p.y);
    }
    std::sort(ys.begin(), ys.end());
    std::vector<double> bounds = {space.min_y()};
    const int rows = ys.empty() ? 1 : rows_per_slab;
    for (int r = 1; r < rows; ++r) {
      double b = ys[std::min(r * ys.size() / rows, ys.size() - 1)];
      if (b <= bounds.back()) b = bounds.back();
      bounds.push_back(b);
    }
    bounds.push_back(space.max_y());
    for (size_t r = 0; r + 1 < bounds.size(); ++r) {
      extents.emplace_back(x_bounds[s], bounds[r], x_bounds[s + 1],
                           bounds[r + 1]);
    }
  }
  return extents;
}

TEST(StrPartitionerTest, OnePassBoundariesMatchThePerSlabRescan) {
  std::vector<std::pair<std::string, std::vector<Point>>> samples;
  for (Distribution dist : {Distribution::kUniform, Distribution::kClustered}) {
    workload::PointGenOptions options;
    options.distribution = dist;
    options.count = 5000;
    options.seed = 17;
    samples.emplace_back(workload::DistributionName(dist),
                         workload::GeneratePoints(options));
  }
  // Few distinct coordinates: boundaries collapse onto one another.
  std::vector<Point> duplicates;
  for (int i = 0; i < 5000; ++i) {
    duplicates.emplace_back((i * 7919) % 5, (i * 104729) % 3);
  }
  samples.emplace_back("duplicates", std::move(duplicates));
  // Fewer points than slabs: some slabs get no ys.
  samples.emplace_back("three points",
                       std::vector<Point>{{5, 1}, {1, 9}, {5, 2}});
  for (const auto& [name, sample] : samples) {
    Envelope space;
    for (const Point& p : sample) space.ExpandToInclude(p);
    for (int target : {1, 2, 81, 100}) {
      const std::vector<Envelope> expected =
          StrExtentsByRescan(space, sample, target);
      for (PartitionScheme scheme :
           {PartitionScheme::kStr, PartitionScheme::kStrPlus}) {
        SCOPED_TRACE(name + ", target " + std::to_string(target) + ", " +
                     PartitionSchemeName(scheme));
        auto part = MakePartitioner(scheme).ValueOrDie();
        ASSERT_TRUE(part->Construct(space, sample, target).ok());
        ASSERT_EQ(part->NumCells(), static_cast<int>(expected.size()));
        for (int cell = 0; cell < part->NumCells(); ++cell) {
          EXPECT_EQ(part->CellExtent(cell), expected[cell]) << "cell " << cell;
        }
      }
    }
  }
}

TEST(CurvePartitionerTest, HilbertPreservesLocality) {
  // Neighbouring points should mostly land in the same or adjacent cells;
  // we only assert the weaker property that both curve schemes produce
  // the requested number of cells and consistent assignment.
  for (PartitionScheme scheme :
       {PartitionScheme::kZCurve, PartitionScheme::kHilbert}) {
    auto part = MakePartitioner(scheme).ValueOrDie();
    workload::PointGenOptions options;
    options.count = 1000;
    std::vector<Point> sample = workload::GeneratePoints(options);
    ASSERT_TRUE(part->Construct(options.space, sample, 10).ok());
    EXPECT_EQ(part->NumCells(), 10);
    std::map<int, int> counts;
    for (const Point& p : sample) counts[part->AssignPoint(p)]++;
    // Equal-count cuts of the sample itself: within 2x of fair share.
    for (const auto& [cell, count] : counts) {
      EXPECT_LT(count, 200) << PartitionSchemeName(scheme);
    }
  }
}

}  // namespace
}  // namespace shadoop::index
