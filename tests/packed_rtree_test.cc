#include "index/packed_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"

namespace shadoop::index {
namespace {

using Entry = PackedRTree::Entry;

std::vector<Entry> RandomEntries(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDouble(0, 100);
    const double y = rng.NextDouble(0, 100);
    const double w = rng.NextDouble(0, 2);
    const double h = rng.NextDouble(0, 2);
    entries.push_back({Envelope(x, y, x + w, y + h),
                       static_cast<uint32_t>(i)});
  }
  return entries;
}

std::set<uint32_t> BruteForceSearch(const std::vector<Entry>& entries,
                                    const Envelope& query) {
  std::set<uint32_t> hits;
  for (const Entry& e : entries) {
    if (e.box.Intersects(query)) hits.insert(e.payload);
  }
  return hits;
}

/// MinDistance of every entry to `q`, ascending.
std::vector<double> BruteForceDistances(const std::vector<Entry>& entries,
                                        const Point& q) {
  std::vector<double> dists;
  for (const Entry& e : entries) dists.push_back(e.box.MinDistance(q));
  std::sort(dists.begin(), dists.end());
  return dists;
}

TEST(PackedRTreeTest, EmptyTree) {
  for (const PackedRTree& tree :
       {PackedRTree(), PackedRTree(std::vector<Entry>{})}) {
    EXPECT_TRUE(tree.IsEmpty());
    EXPECT_TRUE(tree.Bounds().IsEmpty());
    std::vector<uint32_t> out;
    EXPECT_EQ(tree.Search(Envelope(0, 0, 1, 1), &out), 0u);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(tree.NearestNeighbors(Point(0, 0), 3).empty());
  }
}

TEST(PackedRTreeTest, SearchMatchesBruteForce) {
  const auto entries = RandomEntries(2000, 7);
  const PackedRTree tree(entries);
  EXPECT_EQ(tree.NumEntries(), entries.size());
  EXPECT_EQ(tree.Bounds(), [&] {
    Envelope e;
    for (const auto& entry : entries) e.ExpandToInclude(entry.box);
    return e;
  }());
  Random rng(8);
  for (int q = 0; q < 50; ++q) {
    const double x = rng.NextDouble(0, 90);
    const double y = rng.NextDouble(0, 90);
    const Envelope query(x, y, x + rng.NextDouble(0, 20),
                         y + rng.NextDouble(0, 20));
    std::vector<uint32_t> out;
    tree.Search(query, &out);
    // Every hit exactly once.
    EXPECT_EQ(std::set<uint32_t>(out.begin(), out.end()).size(), out.size());
    EXPECT_EQ(std::set<uint32_t>(out.begin(), out.end()),
              BruteForceSearch(entries, query));
  }
}

TEST(PackedRTreeTest, SearchVisitsFewNodesForSelectiveQueries) {
  const auto entries = RandomEntries(10000, 3);
  const PackedRTree tree(entries);
  std::vector<uint32_t> out;
  const size_t visited = tree.Search(Envelope(50, 50, 51, 51), &out);
  // A point-ish query must not traverse the whole tree (~10000/32 leaves).
  EXPECT_LT(visited, 60u);
}

TEST(PackedRTreeTest, NearestNeighborsMatchBruteForce) {
  // Point entries: exact distances.
  Random rng(12);
  std::vector<Entry> entries;
  std::vector<Point> points;
  for (uint32_t i = 0; i < 500; ++i) {
    const Point p(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    points.push_back(p);
    entries.push_back({Envelope::FromPoint(p), i});
  }
  const PackedRTree tree(entries);
  const Point q(33, 66);
  const auto knn = tree.NearestNeighbors(q, 10);
  ASSERT_EQ(knn.size(), 10u);
  std::vector<std::pair<double, uint32_t>> expected;
  for (uint32_t i = 0; i < points.size(); ++i) {
    expected.push_back({Distance(points[i], q), i});
  }
  std::sort(expected.begin(), expected.end());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(Distance(points[knn[i]], q), expected[i].first);
  }

  // Box entries: the k smallest MinDistances, nearest first.
  const auto boxes = RandomEntries(1000, 13);
  const PackedRTree box_tree(boxes, /*leaf_capacity=*/8);
  const std::vector<double> dists = BruteForceDistances(boxes, q);
  const auto box_knn = box_tree.NearestNeighbors(q, 25);
  ASSERT_EQ(box_knn.size(), 25u);
  for (size_t i = 0; i < box_knn.size(); ++i) {
    EXPECT_EQ(boxes[box_knn[i]].box.MinDistance(q), dists[i]) << i;
  }
}

TEST(PackedRTreeTest, NearestNeighborTiesPopInFixedOrder) {
  // Two copies of a 3x3 integer grid: every distance from the centre is
  // shared by at least two entries. The best-first queue breaks ties by
  // its push history, which ascending child order fixes. The kNN join's
  // rank column depends on this order, so it is pinned.
  std::vector<Entry> entries;
  for (int copy = 0; copy < 2; ++copy) {
    for (int x = 0; x < 3; ++x) {
      for (int y = 0; y < 3; ++y) {
        entries.push_back({Envelope::FromPoint(Point(x, y)),
                           static_cast<uint32_t>(entries.size())});
      }
    }
  }
  const PackedRTree tree(entries, /*leaf_capacity=*/4);
  EXPECT_EQ(tree.NearestNeighbors(Point(1, 1), entries.size()),
            (std::vector<uint32_t>{4, 13, 5, 14, 7, 16, 10, 1, 12, 3, 2, 9,
                                   15, 17, 11, 8, 6, 0}));
}

TEST(PackedRTreeTest, KnnLargerThanTreeReturnsAll) {
  const auto entries = RandomEntries(20, 4);
  const PackedRTree tree(entries);
  const auto knn = tree.NearestNeighbors(Point(0, 0), 100);
  EXPECT_EQ(knn.size(), 20u);
  EXPECT_EQ(std::set<uint32_t>(knn.begin(), knn.end()).size(), 20u);
  EXPECT_TRUE(tree.NearestNeighbors(Point(0, 0), 0).empty());
}

TEST(PackedRTreeTest, SingleEntryAndSmallCapacity) {
  const PackedRTree tree({{Envelope(1, 1, 2, 2), 9}}, /*leaf_capacity=*/2);
  std::vector<uint32_t> out;
  tree.Search(Envelope(0, 0, 3, 3), &out);
  EXPECT_EQ(out, std::vector<uint32_t>{9});
  EXPECT_EQ(tree.NearestNeighbors(Point(5, 5), 1), std::vector<uint32_t>{9});

  // Deep tree via tiny capacity.
  const auto entries = RandomEntries(300, 5);
  const PackedRTree deep(entries, 2);
  out.clear();
  deep.Search(Envelope(0, 0, 100, 102), &out);
  EXPECT_EQ(out.size(), 300u);
}

}  // namespace
}  // namespace shadoop::index
