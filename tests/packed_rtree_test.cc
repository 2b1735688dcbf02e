#include "index/packed_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
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

/// Search returns every entry whose box intersects `query` exactly
/// once, and visits no node when the tree's bounds miss the query.
void ExpectSearchMatchesBruteForce(const PackedRTree& tree,
                                   const std::vector<Entry>& entries,
                                   const Envelope& query) {
  std::set<uint32_t> expected;
  for (const Entry& e : entries) {
    if (e.box.Intersects(query)) expected.insert(e.payload);
  }
  std::vector<uint32_t> out;
  const size_t visited = tree.Search(query, &out);
  EXPECT_EQ(visited > 0, tree.Bounds().Intersects(query));
  EXPECT_EQ(std::set<uint32_t>(out.begin(), out.end()).size(), out.size());
  EXPECT_EQ(std::set<uint32_t>(out.begin(), out.end()), expected)
      << query.ToString();
}

/// NearestNeighbors returns min(k, n) payloads, nearest first, whose
/// distances are exactly the k smallest MinDistances. Payload i must be
/// entry i.
void ExpectKnnMatchesBruteForce(const PackedRTree& tree,
                                const std::vector<Entry>& entries,
                                const Point& q, size_t k) {
  std::vector<double> dists;
  for (const Entry& e : entries) dists.push_back(e.box.MinDistance(q));
  std::sort(dists.begin(), dists.end());
  const std::vector<uint32_t> knn = tree.NearestNeighbors(q, k);
  ASSERT_EQ(knn.size(), std::min(k, entries.size()));
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_EQ(entries[knn[i]].box.MinDistance(q), dists[i]) << "rank " << i;
  }
}

/// Entries mixing the boxes the MBR filter must get right: regular
/// boxes, degenerate point and segment boxes, boxes whose min-x edge
/// lies on kEdgeQuery's max-x edge (closed semantics: touching hits), and
/// canonical-empty boxes, which never match and lie at +inf from every
/// point. Entry i carries payload i.
const Envelope kEdgeQuery(-10, -10, 10, 10);

std::vector<Entry> MixedEntries(size_t n, Random* rng) {
  std::vector<Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble(-100, 100);
    const double y = rng->NextDouble(-100, 100);
    const double len = rng->NextDouble(0, 20);
    Envelope box;
    switch (rng->NextUint32(5)) {
      case 0:  // Canonical empty box.
        break;
      case 1:
        box = Envelope(x, y, x, y);
        break;
      case 2:
        box = rng->NextBool() ? Envelope(x, y, x + len, y)
                              : Envelope(x, y, x, y + len);
        break;
      case 3:
        box = Envelope(10, y / 8, 10 + len, y / 8 + 1);
        break;
      default:
        box = Envelope(x, y, x + len, y + rng->NextDouble(0, 20));
        break;
    }
    entries.push_back({box, static_cast<uint32_t>(i)});
  }
  return entries;
}

/// The tree grid: empty, single-entry, single-leaf and multi-level trees
/// at several fan-outs.
const size_t kTreeSizes[] = {0, 1, 5, 100, 1000};
const int kCapacities[] = {2, 4, 32};

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
    ExpectSearchMatchesBruteForce(tree, entries, query);
  }

  // The tree grid over mixed boxes, with the edge query, a point query
  // and random windows; an empty query never matches and never visits.
  Random grid_rng(23);
  for (size_t n : kTreeSizes) {
    for (int capacity : kCapacities) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " capacity=" + std::to_string(capacity));
      const std::vector<Entry> mixed = MixedEntries(n, &grid_rng);
      const PackedRTree grid_tree(mixed, capacity);
      EXPECT_EQ(grid_tree.NumEntries(), n);
      ExpectSearchMatchesBruteForce(grid_tree, mixed, kEdgeQuery);
      ExpectSearchMatchesBruteForce(grid_tree, mixed, Envelope(5, 5, 5, 5));
      for (int q = 0; q < 30; ++q) {
        const double x = grid_rng.NextDouble(-110, 110);
        const double y = grid_rng.NextDouble(-110, 110);
        ExpectSearchMatchesBruteForce(
            grid_tree, mixed,
            Envelope(x, y, x + grid_rng.NextDouble(0, 40),
                     y + grid_rng.NextDouble(0, 40)));
      }
      std::vector<uint32_t> out;
      EXPECT_EQ(grid_tree.Search(Envelope(), &out), 0u);
      EXPECT_TRUE(out.empty());
    }
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
  ExpectKnnMatchesBruteForce(PackedRTree(boxes, /*leaf_capacity=*/8), boxes,
                             q, 25);

  // The tree grid over mixed boxes; canonical-empty entries rank last,
  // at +inf.
  Random grid_rng(29);
  for (size_t n : kTreeSizes) {
    for (int capacity : kCapacities) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " capacity=" + std::to_string(capacity));
      const std::vector<Entry> mixed = MixedEntries(n, &grid_rng);
      const PackedRTree grid_tree(mixed, capacity);
      for (int qi = 0; qi < 20; ++qi) {
        const Point p(grid_rng.NextDouble(-110, 110),
                      grid_rng.NextDouble(-110, 110));
        ExpectKnnMatchesBruteForce(grid_tree, mixed, p,
                                   1 + grid_rng.NextUint32(12));
      }
    }
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
