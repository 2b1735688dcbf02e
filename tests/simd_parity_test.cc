// Scalar-vs-SIMD parity suite (DESIGN.md §13): every compiled dispatch
// target must produce bit-identical hit bitmaps, counts and distances to
// the scalar reference kernels — which themselves must match the
// geometry layer's Envelope semantics — and the packed R-tree must return
// the same search hits, visited counts and nearest neighbours on every
// target as on kScalar, with results equal to brute force.
// Runs under the ASan/UBSan tree via the regular ctest suite.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "geometry/envelope.h"
#include "index/packed_rtree.h"
#include "simd/dispatch.h"
#include "simd/mbr_kernels.h"

namespace shadoop {
namespace {

using simd::BoxLanes;
using simd::Target;
using simd::detail::KernelTable;
using simd::detail::TableFor;

/// Column of boxes in SoA form plus the Envelope each row round-trips
/// through, so expectations can compare against Envelope semantics.
struct BoxColumn {
  std::vector<double> min_x, min_y, max_x, max_y;
  std::vector<Envelope> boxes;

  void Push(const Envelope& e) {
    min_x.push_back(e.min_x());
    min_y.push_back(e.min_y());
    max_x.push_back(e.max_x());
    max_y.push_back(e.max_y());
    boxes.push_back(e);
  }
  size_t size() const { return boxes.size(); }
  BoxLanes Lanes() const {
    return {min_x.data(), min_y.data(), max_x.data(), max_y.data()};
  }
};

/// Batch sizes crossing the vector width (4) and bitmap word (64)
/// boundaries, where lane masking and tail handling can go wrong.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 63, 64, 65, 127, 128, 130, 257};

/// Deterministic mix of regular, degenerate (zero-area), touching and
/// canonical-empty boxes.
BoxColumn MakeBoxes(size_t n, Random* rng) {
  BoxColumn col;
  for (size_t i = 0; i < n; ++i) {
    switch (rng->NextUint32(5)) {
      case 0:  // Canonical empty box: must never hit anything.
        col.Push(Envelope());
        break;
      case 1: {  // Degenerate point box.
        const double x = rng->NextDouble(-100, 100);
        const double y = rng->NextDouble(-100, 100);
        col.Push(Envelope(x, y, x, y));
        break;
      }
      case 2: {  // Degenerate horizontal/vertical segment box.
        const double x = rng->NextDouble(-100, 100);
        const double y = rng->NextDouble(-100, 100);
        const double len = rng->NextDouble(0, 10);
        col.Push(rng->NextBool() ? Envelope(x, y, x + len, y)
                                 : Envelope(x, y, x, y + len));
        break;
      }
      case 3: {  // Box sharing an edge with the canonical query below —
                 // closed semantics must count touching as intersecting.
        const double y = rng->NextDouble(-100, 100);
        col.Push(Envelope(10.0, y, 10.0 + rng->NextDouble(0, 5), y + 1));
        break;
      }
      default: {
        const double x = rng->NextDouble(-100, 100);
        const double y = rng->NextDouble(-100, 100);
        col.Push(Envelope(x, y, x + rng->NextDouble(0, 20),
                          y + rng->NextDouble(0, 20)));
        break;
      }
    }
  }
  return col;
}

std::vector<Target> CompiledTargets() {
  std::vector<Target> targets;
  for (Target t : simd::SupportedTargets()) {
    if (TableFor(t).intersect_box_bitmap != nullptr) targets.push_back(t);
  }
  return targets;
}

TEST(DispatchTest, ScalarAlwaysSupportedAndFirst) {
  const std::vector<Target> targets = simd::SupportedTargets();
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets.front(), Target::kScalar);
  for (Target t : targets) {
    EXPECT_NE(simd::TargetName(t), nullptr);
    EXPECT_NE(TableFor(t).intersect_box_bitmap, nullptr);
  }
}

TEST(DispatchTest, SetActiveTargetRoundTrips) {
  const Target original = simd::ActiveTarget();
  for (Target t : simd::SupportedTargets()) {
    EXPECT_TRUE(simd::SetActiveTarget(t));
    EXPECT_EQ(simd::ActiveTarget(), t);
  }
  EXPECT_TRUE(simd::SetActiveTarget(original));
}

TEST(KernelParityTest, IntersectBoxBitmapMatchesEnvelopeAndAllTargets) {
  Random rng(7);
  for (size_t n : kSizes) {
    const BoxColumn col = MakeBoxes(n, &rng);
    // The canonical query plus an empty and a degenerate one.
    const Envelope queries[] = {Envelope(-10, -10, 10, 10), Envelope(),
                                Envelope(5, 5, 5, 5)};
    for (const Envelope& q : queries) {
      std::vector<uint64_t> expected(simd::BitmapWords(n) + 1, ~uint64_t{0});
      const size_t expected_hits = TableFor(Target::kScalar)
                                       .intersect_box_bitmap(
                                           col.Lanes(), n, q.min_x(),
                                           q.min_y(), q.max_x(), q.max_y(),
                                           expected.data());
      // Scalar kernel == Envelope::Intersects, bit for bit.
      size_t envelope_hits = 0;
      for (size_t i = 0; i < n; ++i) {
        const bool hit = col.boxes[i].Intersects(q);
        envelope_hits += hit;
        EXPECT_EQ((expected[i / 64] >> (i % 64)) & 1, uint64_t{hit})
            << "box " << i << " vs query " << q.ToString();
      }
      EXPECT_EQ(expected_hits, envelope_hits);
      for (Target t : CompiledTargets()) {
        std::vector<uint64_t> bits(simd::BitmapWords(n) + 1, ~uint64_t{0});
        const size_t hits = TableFor(t).intersect_box_bitmap(
            col.Lanes(), n, q.min_x(), q.min_y(), q.max_x(), q.max_y(),
            bits.data());
        EXPECT_EQ(hits, expected_hits) << simd::TargetName(t);
        for (size_t w = 0; w < simd::BitmapWords(n); ++w) {
          EXPECT_EQ(bits[w], expected[w])
              << simd::TargetName(t) << " word " << w << " n=" << n;
        }
        // The word past the bitmap must stay untouched.
        EXPECT_EQ(bits[simd::BitmapWords(n)], ~uint64_t{0});
      }
    }
  }
}

TEST(KernelParityTest, BoxMinDistanceBitIdentical) {
  Random rng(13);
  for (size_t n : kSizes) {
    const BoxColumn col = MakeBoxes(n, &rng);
    const double px = rng.NextDouble(-50, 50);
    const double py = rng.NextDouble(-50, 50);
    std::vector<double> expected(n, -1);
    TableFor(Target::kScalar)
        .box_min_distance(col.Lanes(), n, px, py, expected.data());
    for (size_t i = 0; i < n; ++i) {
      // Scalar kernel == Envelope::MinDistance, bit for bit (empty box
      // => +inf).
      EXPECT_EQ(std::bit_cast<uint64_t>(expected[i]),
                std::bit_cast<uint64_t>(
                    col.boxes[i].MinDistance(Point(px, py))))
          << i;
    }
    for (Target t : CompiledTargets()) {
      std::vector<double> out(n, -1);
      TableFor(t).box_min_distance(col.Lanes(), n, px, py, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(out[i]),
                  std::bit_cast<uint64_t>(expected[i]))
            << simd::TargetName(t) << " i=" << i;
      }
    }
  }
}

TEST(KernelParityTest, PrefixCountLessEqualAllTargets) {
  Random rng(17);
  for (size_t n : kSizes) {
    std::vector<double> values;
    double v = -100;
    for (size_t i = 0; i < n; ++i) {
      v += rng.NextDouble(0, 3);  // Ascending, with duplicates possible.
      values.push_back(v);
    }
    const double limits[] = {-std::numeric_limits<double>::infinity(), -100,
                             0, v, v + 1,
                             std::numeric_limits<double>::infinity()};
    for (double limit : limits) {
      const size_t expected = TableFor(Target::kScalar)
                                  .prefix_count_less_equal(values.data(), n,
                                                           limit);
      size_t naive = 0;
      while (naive < n && values[naive] <= limit) ++naive;
      EXPECT_EQ(expected, naive);
      for (Target t : CompiledTargets()) {
        EXPECT_EQ(TableFor(t).prefix_count_less_equal(values.data(), n,
                                                      limit),
                  expected)
            << simd::TargetName(t) << " n=" << n << " limit=" << limit;
      }
    }
  }
}

TEST(KernelParityTest, DispatchedEntryPointsFollowActiveTarget) {
  const Target original = simd::ActiveTarget();
  Random rng(19);
  const BoxColumn col = MakeBoxes(130, &rng);
  std::vector<uint64_t> reference(simd::BitmapWords(col.size()));
  simd::SetActiveTarget(Target::kScalar);
  const size_t expected = simd::IntersectBoxBitmap(
      col.Lanes(), col.size(), -10, -10, 10, 10, reference.data());
  for (Target t : simd::SupportedTargets()) {
    ASSERT_TRUE(simd::SetActiveTarget(t));
    std::vector<uint64_t> bits(simd::BitmapWords(col.size()));
    EXPECT_EQ(simd::IntersectBoxBitmap(col.Lanes(), col.size(), -10, -10, 10,
                                       10, bits.data()),
              expected)
        << simd::TargetName(t);
    EXPECT_EQ(bits, reference) << simd::TargetName(t);
  }
  simd::SetActiveTarget(original);
}

// ---------------------------------------------------------------------
// PackedRTree on every target

std::vector<index::PackedRTree::Entry> MakeEntries(size_t n, Random* rng) {
  std::vector<index::PackedRTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble(0, 1000);
    const double y = rng->NextDouble(0, 1000);
    entries.push_back({Envelope(x, y, x + rng->NextDouble(0, 8),
                                y + rng->NextDouble(0, 8)),
                       static_cast<uint32_t>(i)});
  }
  return entries;
}

/// The n x capacity grid the tree suites sweep: empty, single-entry,
/// single-leaf and multi-level trees at several fan-outs.
const size_t kTreeSizes[] = {0, 1, 5, 100, 1000};
const int kCapacities[] = {2, 4, 32};

TEST(PackedRTreeParityTest, SearchMatchesScalarAndBruteForce) {
  const Target original = simd::ActiveTarget();
  Random rng(23);
  for (size_t n : kTreeSizes) {
    for (int capacity : kCapacities) {
      const std::vector<index::PackedRTree::Entry> entries =
          MakeEntries(n, &rng);
      const index::PackedRTree tree(entries, capacity);
      EXPECT_EQ(tree.NumEntries(), n);
      for (int qi = 0; qi < 50; ++qi) {
        const double x = rng.NextDouble(-50, 1050);
        const double y = rng.NextDouble(-50, 1050);
        const Envelope query(x, y, x + rng.NextDouble(0, 120),
                             y + rng.NextDouble(0, 120));
        ASSERT_TRUE(simd::SetActiveTarget(Target::kScalar));
        std::vector<uint32_t> expected_hits;
        const size_t expected_visited = tree.Search(query, &expected_hits);
        std::set<uint32_t> brute;
        for (const auto& e : entries) {
          if (e.box.Intersects(query)) brute.insert(e.payload);
        }
        EXPECT_EQ(expected_hits.size(), brute.size());
        EXPECT_EQ(std::set<uint32_t>(expected_hits.begin(),
                                     expected_hits.end()),
                  brute);
        // Same payloads in the same order, same visited count (the
        // CPU-cost proxy), on every target.
        for (Target t : simd::SupportedTargets()) {
          ASSERT_TRUE(simd::SetActiveTarget(t));
          std::vector<uint32_t> hits;
          EXPECT_EQ(tree.Search(query, &hits), expected_visited)
              << simd::TargetName(t) << " n=" << n << " cap=" << capacity;
          EXPECT_EQ(hits, expected_hits) << simd::TargetName(t);
        }
      }
      // Empty query never matches and never visits.
      std::vector<uint32_t> hits;
      EXPECT_EQ(tree.Search(Envelope(), &hits), 0u);
      EXPECT_TRUE(hits.empty());
    }
  }
  simd::SetActiveTarget(original);
}

TEST(PackedRTreeParityTest, NearestNeighborsMatchScalarAndBruteForce) {
  const Target original = simd::ActiveTarget();
  Random rng(29);
  for (size_t n : kTreeSizes) {
    for (int capacity : kCapacities) {
      const std::vector<index::PackedRTree::Entry> entries =
          MakeEntries(n, &rng);
      const index::PackedRTree tree(entries, capacity);
      for (int qi = 0; qi < 20; ++qi) {
        const Point q(rng.NextDouble(-50, 1050), rng.NextDouble(-50, 1050));
        const size_t k = 1 + rng.NextUint32(12);
        ASSERT_TRUE(simd::SetActiveTarget(Target::kScalar));
        const std::vector<uint32_t> expected = tree.NearestNeighbors(q, k);
        ASSERT_EQ(expected.size(), std::min(k, n));
        // Nearest first, and exactly the k smallest MinDistances.
        std::vector<double> brute;
        for (const auto& e : entries) brute.push_back(e.box.MinDistance(q));
        std::sort(brute.begin(), brute.end());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(entries[expected[i]].box.MinDistance(q), brute[i])
              << "n=" << n << " cap=" << capacity << " rank " << i;
        }
        for (Target t : simd::SupportedTargets()) {
          ASSERT_TRUE(simd::SetActiveTarget(t));
          EXPECT_EQ(tree.NearestNeighbors(q, k), expected)
              << simd::TargetName(t) << " n=" << n << " cap=" << capacity;
        }
      }
    }
  }
  simd::SetActiveTarget(original);
}

}  // namespace
}  // namespace shadoop
