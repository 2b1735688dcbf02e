#include "geometry/polygon.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "simd/mbr_kernels.h"

namespace shadoop {

double Polygon::SignedArea() const {
  if (IsEmpty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Point& p = ring_[i];
    const Point& q = ring_[(i + 1) % ring_.size()];
    sum += p.x * q.y - q.x * p.y;
  }
  return sum / 2.0;
}

double Polygon::Perimeter() const {
  if (IsEmpty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    sum += Distance(ring_[i], ring_[(i + 1) % ring_.size()]);
  }
  return sum;
}

Envelope Polygon::RingBounds(const std::vector<Point>& ring) {
  Envelope e;
  for (const Point& p : ring) e.ExpandToInclude(p);
  return e;
}

namespace {

/// Even-odd crossing count; unreliable exactly on the boundary, so both
/// public predicates resolve boundary points explicitly first.
bool EvenOddInside(const std::vector<Point>& ring, const Point& p) {
  bool inside = false;
  for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
    const Point& a = ring[i];
    const Point& b = ring[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

bool OnBoundary(const std::vector<Point>& ring, const Point& p) {
  for (size_t i = 0; i < ring.size(); ++i) {
    const Segment edge(ring[i], ring[(i + 1) % ring.size()]);
    if (PointSegmentDistance(p, edge) == 0.0) return true;
  }
  return false;
}

}  // namespace

bool Polygon::Contains(const Point& p) const {
  if (IsEmpty()) return false;
  // A point outside the MBR is outside the ring: no edge can be at
  // distance zero and the even-odd crossing count is necessarily even,
  // so the reject is exact — it only skips the expensive loops.
  if (!Bounds().Contains(p)) return false;
  return OnBoundary(ring_, p) || EvenOddInside(ring_, p);
}

bool Polygon::ContainsInterior(const Point& p) const {
  if (IsEmpty()) return false;
  if (!Bounds().Contains(p)) return false;
  return !OnBoundary(ring_, p) && EvenOddInside(ring_, p);
}

bool Polygon::Intersects(const Polygon& other) const {
  if (IsEmpty() || other.IsEmpty()) return false;
  if (!Bounds().Intersects(other.Bounds())) return false;
  // Batch edge-bbox prefilter (join refinement hot path): lay out the
  // other ring's edge bounding boxes as SoA lanes once, then test each of
  // our edges' bboxes against all of them in one vector sweep. Two
  // segments sharing a point have closed-intersecting bboxes, so a
  // bbox miss exactly implies SegmentsIntersect is false (touching
  // included) — the filtered loop returns the same answer as the full
  // quadratic scan, in the same (i, j) order.
  const size_t na = ring_.size();
  const size_t nb = other.ring_.size();
  thread_local std::vector<double> b_min_x, b_min_y, b_max_x, b_max_y;
  thread_local std::vector<uint64_t> hit_bits;
  b_min_x.resize(nb);
  b_min_y.resize(nb);
  b_max_x.resize(nb);
  b_max_y.resize(nb);
  hit_bits.resize(simd::BitmapWords(nb));
  for (size_t j = 0; j < nb; ++j) {
    const Point& t0 = other.ring_[j];
    const Point& t1 = other.ring_[(j + 1) % nb];
    b_min_x[j] = std::min(t0.x, t1.x);
    b_min_y[j] = std::min(t0.y, t1.y);
    b_max_x[j] = std::max(t0.x, t1.x);
    b_max_y[j] = std::max(t0.y, t1.y);
  }
  const simd::BoxLanes lanes{b_min_x.data(), b_min_y.data(), b_max_x.data(),
                             b_max_y.data()};
  const simd::detail::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < na; ++i) {
    const Point& s0 = ring_[i];
    const Point& s1 = ring_[(i + 1) % na];
    const Segment s(s0, s1);
    const size_t hits = kernels.intersect_box_bitmap(
        lanes, nb, std::min(s0.x, s1.x), std::min(s0.y, s1.y),
        std::max(s0.x, s1.x), std::max(s0.y, s1.y), hit_bits.data());
    if (hits == 0) continue;
    for (size_t w = 0; w < hit_bits.size(); ++w) {
      uint64_t word = hit_bits[w];
      while (word != 0) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        const Segment t(other.ring_[j], other.ring_[(j + 1) % nb]);
        if (SegmentsIntersect(s, t)) return true;
      }
    }
  }
  // No edge crossings: one polygon may still contain the other entirely.
  return Contains(other.ring().front()) || other.Contains(ring_.front());
}

std::vector<Segment> Polygon::Edges() const {
  std::vector<Segment> edges;
  if (IsEmpty()) return edges;
  edges.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    edges.emplace_back(ring_[i], ring_[(i + 1) % ring_.size()]);
  }
  return edges;
}

void Polygon::Normalize() {
  if (!IsEmpty() && SignedArea() < 0.0) {
    std::reverse(ring_.begin(), ring_.end());
    // The same points give the same box, except that a tie between 0.0
    // and -0.0 keeps the first one visited; rescan in the new order.
    bounds_ = RingBounds(ring_);
  }
}

Polygon MakeRegularPolygon(const Point& center, double radius, int sides) {
  std::vector<Point> ring;
  ring.reserve(sides);
  for (int i = 0; i < sides; ++i) {
    const double angle = 2.0 * M_PI * i / sides;
    ring.emplace_back(center.x + radius * std::cos(angle),
                      center.y + radius * std::sin(angle));
  }
  return Polygon(std::move(ring));
}

}  // namespace shadoop
