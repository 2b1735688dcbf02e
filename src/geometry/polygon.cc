#include "geometry/polygon.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace shadoop {
namespace {

/// A closed box as raw coordinates: unlike an Envelope, a component may
/// be NaN.
struct Box {
  double min_x, min_y, max_x, max_y;
};

Box EdgeBox(const Segment& e) {
  return {std::min(e.a.x, e.b.x), std::min(e.a.y, e.b.y),
          std::max(e.a.x, e.b.x), std::max(e.a.y, e.b.y)};
}

/// Closed overlap; false whenever a compared component is NaN. The four
/// comparisons are combined with `&`, not `&&`, so an unpredictable
/// outcome costs no branch.
bool Meet(const Box& a, const Box& b) {
  return (a.min_x <= b.max_x) & (b.min_x <= a.max_x) & (a.min_y <= b.max_y) &
         (b.min_y <= a.max_y);
}

/// Writes the indices of `ring`'s edges that meet `window` to `out`, in
/// ascending order, and returns how many there are.
size_t EdgesMeeting(const RingView& ring, const Envelope& window,
                    size_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < ring.ring.size(); ++i) {
    out[count] = i;
    count += ring.EdgeMeets(i, window);
  }
  return count;
}

/// Even-odd crossing count; unreliable exactly on the boundary, so both
/// containment predicates resolve boundary points explicitly first.
bool EvenOddInside(std::span<const Point> ring, const Point& p) {
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

bool OnBoundary(const RingView& ring, const Point& p) {
  for (size_t i = 0; i < ring.ring.size(); ++i) {
    if (PointSegmentDistance(p, ring.Edge(i)) == 0.0) return true;
  }
  return false;
}

}  // namespace

Envelope RingBounds(std::span<const Point> ring) {
  Envelope e;
  for (const Point& p : ring) e.ExpandToInclude(p);
  return e;
}

bool RingView::EdgeMeets(size_t i, const Envelope& window) const {
  return Meet(EdgeBox(Edge(i)), {window.min_x(), window.min_y(),
                                 window.max_x(), window.max_y()});
}

bool RingContains(const RingView& ring, const Point& p) {
  if (ring.IsEmpty()) return false;
  // A point outside the MBR is outside the ring: no edge can be at
  // distance zero and the even-odd crossing count is necessarily even,
  // so the reject is exact — it only skips the expensive loops.
  if (!ring.bounds.Contains(p)) return false;
  return OnBoundary(ring, p) || EvenOddInside(ring.ring, p);
}

bool RingContainsInterior(const RingView& ring, const Point& p) {
  if (ring.IsEmpty()) return false;
  if (!ring.bounds.Contains(p)) return false;
  return !OnBoundary(ring, p) && EvenOddInside(ring.ring, p);
}

bool RingsIntersect(const RingView& a, const RingView& b) {
  if (a.IsEmpty() || b.IsEmpty()) return false;
  if (!a.bounds.Intersects(b.bounds)) return false;
  // Window-masked edge loop. Every non-NaN edge box lies inside its own
  // ring's MBR, so an edge whose box misses W = MBR(a) ∩ MBR(b) meets no
  // edge box of the other ring. Skipping such edges leaves exactly the
  // (i, j) pairs, in the same order, that reach SegmentsIntersect in a
  // loop over all edge pairs with the same closed-box prefilter. A box
  // with a NaN component fails both the window and the prefilter.
  const Envelope window = a.bounds.Intersection(b.bounds);
  const size_t na = a.ring.size();
  const size_t nb = b.ring.size();
  // The two rings' index lists, on the stack while they have at most
  // 128 edges between them.
  std::array<size_t, 128> stack;
  std::vector<size_t> heap;
  size_t* a_edges = stack.data();
  if (na + nb > stack.size()) {
    heap.resize(na + nb);
    a_edges = heap.data();
  }
  size_t* const b_edges = a_edges + na;
  const size_t ma = EdgesMeeting(a, window, a_edges);
  const size_t mb = EdgesMeeting(b, window, b_edges);
  for (size_t p = 0; p < ma; ++p) {
    const Segment s = a.Edge(a_edges[p]);
    const Box s_box = EdgeBox(s);
    for (size_t q = 0; q < mb; ++q) {
      const Segment t = b.Edge(b_edges[q]);
      if (Meet(s_box, EdgeBox(t)) && SegmentsIntersect(s, t)) return true;
    }
  }
  // No edge crossings: one ring may still contain the other entirely.
  return RingContains(a, b.ring.front()) || RingContains(b, a.ring.front());
}

double Polygon::SignedArea() const {
  if (IsEmpty()) return 0.0;
  const size_t n = ring_.size();
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Point& p = ring_[i];
    const Point& q = ring_[i + 1 == n ? 0 : i + 1];
    sum += p.x * q.y - q.x * p.y;
  }
  return sum / 2.0;
}

double Polygon::Perimeter() const {
  if (IsEmpty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) sum += View().Edge(i).Length();
  return sum;
}

std::vector<Segment> Polygon::Edges() const {
  std::vector<Segment> edges;
  if (IsEmpty()) return edges;
  edges.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) edges.push_back(View().Edge(i));
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
