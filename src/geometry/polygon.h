#ifndef SHADOOP_GEOMETRY_POLYGON_H_
#define SHADOOP_GEOMETRY_POLYGON_H_

#include <span>
#include <vector>

#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/segment.h"

namespace shadoop {

/// MBR of a ring's vertices, visited in ring order. NaN coordinates are
/// skipped (Envelope::ExpandToInclude); an empty ring gives the empty
/// envelope.
Envelope RingBounds(std::span<const Point> ring);

/// A read-only ring: its vertices, without the repeated closing vertex,
/// and its MBR (RingBounds of them). The polygon predicates below are
/// implemented once, over views: Polygon forwards to them, and
/// SpatialRecordReader hands out views into its flat polygon column.
struct RingView {
  std::span<const Point> ring;
  Envelope bounds;  // Empty for an empty ring.

  bool IsEmpty() const { return ring.size() < 3; }

  /// Edge i: from vertex i to the next; the last edge closes the ring.
  Segment Edge(size_t i) const {
    return Segment(ring[i], ring[i + 1 == ring.size() ? 0 : i + 1]);
  }

  /// True when the closed bounding box of Edge(i) meets the closed
  /// `window`. The box is the per-coordinate std::min/std::max of the
  /// edge's endpoints, so a NaN endpoint can leave a NaN component, and
  /// a box with one meets nothing.
  bool EdgeMeets(size_t i, const Envelope& window) const;
};

/// Ray-crossing point-in-polygon; boundary points count as inside.
bool RingContains(const RingView& ring, const Point& p);

/// Strict interior containment (boundary points excluded).
bool RingContainsInterior(const RingView& ring, const Point& p);

/// True if the two rings share any point (boundary or interior): an edge
/// crossing test, then containment probes of one vertex each.
bool RingsIntersect(const RingView& a, const RingView& b);

/// A simple polygon: one closed ring of vertices, stored without the
/// repeated closing vertex. Orientation is not enforced on input; use
/// Normalize() to put the ring in counter-clockwise order. The ring is
/// immutable apart from Normalize(), so its MBR is computed once, at
/// construction.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> ring)
      : ring_(std::move(ring)), bounds_(RingBounds(ring_)) {}

  const std::vector<Point>& ring() const { return ring_; }
  RingView View() const { return {ring_, bounds_}; }

  bool IsEmpty() const { return ring_.size() < 3; }
  size_t NumVertices() const { return ring_.size(); }

  /// Signed area: positive for counter-clockwise rings.
  double SignedArea() const;
  double Area() const { return std::abs(SignedArea()); }

  double Perimeter() const;

  Envelope Bounds() const { return bounds_; }

  bool Contains(const Point& p) const { return RingContains(View(), p); }
  bool ContainsInterior(const Point& p) const {
    return RingContainsInterior(View(), p);
  }
  bool Intersects(const Polygon& other) const {
    return RingsIntersect(View(), other.View());
  }

  /// All edges as directed segments following the ring.
  std::vector<Segment> Edges() const;

  /// Reorders the ring counter-clockwise (no-op if already CCW or empty).
  void Normalize();

  friend bool operator==(const Polygon& a, const Polygon& b) {
    return a.ring_ == b.ring_;
  }

 private:
  std::vector<Point> ring_;
  Envelope bounds_;  // Empty for an empty ring.
};

/// Regular n-gon approximation of a circle (CCW).
Polygon MakeRegularPolygon(const Point& center, double radius, int sides);

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_POLYGON_H_
