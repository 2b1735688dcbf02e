#ifndef SHADOOP_GEOMETRY_POLYGON_H_
#define SHADOOP_GEOMETRY_POLYGON_H_

#include <vector>

#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/segment.h"

namespace shadoop {

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

  bool IsEmpty() const { return ring_.size() < 3; }
  size_t NumVertices() const { return ring_.size(); }

  /// Signed area: positive for counter-clockwise rings.
  double SignedArea() const;
  double Area() const { return std::abs(SignedArea()); }

  double Perimeter() const;

  Envelope Bounds() const { return bounds_; }

  /// Ray-crossing point-in-polygon; boundary points count as inside.
  bool Contains(const Point& p) const;

  /// Strict interior containment (boundary points excluded).
  bool ContainsInterior(const Point& p) const;

  /// True if this polygon and `other` share any point (boundary or
  /// interior). Quadratic edge test plus containment probes.
  bool Intersects(const Polygon& other) const;

  /// All edges as directed segments following the ring.
  std::vector<Segment> Edges() const;

  /// Reorders the ring counter-clockwise (no-op if already CCW or empty).
  void Normalize();

  friend bool operator==(const Polygon& a, const Polygon& b) {
    return a.ring_ == b.ring_;
  }

 private:
  static Envelope RingBounds(const std::vector<Point>& ring);

  std::vector<Point> ring_;
  Envelope bounds_;  // Empty for an empty ring.
};

/// Regular n-gon approximation of a circle (CCW).
Polygon MakeRegularPolygon(const Point& center, double radius, int sides);

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_POLYGON_H_
