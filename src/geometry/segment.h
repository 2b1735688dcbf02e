#ifndef SHADOOP_GEOMETRY_SEGMENT_H_
#define SHADOOP_GEOMETRY_SEGMENT_H_

#include <vector>

#include "geometry/envelope.h"
#include "geometry/point.h"

namespace shadoop {

/// A directed line segment from `a` to `b`.
struct Segment {
  Point a;
  Point b;

  Segment() = default;
  Segment(const Point& a_in, const Point& b_in) : a(a_in), b(b_in) {}

  double Length() const { return Distance(a, b); }

  Envelope Bounds() const { return Envelope::FromPoints(a, b); }

  Point Midpoint() const { return Point((a.x + b.x) / 2, (a.y + b.y) / 2); }

  friend bool operator==(const Segment& s, const Segment& t) {
    return s.a == t.a && s.b == t.b;
  }
};

/// True if the closed segments [a.a, a.b] and [b.a, b.b] share any point.
bool SegmentsIntersect(const Segment& s, const Segment& t);

/// Parameters t in (0,1) at which `s` crosses `t_seg` (proper crossings
/// only); used by the polygon overlay to split edges.
std::vector<double> CrossingParameters(const Segment& s, const Segment& t_seg);

/// Smallest distance between point p and the closed segment s.
double PointSegmentDistance(const Point& p, const Segment& s);

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_SEGMENT_H_
