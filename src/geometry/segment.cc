#include "geometry/segment.h"

#include <algorithm>
#include <cmath>

namespace shadoop {
namespace {

int Sign(double v) { return (v > 0) - (v < 0); }

bool OnSegment(const Point& p, const Segment& s) {
  return std::min(s.a.x, s.b.x) <= p.x && p.x <= std::max(s.a.x, s.b.x) &&
         std::min(s.a.y, s.b.y) <= p.y && p.y <= std::max(s.a.y, s.b.y);
}

}  // namespace

bool SegmentsIntersect(const Segment& s, const Segment& t) {
  const int d1 = Sign(Cross(t.a, t.b, s.a));
  const int d2 = Sign(Cross(t.a, t.b, s.b));
  const int d3 = Sign(Cross(s.a, s.b, t.a));
  const int d4 = Sign(Cross(s.a, s.b, t.b));
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  if (d1 == 0 && OnSegment(s.a, t)) return true;
  if (d2 == 0 && OnSegment(s.b, t)) return true;
  if (d3 == 0 && OnSegment(t.a, s)) return true;
  if (d4 == 0 && OnSegment(t.b, s)) return true;
  return false;
}

std::vector<double> CrossingParameters(const Segment& s, const Segment& t_seg) {
  std::vector<double> params;
  const double rx = s.b.x - s.a.x;
  const double ry = s.b.y - s.a.y;
  const double qx = t_seg.b.x - t_seg.a.x;
  const double qy = t_seg.b.y - t_seg.a.y;
  const double denom = rx * qy - ry * qx;
  if (denom == 0.0) return params;
  const double dx = t_seg.a.x - s.a.x;
  const double dy = t_seg.a.y - s.a.y;
  const double u = (dx * qy - dy * qx) / denom;
  const double v = (dx * ry - dy * rx) / denom;
  constexpr double kEps = 1e-12;
  if (u > kEps && u < 1.0 - kEps && v >= -kEps && v <= 1.0 + kEps) {
    params.push_back(u);
  }
  return params;
}

double PointSegmentDistance(const Point& p, const Segment& s) {
  const double rx = s.b.x - s.a.x;
  const double ry = s.b.y - s.a.y;
  const double len2 = rx * rx + ry * ry;
  if (len2 == 0.0) return Distance(p, s.a);
  double t = ((p.x - s.a.x) * rx + (p.y - s.a.y) * ry) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return Distance(p, Point(s.a.x + t * rx, s.a.y + t * ry));
}

}  // namespace shadoop
